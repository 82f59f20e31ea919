package qor_test

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/partition"
	"github.com/blasys-go/blasys/internal/qor"
)

// Differential fuzz of the incremental kernel on random circuits nobody
// hand-picked: for seeded random netlists and seeded random block
// implementations, the scalar incremental comparer must report QoR
// bit-identical to the paper-literal rebuild (logic.ReplaceBlocks +
// Evaluator.Compare), across commits. The seeded corpus reads every output
// as one unsigned group, plus a wide group beside a narrow one;
// TestLaneDecodeEdgeCases adds fixed output interpretations that stress the
// per-sample-lane decode. The CI kernel job runs both repeatedly under -race.

var fuzzSeeds = flag.Int("kernelfuzz.seeds", 6, "random circuits per kernel fuzz run")

// randImpl builds a seeded random implementation with the given I/O shape:
// random gates over the inputs and earlier gates, outputs drawn from the
// whole pool (constants included), so behaviors range from constant and
// pass-through to dense mixing.
func randImpl(rng *rand.Rand, nIn, nOut int) *logic.Circuit {
	b := logic.NewBuilder("fuzzimpl")
	ids := b.Inputs("i", nIn)
	ids = append(ids, b.Const(false), b.Const(true))
	ops := []logic.Op{
		logic.And, logic.Or, logic.Xor, logic.Nand,
		logic.Nor, logic.Xnor, logic.Not, logic.Mux,
	}
	for g, n := 0, rng.Intn(12); g < n; g++ {
		op := ops[rng.Intn(len(ops))]
		pick := func() logic.NodeID { return ids[rng.Intn(len(ids))] }
		var id logic.NodeID
		switch op.Arity() {
		case 1:
			id = b.Gate(op, pick())
		case 2:
			id = b.Gate(op, pick(), pick())
		default:
			id = b.Gate(op, pick(), pick(), pick())
		}
		ids = append(ids, id)
	}
	for o := 0; o < nOut; o++ {
		b.Output("o", ids[rng.Intn(len(ids))])
	}
	return b.C
}

// groupedSpec partitions the first outputs into consecutive groups of the
// given widths and signedness; outputs past the last group join none.
func groupedSpec(widths []int, signed []bool) qor.OutputSpec {
	var spec qor.OutputSpec
	next := 0
	for i, w := range widths {
		bits := make([]int, w)
		for j := range bits {
			bits[j] = next
			next++
		}
		spec.Groups = append(spec.Groups, qor.Group{
			Name:   fmt.Sprintf("g%d", i),
			Bits:   bits,
			Signed: signed[i],
		})
	}
	return spec
}

// fuzzKernel decomposes circ and runs rounds of random candidates on random
// blocks. Every candidate's CompareCandidate report must equal the
// paper-literal rebuild's; about half the rounds commit one candidate, so
// later rounds run on an approximated circuit, and the report each Commit
// returns must equal the paper-literal report of the committed circuit. It
// returns the effective sample count.
func fuzzKernel(t *testing.T, rng *rand.Rand, circ *logic.Circuit, spec qor.OutputSpec, samples int, seed int64) int {
	t.Helper()
	prepared := logic.ReorderDFS(logic.Sweep(circ))
	blocks, err := partition.Decompose(prepared, partition.Options{MaxInputs: 5, MaxOutputs: 3})
	if err != nil || len(blocks) == 0 {
		t.Skipf("decompose: %v (%d blocks)", err, len(blocks))
	}
	ic, err := qor.NewIncrementalComparer(prepared, spec, blocks, samples, seed)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := qor.NewEvaluator(prepared, spec, samples, seed)
	if err != nil {
		t.Fatal(err)
	}
	committed := map[int]*logic.Circuit{}
	literal := func(bi int, impl *logic.Circuit) qor.Report {
		t.Helper()
		merged := map[int]*logic.Circuit{bi: impl}
		for cb, ci := range committed {
			if cb != bi {
				merged[cb] = ci
			}
		}
		circ, err := logic.ReplaceBlocks(prepared, partition.Substitutions(blocks, merged))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eval.Compare(circ)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for round := 0; round < 8; round++ {
		bi := rng.Intn(len(blocks))
		b := &blocks[bi]
		impls := make([]*logic.Circuit, 1+rng.Intn(8))
		for i := range impls {
			impls[i] = randImpl(rng, len(b.Inputs), len(b.Outputs))
		}
		for i, impl := range impls {
			got, err := ic.CompareCandidate(bi, impl)
			if err != nil {
				t.Fatal(err)
			}
			if want := literal(bi, impl); got != want {
				t.Fatalf("round %d block %d candidate %d: incremental %+v != paper-literal %+v",
					round, bi, i, got, want)
			}
		}
		if rng.Intn(2) == 0 {
			pick := impls[rng.Intn(len(impls))]
			got, err := ic.Commit(bi, pick)
			if err != nil {
				t.Fatal(err)
			}
			committed[bi] = pick
			if want := literal(bi, pick); got != want {
				t.Fatalf("round %d block %d: commit report %+v != paper-literal %+v", round, bi, got, want)
			}
		}
	}
	return ic.Samples()
}

func TestKernelFuzzDifferential(t *testing.T) {
	nSeeds := *fuzzSeeds
	if testing.Short() {
		nSeeds = 2
	}
	for seed := int64(1); seed <= int64(nSeeds); seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed * 9176))
			bc := bench.RandomCircuit(rng, bench.RandomOptions{
				Inputs:  5 + rng.Intn(5),
				Gates:   40 + rng.Intn(80),
				Outputs: 3 + rng.Intn(5),
			})
			spec := qor.Unsigned("z", len(bc.Circ.Outputs))
			fuzzKernel(t, rng, bc.Circ, spec, 1<<(7+rng.Intn(3)), seed)
		})
	}
	// One wide group (15-39 bits) plus a narrow remainder, each randomly
	// signed, so every dirty batch decodes a many-bit and a few-bit group.
	t.Run("wide-group", func(t *testing.T) {
		t.Parallel()
		for seed := int64(1); seed <= int64(nSeeds); seed++ {
			seed := seed
			t.Run("", func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(seed * 40503))
				nOut := 18 + rng.Intn(22)
				bc := bench.RandomCircuit(rng, bench.RandomOptions{
					Inputs:  6 + rng.Intn(4),
					Gates:   60 + rng.Intn(120),
					Outputs: nOut,
				})
				wide := 15 + rng.Intn(nOut-15+1)
				widths, signs := []int{wide}, []bool{rng.Intn(2) == 0}
				if rest := nOut - wide; rest > 0 {
					widths = append(widths, rest)
					signs = append(signs, rng.Intn(2) == 0)
				}
				fuzzKernel(t, rng, bc.Circ, groupedSpec(widths, signs), 1<<(7+rng.Intn(3)), seed)
			})
		}
	})
}

// TestLaneDecodeEdgeCases runs the kernel fuzz on fixed output
// interpretations where decoding a dirty sample lane's group values is most
// fragile: narrow signed groups, one-bit groups and a partial final-batch
// mask.
func TestLaneDecodeEdgeCases(t *testing.T) {
	shapes := []struct {
		name            string
		inputs, outputs int
		widths          []int
		signed          []bool
		samples         int
		wantSamples     int // effective sample count, when the shape pins one
	}{
		// Two's-complement groups narrow enough that the sign bit flips
		// often.
		{name: "signed-groups", inputs: 7, outputs: 12,
			widths: []int{5, 7}, signed: []bool{true, true}, samples: 256},
		// Every group one bit wide, with alternating signedness.
		{name: "single-bit-groups", inputs: 7, outputs: 9,
			widths:  []int{1, 1, 1, 1, 1, 1, 1, 1, 1},
			signed:  []bool{false, true, false, true, false, true, false, true, false},
			samples: 256},
		// 2^5 = 32 exhaustive samples: a single batch whose valid-sample mask
		// covers only the low half of the word.
		{name: "partial-final-mask", inputs: 5, outputs: 8,
			widths: []int{8}, signed: []bool{false}, samples: 64, wantSamples: 32},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(77))
			bc := bench.RandomCircuit(rng, bench.RandomOptions{
				Inputs: sh.inputs, Gates: 80, Outputs: sh.outputs,
			})
			got := fuzzKernel(t, rng, bc.Circ, groupedSpec(sh.widths, sh.signed), sh.samples, 1)
			if sh.wantSamples != 0 && got != sh.wantSamples {
				t.Fatalf("effective samples %d, want %d", got, sh.wantSamples)
			}
		})
	}
}
