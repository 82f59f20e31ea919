package qor_test

import (
	"flag"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/partition"
	"github.com/blasys-go/blasys/internal/qor"
	"github.com/blasys-go/blasys/internal/telemetry"
)

// Differential fuzz of the incremental kernel on random circuits nobody
// hand-picked: for seeded random netlists and seeded random block
// implementations, the scalar incremental comparer must report QoR
// bit-identical to the paper-literal rebuild (logic.ReplaceBlocks +
// Evaluator.Compare), across commits. The seeded corpus reads every output
// as one unsigned group, plus a wide group beside a narrow one;
// TestLaneDecodeEdgeCases adds fixed output interpretations that stress the
// per-sample-lane decode, and TestKernelMemoFuzz the block memos and the
// parallel Commit. The CI kernel job runs all three repeatedly under -race.

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

// flipImpl returns a copy of impl whose outputs are complemented on a few
// input patterns: each of n random full assignments of impl's inputs flips
// one random output. On an exhaustive input space such a change reaches only
// the batches where its patterns occur, so commits of it leave batches
// unchanged and candidates built this way stay clean on most batches.
func flipImpl(rng *rand.Rand, impl *logic.Circuit, n int) *logic.Circuit {
	c := impl.Clone()
	b := logic.WrapBuilder(c)
	for p := 0; p < n; p++ {
		pat := rng.Uint64()
		lits := make([]logic.NodeID, len(c.Inputs))
		for i, in := range c.Inputs {
			if pat>>uint(i)&1 == 0 {
				in = b.Not(in)
			}
			lits[i] = in
		}
		o := rng.Intn(len(c.Outputs))
		c.Outputs[o] = b.Xor(c.Outputs[o], b.AndTree(lits))
	}
	return c
}

// TestKernelMemoFuzz drives the comparer in Algorithm 1's shape — every
// block keeps a candidate that is evaluated again after each commit — over
// exhaustive input spaces, where commits that change a block on a few input
// patterns leave most batches alone and the block memos carry outcomes
// over. Every report must equal the paper-literal rebuild's. Rounds skip
// some candidates, so their memos go two commits stale; some commits land on
// a block whose candidate stays the same; two shards evaluate one block at
// once; and a twin comparer that commits on several shards must report
// exactly what the one committing serially does. The memo counter must
// move, so the test cannot pass without the memo.
func TestKernelMemoFuzz(t *testing.T) {
	memo := telemetry.Default().CounterVec("blasys_qor_eval_batches_total", "", "kind").With("memo")
	before := memo.Value()
	nSeeds := *fuzzSeeds
	if testing.Short() {
		nSeeds = 2
	}
	for seed := int64(1); seed <= int64(nSeeds); seed++ {
		seed := seed
		t.Run("", func(t *testing.T) { memoFuzz(t, rand.New(rand.NewSource(seed*7919))) })
	}
	if memo.Value() == before {
		t.Fatal("no batch was carried over by a block memo")
	}
}

func memoFuzz(t *testing.T, rng *rand.Rand) {
	nIn := 11 + rng.Intn(2)
	bc := bench.RandomCircuit(rng, bench.RandomOptions{
		Inputs: nIn, Gates: 70 + rng.Intn(70), Outputs: 6 + rng.Intn(5),
	})
	prepared := logic.ReorderDFS(logic.Sweep(bc.Circ))
	nOut := len(prepared.Outputs)
	spec := qor.Unsigned("z", nOut)
	if rng.Intn(2) == 0 {
		spec = groupedSpec([]int{nOut / 2, nOut - nOut/2}, []bool{true, rng.Intn(2) == 0})
	}
	blocks, err := partition.Decompose(prepared, partition.Options{MaxInputs: 6, MaxOutputs: 3})
	if err != nil || len(blocks) < 3 {
		t.Skipf("decompose: %v (%d blocks)", err, len(blocks))
	}
	samples := 1 << uint(len(prepared.Inputs))
	serial, err := qor.NewIncrementalComparer(prepared, spec, blocks, samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := qor.NewIncrementalComparer(prepared, spec, blocks, samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := qor.NewEvaluator(prepared, spec, samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	shA, shB := serial.Shard(), serial.Shard()
	twinShards := []*qor.Shard{twin.Shard(), twin.Shard(), twin.Shard()}

	// committed[bi] is the implementation committed for block bi, the
	// extracted accurate block until then; cands[bi] is bi's candidate.
	committed := make([]*logic.Circuit, len(blocks))
	cands := make([]*logic.Circuit, len(blocks))
	for bi := range blocks {
		if committed[bi], err = partition.Extract(prepared, blocks[bi]); err != nil {
			t.Fatal(err)
		}
		cands[bi] = flipImpl(rng, committed[bi], 1+rng.Intn(2))
	}
	literal := func(bi int, impl *logic.Circuit) qor.Report {
		t.Helper()
		merged := map[int]*logic.Circuit{}
		for cb, ci := range committed {
			merged[cb] = ci
		}
		merged[bi] = impl
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

	for round := 0; round < 12; round++ {
		// The sweep: most blocks' candidates are evaluated again; the rest
		// skip this round, so their memos are two commits old next time.
		var sweep []int
		for bi := range blocks {
			if round == 0 || rng.Intn(4) != 0 {
				sweep = append(sweep, bi)
			}
		}
		got := make([]qor.Report, len(sweep))
		errs := make([]error, len(twinShards))
		var wg sync.WaitGroup
		for w, sh := range twinShards {
			wg.Add(1)
			go func(w int, sh *qor.Shard) {
				defer wg.Done()
				for i := w; i < len(sweep); i += len(twinShards) {
					if got[i], errs[w] = sh.CompareCandidate(sweep[i], cands[sweep[i]]); errs[w] != nil {
						return
					}
				}
			}(w, sh)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		// One block is evaluated on two shards at once: only one of them
		// may use the memo, and both must be exact.
		both := sweep[rng.Intn(len(sweep))]
		var pair [2]qor.Report
		var pairErr [2]error
		wg.Add(2)
		for k, sh := range []*qor.Shard{shA, shB} {
			go func(k int, sh *qor.Shard) {
				defer wg.Done()
				pair[k], pairErr[k] = sh.CompareCandidate(both, cands[both])
			}(k, sh)
		}
		wg.Wait()
		for i, bi := range sweep {
			want := literal(bi, cands[bi])
			rep := pair[0]
			if bi != both {
				if rep, err = shA.CompareCandidate(bi, cands[bi]); err != nil {
					t.Fatal(err)
				}
			} else if pairErr[0] != nil || pairErr[1] != nil {
				t.Fatal(pairErr)
			} else if pair[1] != want {
				t.Fatalf("round %d block %d: second shard %+v != paper-literal %+v", round, bi, pair[1], want)
			}
			if rep != want {
				t.Fatalf("round %d block %d: serial-commit comparer %+v != paper-literal %+v", round, bi, rep, want)
			}
			if got[i] != want {
				t.Fatalf("round %d block %d: parallel-commit comparer %+v != paper-literal %+v", round, bi, got[i], want)
			}
		}

		// Commit a change to a few input patterns of one block. Its
		// candidate keeps its pointer unless replaced below, so the next
		// round evaluates it with a memo one epoch old and a commit on its
		// own block.
		j := rng.Intn(len(blocks))
		impl := flipImpl(rng, committed[j], 1+rng.Intn(2))
		committed[j] = impl
		want := literal(j, impl)
		repA, err := serial.Commit(j, impl)
		if err != nil {
			t.Fatal(err)
		}
		repB, err := twin.Commit(j, impl, twinShards...)
		if err != nil {
			t.Fatal(err)
		}
		if repA != want || repB != want {
			t.Fatalf("round %d: commit of block %d: serial %+v, on %d shards %+v, paper-literal %+v",
				round, j, repA, len(twinShards), repB, want)
		}
		if rng.Intn(3) == 0 {
			cands[j] = flipImpl(rng, impl, 1+rng.Intn(2))
		}
	}
}
