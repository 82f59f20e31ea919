package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/partition"
	"github.com/blasys-go/blasys/internal/qor"
	"github.com/blasys-go/blasys/internal/telemetry"
)

// reportsEqual compares two reports field by field, bit for bit: the
// incremental comparer's contract is exact equality with the full-rebuild
// path, not approximate agreement.
func reportsEqual(a, b qor.Report) bool {
	return a == b
}

// prepareProfiles runs decomposition and profiling for an equivalence test
// with small blocks (cheap synthesis) and returns the pieces both evaluation
// paths need.
func prepareProfiles(t *testing.T, circ *logic.Circuit, spec qor.OutputSpec, cfg Config) (*Result, []partition.Block) {
	t.Helper()
	cfg = cfg.withDefaults()
	prepared := logic.ReorderDFS(circ)
	blocks, err := partition.Decompose(prepared, partition.Options{
		MaxInputs: cfg.K, MaxOutputs: cfg.M,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Config: cfg, Circuit: prepared, Spec: spec, BestStep: -1}
	weights := blockOutputWeights(prepared, blocks, spec, cfg.Weighted)
	res.Profiles, err = profileBlocks(context.Background(), prepared, blocks, weights, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, blocks
}

// walkEquivalence drives both evaluation paths along a random exploration
// trajectory: at every committed state it evaluates every legal candidate
// through the incremental comparer and through the full rebuild+resimulate
// path, requiring bit-identical reports, then commits a random candidate.
func walkEquivalence(t *testing.T, res *Result, blocks []partition.Block, rng *rand.Rand, maxCommits int) {
	t.Helper()
	cfg := res.Config
	ic, err := qor.NewIncrementalComparer(res.Circuit, res.Spec, blocks, cfg.Samples, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := qor.NewEvaluator(res.Circuit, res.Spec, cfg.Samples, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	degrees := make([]int, len(res.Profiles))
	for bi, p := range res.Profiles {
		degrees[bi] = p.MaxDegree()
	}
	checked := 0
	for commit := 0; commit <= maxCommits; commit++ {
		var legal []int
		for bi, p := range res.Profiles {
			if next := degrees[bi] - 1; next >= 1 && next <= len(p.Variants) {
				legal = append(legal, bi)
			}
		}
		if len(legal) == 0 {
			break
		}
		for _, bi := range legal {
			d := degrees[bi] - 1
			impl := res.Profiles[bi].Variants[d-1].Impl
			fast, err := ic.CompareCandidate(bi, impl)
			if err != nil {
				t.Fatal(err)
			}
			trial := append([]int(nil), degrees...)
			trial[bi]--
			circ, err := res.buildCircuit(trial)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := eval.Compare(circ)
			if err != nil {
				t.Fatal(err)
			}
			if !reportsEqual(fast, slow) {
				t.Fatalf("commit %d, block %d -> degree %d: incremental %+v != full %+v",
					commit, bi, d, fast, slow)
			}
			checked++
		}
		// Commit a random legal candidate and keep walking.
		bi := legal[rng.Intn(len(legal))]
		degrees[bi]--
		if _, err := ic.Commit(bi, res.Profiles[bi].Variants[degrees[bi]-1].Impl); err != nil {
			t.Fatal(err)
		}
	}
	if checked == 0 {
		t.Fatal("no candidates were checked (degenerate decomposition?)")
	}
}

// TestIncrementalEquivalenceAllBenchmarks walks a random trajectory on every
// example circuit (sampled Monte-Carlo evaluation; circuits small enough
// fall into exhaustive mode automatically) and requires every candidate
// report from the incremental comparer to equal the full-rebuild report
// bit for bit.
func TestIncrementalEquivalenceAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling all benchmarks is slow")
	}
	for _, bm := range bench.All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{K: 6, M: 4, Samples: 1 << 11, Seed: 11}
			res, blocks := prepareProfiles(t, bm.Circ, bm.Spec, cfg)
			walkEquivalence(t, res, blocks, rand.New(rand.NewSource(99)), 4)
		})
	}
}

// TestIncrementalEquivalenceModes covers the evaluation-mode and
// factorization matrix on one circuit each: exhaustive vs sampled
// evaluation, OR vs XOR semirings, column vs ASSO bases.
func TestIncrementalEquivalenceModes(t *testing.T) {
	fig3 := bench.Fig3()
	mult8 := bench.Mult8()
	cases := []struct {
		name    string
		circ    bench.Circuit
		cfg     Config
		commits int
	}{
		// 4 inputs -> exhaustive (exact) evaluation.
		{"exhaustive-or-columns", fig3, Config{K: 4, M: 3, Samples: 1 << 8, Seed: 3}, 2},
		{"exhaustive-xor", fig3, Config{K: 4, M: 3, Samples: 1 << 8, Seed: 3, Semiring: bmf.Xor}, 2},
		{"exhaustive-asso", fig3, Config{K: 4, M: 3, Samples: 1 << 8, Seed: 3, Basis: BasisASSO}, 2},
		// 16 inputs, 2^10 samples -> Monte-Carlo evaluation.
		{"sampled-or-columns", mult8, Config{K: 6, M: 4, Samples: 1 << 10, Seed: 5}, 3},
		{"sampled-xor-asso", mult8, Config{K: 6, M: 4, Samples: 1 << 10, Seed: 5, Semiring: bmf.Xor, Basis: BasisASSO}, 3},
		{"sampled-weighted", mult8, Config{K: 6, M: 4, Samples: 1 << 10, Seed: 5, Weighted: true}, 3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res, blocks := prepareProfiles(t, tc.circ.Circ, tc.circ.Spec, tc.cfg)
			walkEquivalence(t, res, blocks, rand.New(rand.NewSource(42)), tc.commits)
		})
	}
}

// TestExploreIncrementalMatchesFullRebuild runs the whole flow twice — the
// default incremental engine against the DisableIncremental full-rebuild
// path — and requires identical exploration traces: same committed blocks,
// same degrees, and bit-identical reports at every step, for both the
// exhaustive and lazy explorers. A third, whole-walk run is sized so that
// commits leave batches unchanged and the block memos carry outcomes over.
func TestExploreIncrementalMatchesFullRebuild(t *testing.T) {
	bm := bench.Mult8()
	// Mult8 has 16 inputs, so 2^16 samples are exhaustive: 1024 batches, of
	// which a commit of a K = 6 block changes only some. This run is not
	// parallel, so the memo counter's delta is its own.
	t.Run("memo-walk", func(t *testing.T) {
		cfg := Config{
			K: 6, M: 4, Samples: 1 << 16, Seed: 1, Workers: 2,
			ExploreFully: true, MaxSteps: 14,
		}
		full := cfg
		full.DisableIncremental = true
		memo := telemetry.Default().CounterVec("blasys_qor_eval_batches_total", "", "kind").With("memo")
		before := memo.Value()
		ri, err := Approximate(bm.Circ, bm.Spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		carried := memo.Value() - before
		rf, err := Approximate(bm.Circ, bm.Spec, full)
		if err != nil {
			t.Fatal(err)
		}
		if carried <= 0 {
			t.Fatal("no batch was carried over by a block memo: the walk does not test the memo")
		}
		if len(ri.Steps) < 12 || len(ri.Steps) != len(rf.Steps) {
			t.Fatalf("incremental made %d steps, full %d (want equal, at least 12)", len(ri.Steps), len(rf.Steps))
		}
		for i := range ri.Steps {
			if !reflect.DeepEqual(ri.Steps[i], rf.Steps[i]) {
				t.Fatalf("step %d:\nincremental %+v\nfull        %+v", i, ri.Steps[i], rf.Steps[i])
			}
		}
		if ri.BestStep != rf.BestStep {
			t.Fatalf("best step %d != %d", ri.BestStep, rf.BestStep)
		}
		pi, pf := ri.Frontier.Points(), rf.Frontier.Points()
		if len(pi) != len(pf) {
			t.Fatalf("incremental recorded %d frontier points, full %d", len(pi), len(pf))
		}
		for i := range pi {
			a, b := pi[i], pf[i]
			if math.Float64bits(a.Error) != math.Float64bits(b.Error) ||
				math.Float64bits(a.ModelArea) != math.Float64bits(b.ModelArea) || a != b {
				t.Fatalf("frontier point %d: incremental %+v, full %+v", i, a, b)
			}
		}
		t.Logf("%d steps, %d frontier points, %.0f batches carried by the memo", len(ri.Steps), len(pi), carried)
	})
	for _, lazy := range []bool{false, true} {
		name := "exhaustive"
		if lazy {
			name = "lazy"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			base := Config{
				K: 6, M: 4, Samples: 1 << 10, Seed: 17,
				ExploreFully: true, MaxSteps: 8, Lazy: lazy,
			}
			inc := base
			full := base
			full.DisableIncremental = true
			ri, err := Approximate(bm.Circ, bm.Spec, inc)
			if err != nil {
				t.Fatal(err)
			}
			rf, err := Approximate(bm.Circ, bm.Spec, full)
			if err != nil {
				t.Fatal(err)
			}
			if len(ri.Steps) != len(rf.Steps) {
				t.Fatalf("incremental made %d steps, full %d", len(ri.Steps), len(rf.Steps))
			}
			for i := range ri.Steps {
				si, sf := ri.Steps[i], rf.Steps[i]
				if si.BlockIndex != sf.BlockIndex || si.NewDegree != sf.NewDegree {
					t.Fatalf("step %d: incremental committed block %d->%d, full %d->%d",
						i, si.BlockIndex, si.NewDegree, sf.BlockIndex, sf.NewDegree)
				}
				if !reportsEqual(si.Report, sf.Report) {
					t.Fatalf("step %d: report mismatch:\nincremental %+v\nfull        %+v", i, si.Report, sf.Report)
				}
				if si.ModelArea != sf.ModelArea {
					t.Fatalf("step %d: model area %v != %v", i, si.ModelArea, sf.ModelArea)
				}
			}
			if ri.BestStep != rf.BestStep {
				t.Fatalf("best step %d != %d", ri.BestStep, rf.BestStep)
			}
		})
	}
}
