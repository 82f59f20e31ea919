// Micro-benchmarks for the exploration hot loops: BMF factorization,
// candidate QoR evaluation (full rebuild vs incremental cone simulation),
// and end-to-end exploration. Each records its headline rates through
// reportMetric so scripts/bench.sh lands candidate-evals/sec,
// explore-steps/sec, allocs/op, and the incremental-vs-full speedups in
// BENCH_<date>.json.
package blasys_test

import (
	"math"
	mathbits "math/bits"
	"runtime"
	"testing"
	"time"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/partition"
	"github.com/blasys-go/blasys/internal/qor"
	"github.com/blasys-go/blasys/internal/tt"
)

// BenchmarkFactorize measures bmf.Factorize (ASSO + tau sweep + exact row
// refinement) on a real Mult8 block truth matrix across all degrees, one
// call per degree.
func BenchmarkFactorize(b *testing.B) {
	M, maxF := widestMult8Block(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for f := 1; f <= maxF; f++ {
			if _, err := bmf.Factorize(M, f, bmf.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFactorizeDegrees times the all-degree pass block profiling runs
// on BenchmarkFactorize's block, for both factor families: one
// FactorizeDegrees (or FactorizeColumnsDegrees) call computes every degree.
func BenchmarkFactorizeDegrees(b *testing.B) {
	M, maxF := widestMult8Block(b)
	b.Run("asso", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bmf.FactorizeDegrees(M, maxF, bmf.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("columns", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bmf.FactorizeColumnsDegrees(M, maxF, bmf.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// widestMult8Block returns the truth matrix of Mult8's block with the most
// outputs (the worst-case inner loop) and its highest profiled degree.
func widestMult8Block(b *testing.B) (*tt.Matrix, int) {
	b.Helper()
	prepared := logic.ReorderDFS(bench.Mult8().Circ)
	blocks, err := partition.Decompose(prepared, partition.Options{MaxInputs: 10, MaxOutputs: 10})
	if err != nil {
		b.Fatal(err)
	}
	best := -1
	for bi, blk := range blocks {
		if len(blk.Inputs) > 16 || len(blk.Outputs) < 2 {
			continue
		}
		if best < 0 || len(blk.Outputs) > len(blocks[best].Outputs) {
			best = bi
		}
	}
	if best < 0 {
		b.Fatal("no factorizable block")
	}
	M, err := partition.TruthMatrix(prepared, blocks[best])
	if err != nil {
		b.Fatal(err)
	}
	return M, min(len(blocks[best].Outputs)-1, bmf.MaxDegree)
}

// profileOnly runs decomposition + profiling without exploration (MaxSteps
// -1 makes the explorer commit zero steps), returning the profiles both
// candidate-evaluation paths consume.
func profileOnly(b *testing.B, bm bench.Circuit, cfg core.Config) *core.Result {
	b.Helper()
	cfg.MaxSteps = -1
	res, err := core.Approximate(bm.Circ, bm.Spec, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// measureAllocs runs fn and returns its duration and mallocs.
func measureAllocs(fn func()) (time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs
}

// preprCompare replicates the seed's candidate evaluation exactly: a fresh
// simulator per comparison and the per-lane decode loop without any cached
// reference decodes, per-batch partial folding, or buffer pooling. It is the
// in-tree "pre-PR" baseline the recorded speedups are measured against.
func preprCompare(eval *qor.Evaluator, spec qor.OutputSpec, approx *logic.Circuit) qor.Report {
	sim := logic.NewSimulator(approx)
	out := make([]uint64, len(approx.Outputs))
	rep := qor.Report{Samples: eval.Samples(), Exact: false}
	nGroups := len(spec.Groups)
	sumRel := make([]float64, nGroups)
	sumAbs := make([]float64, nGroups)
	sumSq := make([]float64, nGroups)
	var hamming, errSamples int64
	decode := func(words []uint64, g *qor.Group, lane uint) float64 {
		var v uint64
		for j, bit := range g.Bits {
			v |= ((words[bit] >> lane) & 1) << uint(j)
		}
		if g.Signed {
			n := uint(len(g.Bits))
			if v&(1<<(n-1)) != 0 {
				return float64(int64(v) - int64(1)<<n)
			}
		}
		return float64(v)
	}
	nBatches := (eval.Samples() + 63) / 64
	for bi := 0; bi < nBatches; bi++ {
		sim.Run(eval.InputWords(bi), out)
		refOut := eval.ReferenceWords(bi)
		var anyDiff uint64
		for o := range out {
			d := out[o] ^ refOut[o]
			hamming += int64(mathbits.OnesCount64(d))
			anyDiff |= d
		}
		errSamples += int64(mathbits.OnesCount64(anyDiff))
		if anyDiff == 0 {
			continue
		}
		for gi := range spec.Groups {
			g := &spec.Groups[gi]
			var groupDiff uint64
			for _, bit := range g.Bits {
				groupDiff |= out[bit] ^ refOut[bit]
			}
			for lanes := groupDiff; lanes != 0; lanes &= lanes - 1 {
				lane := uint(mathbits.TrailingZeros64(lanes))
				rv := decode(refOut, g, lane)
				av := decode(out, g, lane)
				abs := math.Abs(av - rv)
				rel := abs / math.Max(math.Abs(rv), 1)
				sumAbs[gi] += abs
				sumSq[gi] += abs * abs
				sumRel[gi] += rel
				if rel > rep.WorstRel {
					rep.WorstRel = rel
				}
			}
		}
	}
	n := float64(eval.Samples())
	for gi := range spec.Groups {
		rep.AvgRel += sumRel[gi] / n
		rep.AvgAbs += sumAbs[gi] / n
		rep.MeanSquared += sumSq[gi] / n
	}
	rep.MeanHam = float64(hamming) / n
	rep.ErrRate = float64(errSamples) / n
	return rep
}

// BenchmarkCompare measures single-candidate QoR evaluation throughput at a
// mid-exploration committed state (where exploration spends its time): the
// pre-PR path (ReplaceBlocks rebuild + whole-circuit resimulation with the
// seed's metric loop) against the incremental cone path, reporting
// candidate-evals/sec, allocs/op, and the speedup for each circuit.
func BenchmarkCompare(b *testing.B) {
	const samples = 1 << 16 // the core default used during exploration
	for _, name := range []string{"Mult8", "Adder32", "BUT", "FIR", "MAC", "SAD"} {
		bm, err := bench.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			res := profileOnly(b, bm, core.Config{Samples: samples, Seed: benchSeed})
			blocks := make([]partition.Block, len(res.Profiles))
			type cand struct {
				bi   int
				impl *logic.Circuit
			}
			var cands []cand
			for bi, p := range res.Profiles {
				blocks[bi] = p.Block
				if n := len(p.Variants); n > 0 {
					cands = append(cands, cand{bi, p.Variants[n-1].Impl})
				}
			}
			eval, err := qor.NewEvaluator(res.Circuit, bm.Spec, samples, benchSeed)
			if err != nil {
				b.Fatal(err)
			}
			ic, err := qor.NewIncrementalComparer(res.Circuit, bm.Spec, blocks, samples, benchSeed)
			if err != nil {
				b.Fatal(err)
			}
			// Commit every third candidate so evaluation runs on a partially
			// approximated circuit, as it does mid-exploration.
			committed := map[int]*logic.Circuit{}
			for i := 0; i < len(cands); i += 3 {
				committed[cands[i].bi] = cands[i].impl
				if _, err := ic.Commit(cands[i].bi, cands[i].impl); err != nil {
					b.Fatal(err)
				}
			}
			var live []cand
			for _, c := range cands {
				if _, done := committed[c.bi]; !done {
					live = append(live, c)
				}
			}
			trialImpls := func(c cand) map[int]*logic.Circuit {
				m := make(map[int]*logic.Circuit, len(committed)+1)
				for bi, impl := range committed {
					m[bi] = impl
				}
				m[c.bi] = c.impl
				return m
			}
			preprEval := func(c cand) {
				circ, err := logic.ReplaceBlocks(res.Circuit, partition.Substitutions(blocks, trialImpls(c)))
				if err != nil {
					b.Fatal(err)
				}
				preprCompare(eval, bm.Spec, circ)
			}
			fullEval := func(c cand) {
				circ, err := logic.ReplaceBlocks(res.Circuit, partition.Substitutions(blocks, trialImpls(c)))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eval.Compare(circ); err != nil {
					b.Fatal(err)
				}
			}
			incEval := func(c cand) {
				if _, err := ic.CompareCandidate(c.bi, c.impl); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				preprDur, _ := measureAllocs(func() {
					for _, c := range live {
						preprEval(c)
					}
				})
				fullDur, fullAllocs := measureAllocs(func() {
					for _, c := range live {
						fullEval(c)
					}
				})
				incDur, incAllocs := measureAllocs(func() {
					for _, c := range live {
						incEval(c)
					}
				})
				if i == 0 {
					n := float64(len(live))
					preprRate := n / preprDur.Seconds()
					fullRate := n / fullDur.Seconds()
					incRate := n / incDur.Seconds()
					b.Logf("Compare | %-8s | %d candidates | pre-PR %6.1f evals/s | full-rebuild %6.1f evals/s (%d allocs/op) | incremental %8.1f evals/s (%d allocs/op) | %.1fx vs pre-PR, %.1fx vs full",
						name, len(live), preprRate, fullRate, fullAllocs/uint64(len(live)),
						incRate, incAllocs/uint64(len(live)), incRate/preprRate, incRate/fullRate)
					reportMetric(b, preprRate, "prepr-candidate-evals/sec")
					reportMetric(b, fullRate, "full-candidate-evals/sec")
					reportMetric(b, incRate, "candidate-evals/sec")
					reportMetric(b, float64(fullAllocs)/n, "full-allocs/op")
					reportMetric(b, float64(incAllocs)/n, "allocs/op")
					reportMetric(b, incRate/preprRate, "candidate-eval-speedup-x")
					reportMetric(b, incRate/fullRate, "candidate-eval-speedup-vs-pooled-x")
				}
			}
		})
	}
}

// BenchmarkExplore measures the end-to-end Approximate wall-clock — profiling
// plus exploration — with the incremental engine against the pre-PR
// full-rebuild path (Config.DisableIncremental), reporting explore-steps/sec
// and the overall speedup for each circuit. A third leg runs the candidate
// sweep on multiple worker shards (Workers > 1, count from -workers) against
// the serial sweep (Workers = 1), records the parallel-sweep speedup, and
// fails if the parallel trajectory diverges from the serial one — the
// speedup row is only meaningful on machines with >= 2 CPUs, but the ratio
// is recorded either way.
func BenchmarkExplore(b *testing.B) {
	workers := *benchWorkers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers < 2 {
		workers = 2
	}
	for _, name := range []string{"Mult8", "Adder32", "BUT", "FIR", "MAC", "SAD"} {
		bm, err := bench.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.Config{
				Samples: 1 << 13, Seed: benchSeed,
				ExploreFully: true, MaxSteps: 12,
			}
			run := func(disable bool, workers int) (time.Duration, *core.Result) {
				c := cfg
				c.DisableIncremental = disable
				c.Workers = workers
				start := time.Now()
				res, err := core.Approximate(bm.Circ, bm.Spec, c)
				if err != nil {
					b.Fatal(err)
				}
				return time.Since(start), res
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fullDur, fullRes := run(true, 0)
				incDur, incRes := run(false, 1)
				parDur, parRes := run(false, workers)
				if i == 0 {
					fullSteps, incSteps := len(fullRes.Steps), len(incRes.Steps)
					if fullSteps != incSteps {
						b.Fatalf("step count diverged: full %d, incremental %d", fullSteps, incSteps)
					}
					if len(parRes.Steps) != incSteps {
						b.Fatalf("step count diverged: Workers=1 %d, Workers=%d %d",
							incSteps, workers, len(parRes.Steps))
					}
					for s := range incRes.Steps {
						if incRes.Steps[s] != parRes.Steps[s] {
							b.Fatalf("step %d diverged between Workers=1 and Workers=%d", s, workers)
						}
					}
					fullRate := float64(fullSteps) / fullDur.Seconds()
					incRate := float64(incSteps) / incDur.Seconds()
					parRate := float64(len(parRes.Steps)) / parDur.Seconds()
					b.Logf("Explore | %-8s | %d steps | full %v (%.2f steps/s) | incremental %v (%.2f steps/s) | %.1fx | %d-worker sweep %v (%.2f steps/s, %.2fx, %d frontier pts)",
						name, incSteps, fullDur, fullRate, incDur, incRate, float64(fullDur)/float64(incDur),
						workers, parDur, parRate, float64(incDur)/float64(parDur), incRes.Frontier.Size())
					reportMetric(b, incRate, "explore-steps/sec")
					reportMetric(b, fullRate, "full-explore-steps/sec")
					reportMetric(b, float64(fullDur)/float64(incDur), "explore-speedup-x")
					reportMetric(b, parRate, "parallel-explore-steps/sec")
					reportMetric(b, float64(incDur)/float64(parDur), "parallel-sweep-speedup-x")
					reportMetric(b, float64(workers), "sweep-workers")
				}
			}
		})
	}
}
