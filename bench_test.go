// Root-package benchmarks: raw simulation throughput, the public API end to
// end, and the engine's parallel-exploration and warm-cache numbers. The
// paper's tables and figures come from the paper grids of internal/exp
// (scripts/paper/, docs/EXPERIMENTS.md), not from benchmarks.
package blasys_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"github.com/blasys-go/blasys"
	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/engine"
	"github.com/blasys-go/blasys/internal/logic"
)

const benchSeed = 1

// BenchmarkCoreSimulator measures the raw bit-parallel simulation throughput
// the flow is built on.
func BenchmarkCoreSimulator(b *testing.B) {
	bm := bench.Mult8()
	sim := logic.NewSimulator(bm.Circ)
	in := make([]uint64, bm.Circ.NumInputs())
	out := make([]uint64, bm.Circ.NumOutputs())
	b.SetBytes(64 * 8) // 64 samples per Run
	for i := 0; i < b.N; i++ {
		in[0] = uint64(i)
		sim.Run(in, out)
	}
}

// BenchmarkPublicAPI smoke-checks the facade end to end on a tiny circuit.
func BenchmarkPublicAPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cb := blasys.NewBuilder("tiny")
		x := cb.Inputs("x", 4)
		y := cb.Inputs("y", 4)
		carry := cb.Const(false)
		var sums []blasys.NodeID
		for j := 0; j < 4; j++ {
			axb := cb.Xor(x[j], y[j])
			sums = append(sums, cb.Xor(axb, carry))
			carry = cb.Or(cb.And(x[j], y[j]), cb.And(axb, carry))
		}
		sums = append(sums, carry)
		cb.Outputs("s", sums)
		res, err := blasys.Approximate(cb.C, blasys.Unsigned("s", 5), blasys.Config{
			K: 6, M: 4, Samples: 1 << 8, Seed: benchSeed, MaxSteps: 5, ExploreFully: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.BestCircuit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSpeedup records the concurrent-service headline numbers for
// the perf trajectory (scripts/bench.sh -> BENCH_<date>.json): the
// sequential-vs-parallel exploration speedup on Mult8 and the factorization
// cache hits of a warm engine resubmission.
func BenchmarkEngineSpeedup(b *testing.B) {
	bm := bench.Mult8()
	cfg := core.Config{Samples: 1 << 12, Seed: benchSeed, ExploreFully: true, MaxSteps: 8}
	run := func(parallelism int) time.Duration {
		c := cfg
		c.Parallelism = parallelism
		start := time.Now()
		if _, err := core.Approximate(bm.Circ, bm.Spec, c); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	for i := 0; i < b.N; i++ {
		seq := run(1)
		par := run(runtime.GOMAXPROCS(0))
		if i == 0 {
			speedup := float64(seq) / float64(par)
			b.Logf("Engine | Mult8 exploration: sequential %v, parallel(%d) %v, %.2fx",
				seq, runtime.GOMAXPROCS(0), par, speedup)
			reportMetric(b, speedup, "parallel-speedup-x")
		}
	}

	// Warm-cache resubmission through the engine.
	e := engine.New(engine.Options{Workers: 1})
	defer e.Close()
	req := engine.Request{Circuit: bm.Circ, Spec: bm.Spec, Config: cfg}
	for i := 0; i < 2; i++ {
		j, err := e.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			b.Fatal(err)
		}
		if j.State() != engine.StateDone {
			b.Fatalf("engine job %s: %v", j.State(), j.Err())
		}
		if i == 1 {
			st := j.Snapshot(false)
			b.Logf("Engine | warm resubmission: %d cache hits, %d misses", st.CacheHits, st.CacheMisses)
			reportMetric(b, float64(st.CacheHits), "warm-cache-hits")
		}
	}
}
