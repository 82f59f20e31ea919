package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/blif"
	"github.com/blasys-go/blasys/internal/partition"
	"github.com/blasys-go/blasys/internal/qor"
	"github.com/blasys-go/blasys/internal/sched"
)

// TestParallelSweepDeterminism explores example circuits with Workers = 1,
// 2, 8 and requires the committed trajectory, the full evaluated frontier
// and the result netlist to be identical to the serial sweep, bit for bit —
// claiming and the deterministic (error, area, block index) order must make
// the worker count purely a scheduling choice. Each case also runs with 2
// and 8 jittered workers, whose shards delay every evaluation by a seeded
// random few microseconds, so workers claim and finish candidates out of
// order. The lazy cases run that matrix at Parallelism 1, 2, 4 and 8 too:
// the lazy walk looks ahead on as many stale candidates as there are
// workers, and neither knob may change it.
func TestParallelSweepDeterminism(t *testing.T) {
	mult8 := bench.Mult8()
	adder32 := bench.Adder32()
	sad := bench.SAD()
	lazyPars := []int{1, 2, 4, 8}
	cases := []struct {
		name string
		circ bench.Circuit
		cfg  Config
		pars []int // Parallelism values (nil = the default)
	}{
		{"Mult8", mult8, Config{
			K: 6, M: 4, Samples: 1 << 10, Seed: 17, ExploreFully: true, MaxSteps: 8,
		}, nil},
		{"Adder32", adder32, Config{
			K: 8, M: 6, Samples: 1 << 10, Seed: 3, ExploreFully: true, MaxSteps: 6,
		}, nil},
		{"ArrayMult5", bench.Circuit{
			Name: "ArrayMult5", Circ: arrayMult(5), Spec: qor.Unsigned("p", 10),
		}, Config{
			K: 6, M: 4, Samples: 1 << 10, Seed: 9, ExploreFully: true, MaxSteps: 10,
		}, nil},
		{"Mult8Lazy", mult8, Config{
			K: 6, M: 4, Samples: 1 << 10, Seed: 17, ExploreFully: true, MaxSteps: 24, Lazy: true,
		}, lazyPars},
		{"SADLazy", sad, Config{
			K: 6, M: 4, Samples: 1 << 9, Seed: 5, ExploreFully: true, MaxSteps: 12, Lazy: true,
			Sequence: sad.Seq,
		}, lazyPars},
		{"Adder32Lazy", adder32, Config{
			K: 8, M: 6, Samples: 1 << 10, Seed: 3, ExploreFully: true, MaxSteps: 24, Lazy: true,
		}, lazyPars},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			pars := tc.pars
			if pars == nil {
				pars = []int{0}
			}
			var ref *Result
			for _, par := range pars {
				runs := []struct {
					workers int
					jitter  bool
				}{{1, false}, {2, false}, {8, false}, {2, true}, {8, true}}
				for _, run := range runs {
					cfg := tc.cfg
					cfg.Parallelism, cfg.Workers = par, run.workers
					newEval := newCandidateEvaluator
					if run.jitter {
						newEval = jitteredEvaluator(int64(run.workers))
					}
					res, err := approximate(context.Background(), tc.circ.Circ, tc.circ.Spec, cfg, newEval)
					if err != nil {
						t.Fatalf("parallelism=%d workers=%d: %v", par, run.workers, err)
					}
					if res.Frontier == nil || res.Frontier.Size() == 0 {
						t.Fatalf("parallelism=%d workers=%d: empty frontier", par, run.workers)
					}
					if ref == nil {
						ref = res
						if len(ref.Steps) == 0 {
							t.Fatal("serial exploration made no steps")
						}
						continue
					}
					assertSameExploration(t, fmt.Sprintf("parallelism=%d workers=%d jitter=%t", par, run.workers, run.jitter), ref, res)
				}
			}
		})
	}
}

// TestShardCountBoundedByBudget asks for 2^40 workers and records how many
// shards the explorer requests: no more than sched.Claim can run at once.
// The wrapped evaluator builds at most 4 real shards whatever it is asked
// for, so the test allocates nothing per requested worker.
func TestShardCountBoundedByBudget(t *testing.T) {
	asked := -1
	newEval := func(res *Result, blocks []partition.Block, cfg Config) (candidateEvaluator, error) {
		ce, err := newCandidateEvaluator(res, blocks, cfg)
		if err != nil {
			return nil, err
		}
		return &shardCountEval{candidateEvaluator: ce, asked: &asked}, nil
	}
	c := rippleAdder(8)
	cfg := Config{K: 6, M: 4, Samples: 1 << 8, Seed: 1, ExploreFully: true, MaxSteps: 3, Workers: 1 << 40}
	if _, err := approximate(context.Background(), c, qor.Unsigned("sum", 9), cfg, newEval); err != nil {
		t.Fatal(err)
	}
	if limit := sched.Budget() + 1; asked < 1 || asked > limit {
		t.Fatalf("explorer asked for %d shards, want 1..%d (the sched budget plus the caller)", asked, limit)
	}
}

type shardCountEval struct {
	candidateEvaluator
	asked *int
}

func (e *shardCountEval) shards(n int) []candidateShard {
	*e.asked = n
	return e.candidateEvaluator.shards(min(n, 4))
}

// assertSameExploration requires identical trajectories and identical
// frontiers between the serial reference and a parallel run.
func assertSameExploration(t *testing.T, run string, ref, got *Result) {
	t.Helper()
	if len(got.Steps) != len(ref.Steps) {
		t.Fatalf("%s: %d steps, serial %d", run, len(got.Steps), len(ref.Steps))
	}
	for i := range ref.Steps {
		a, b := ref.Steps[i], got.Steps[i]
		if a.BlockIndex != b.BlockIndex || a.NewDegree != b.NewDegree {
			t.Fatalf("%s step %d: committed block %d->%d, serial %d->%d",
				run, i, b.BlockIndex, b.NewDegree, a.BlockIndex, a.NewDegree)
		}
		if a.Report != b.Report {
			t.Fatalf("%s step %d: report diverged:\nparallel %+v\nserial   %+v",
				run, i, b.Report, a.Report)
		}
		if a.ModelArea != b.ModelArea {
			t.Fatalf("%s step %d: model area %v != %v", run, i, b.ModelArea, a.ModelArea)
		}
	}
	if got.BestStep != ref.BestStep {
		t.Fatalf("%s: best step %d, serial %d", run, got.BestStep, ref.BestStep)
	}
	refPts, gotPts := ref.Frontier.Points(), got.Frontier.Points()
	if len(gotPts) != len(refPts) {
		t.Fatalf("%s: %d frontier points, serial %d", run, len(gotPts), len(refPts))
	}
	for i := range refPts {
		if refPts[i] != gotPts[i] {
			t.Fatalf("%s frontier point %d diverged:\nparallel %+v\nserial   %+v",
				run, i, gotPts[i], refPts[i])
		}
	}
	refFront, gotFront := ref.Frontier.Front(), got.Frontier.Front()
	if len(gotFront) != len(refFront) {
		t.Fatalf("%s: front size %d, serial %d", run, len(gotFront), len(refFront))
	}
	for i := range refFront {
		if refFront[i] != gotFront[i] {
			t.Fatalf("%s front entry %d diverged", run, i)
		}
	}
	if a, b := resultBLIF(t, ref), resultBLIF(t, got); !bytes.Equal(a, b) {
		t.Fatalf("%s: result BLIF differs from the serial run's", run)
	}
}

// resultBLIF writes a run's best circuit as BLIF.
func resultBLIF(t *testing.T, res *Result) []byte {
	t.Helper()
	best, err := res.BestCircuit()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := blif.Write(&buf, best); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// jitteredEvaluator wraps the flow's candidate evaluator so that each
// shard sleeps a seeded random 1-20 µs before every evaluation.
func jitteredEvaluator(seed int64) func(*Result, []partition.Block, Config) (candidateEvaluator, error) {
	return func(res *Result, blocks []partition.Block, cfg Config) (candidateEvaluator, error) {
		ce, err := newCandidateEvaluator(res, blocks, cfg)
		if err != nil {
			return nil, err
		}
		return &jitterEval{candidateEvaluator: ce, seed: seed}, nil
	}
}

type jitterEval struct {
	candidateEvaluator
	seed int64
}

func (j *jitterEval) shards(n int) []candidateShard {
	inner := j.candidateEvaluator.shards(n)
	out := make([]candidateShard, n)
	for i, sh := range inner {
		out[i] = &jitterShard{candidateShard: sh, rng: rand.New(rand.NewSource(j.seed*1000 + int64(i)))}
	}
	return out
}

// jitterShard owns its generator: a shard serves one worker at a time.
type jitterShard struct {
	candidateShard
	rng *rand.Rand
}

func (s *jitterShard) evaluate(degrees []int, bi, degree int) (qor.Report, error) {
	time.Sleep(time.Duration(1+s.rng.Intn(20)) * time.Microsecond)
	return s.candidateShard.evaluate(degrees, bi, degree)
}
