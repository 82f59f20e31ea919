package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"github.com/blasys-go/blasys"
	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/logic"
)

// workload is one closed-loop job mix. A round runs each circuit once per
// client, in a seeded order, each job under its own seeded Config.Seed.
type workload struct {
	name     string
	circuits []string
	basis    core.Basis
	samples  int
	// full explores the whole trade-off curve instead of stopping at the
	// threshold.
	full bool
	// warmup is the circuit of the untimed warm-up job in each set-up.
	warmup string
	// service runs the jobs through the in-process HTTP service instead of
	// the library facade.
	service bool
	// clients is the number of closed-loop clients. They run in lockstep:
	// each takes one job of the same circuit, and the next batch starts
	// when all of them are done.
	clients int
	// roundSeconds is the nominal wall time of one round on a two-CPU
	// machine; it converts -seconds into a round count.
	roundSeconds float64
}

// threshold is the paper's 5% average-relative-error budget, used by every
// workload.
const threshold = 0.05

var workloads = map[string]workload{
	"paper-walk": {
		name:     "paper-walk",
		circuits: []string{"Adder32", "Mult8", "SAD"},
		basis:    core.BasisColumns,
		samples:  1 << 16,
		warmup:   "Adder32",
		clients:  1,
		// Adder32 0.8 s + Mult8 2.5 s + SAD 2.2 s
		roundSeconds: 5.5,
	},
	"asso-profile": {
		name:     "asso-profile",
		circuits: []string{"BUT", "Adder32", "Mult8", "SAD"},
		basis:    core.BasisASSO,
		samples:  1 << 13,
		warmup:   "BUT",
		clients:  1,
		// BUT 2.5 s + Adder32 3.8 s + Mult8 3.8 s + SAD 4.3 s
		roundSeconds: 14,
	},
	"durable-service": {
		name:     "durable-service",
		circuits: []string{"Mult8", "SAD", "Adder32"},
		basis:    core.BasisColumns,
		samples:  1 << 13,
		full:     true,
		warmup:   "SAD",
		service:  true,
		clients:  2,
		// two concurrent jobs each: Mult8 5.3 s, SAD 1.2 s, Adder32 0.3 s
		roundSeconds: 6.7,
	},
}

// config is the flow configuration of one job. K, M and the threshold are
// the paper's defaults.
func (w workload) config(b bench.Circuit, seed int64) core.Config {
	return core.Config{
		K: 10, M: 10,
		Threshold:    threshold,
		Samples:      w.samples,
		Seed:         seed,
		Basis:        w.basis,
		ExploreFully: w.full,
		Sequence:     b.Seq,
	}
}

// job is one entry of the generated job list.
type job struct {
	index, round int
	circuit      string
	seed         int64
}

func (j job) String() string {
	return fmt.Sprintf("job %3d round=%d circuit=%s seed=%d", j.index, j.round, j.circuit, j.seed)
}

// rounds is how many rounds fill a window of the given length at the
// workload's nominal round time, and never fewer than replayRounds. The count
// depends only on the window, not on how fast this run happens to be, so a
// seed always yields the same job list.
func (w workload) rounds(window time.Duration) int {
	n := int(math.Ceil(window.Seconds() / w.roundSeconds))
	if n < replayRounds {
		n = replayRounds
	}
	return n
}

// jobList generates the workload's job list from the seed: per round, a
// seeded permutation of the circuits, each circuit once per client, each
// job with a fresh Config.Seed. Seeds never repeat within a list (so no
// submission is a duplicate) and are never 0, the warm-up job's seed.
func jobList(w workload, seed int64, rounds int) []job {
	rng := rand.New(rand.NewSource(seed))
	used := map[int64]bool{0: true}
	var out []job
	for r := 0; r < rounds; r++ {
		for _, ci := range rng.Perm(len(w.circuits)) {
			for c := 0; c < w.clients; c++ {
				s := rng.Int63n(1<<31) + 1
				for used[s] {
					s = rng.Int63n(1<<31) + 1
				}
				used[s] = true
				out = append(out, job{index: len(out), round: r, circuit: w.circuits[ci], seed: s})
			}
		}
	}
	return out
}

// outcome is one attempted job as the caller saw it.
type outcome struct {
	job  job
	wall time.Duration // library call, or POST until result.blif arrived
	err  error
	best *logic.Circuit // the chosen circuit
	hash string         // SHA-256 of the chosen circuit's BLIF text
	// res is kept for the traced replay (replayed rounds of traced runs only).
	res *core.Result

	// durable-service only
	id           string
	blif         string // the submitted netlist
	result       string // the downloaded result.blif
	submit       time.Duration
	download     time.Duration
	notifyLag    time.Duration
	queueWait    time.Duration
	runTime      time.Duration
	hits, misses uint64
}

// runResult is a workload pass: set-up times, the timed window and every
// attempted job.
type runResult struct {
	setups   []time.Duration
	window   time.Duration
	cpu      time.Duration
	peakMB   float64 // median over jobs of the peak resident memory
	outcomes []*outcome
	inputs   map[string]bench.Circuit
}

type runOptions struct {
	w       workload
	seed    int64
	budget  time.Duration
	traced  bool
	tmp     string
	started time.Time
}

// generateInputs builds the workload's benchmark circuits.
func generateInputs(w workload) (map[string]bench.Circuit, error) {
	in := map[string]bench.Circuit{}
	for _, name := range append([]string{w.warmup}, w.circuits...) {
		b, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		in[name] = b
	}
	return in, nil
}

// blifHash fingerprints a circuit by its BLIF text.
func blifHash(c *logic.Circuit) (string, error) {
	var sb strings.Builder
	if err := blasys.WriteBLIF(&sb, c); err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:]), nil
}

// runLibrary is the paper-walk / asso-profile loop: one
// blasys.ApproximateContext call at a time, no factorization cache shared
// between jobs.
func runLibrary(o runOptions, jobs []job) (*runResult, error) {
	rr := &runResult{}
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		if i == 0 {
			t = o.started
		}
		in, err := generateInputs(o.w)
		if err != nil {
			return nil, err
		}
		warm := libraryJob(o.w, in, job{index: -1, round: -1, circuit: o.w.warmup}, false)
		if warm.err != nil {
			return nil, fmt.Errorf("warm-up job: %w", warm.err)
		}
		rr.setups = append(rr.setups, time.Since(t))
		rr.inputs = in
	}

	var peaks peakMeter
	cpu0, t0 := cpuTime(), time.Now()
	for _, j := range jobs {
		if err := peaks.start(); err != nil {
			return nil, err
		}
		keep := o.traced && j.round < replayRounds
		rr.outcomes = append(rr.outcomes, libraryJob(o.w, rr.inputs, j, keep))
		if err := peaks.stop(); err != nil {
			return nil, err
		}
	}
	rr.window, rr.cpu = time.Since(t0), cpuTime()-cpu0
	rr.peakMB = median(peaks.peaks)
	return rr, nil
}

func libraryJob(w workload, in map[string]bench.Circuit, j job, keep bool) *outcome {
	b := in[j.circuit]
	cfg := w.config(b, j.seed)
	cfg.Parallelism, cfg.Workers = 2, 2
	t := time.Now()
	res, err := blasys.ApproximateContext(context.Background(), b.Circ, b.Spec, cfg)
	o := &outcome{job: j, wall: time.Since(t), err: err}
	if err != nil {
		return o
	}
	if o.best, err = res.BestCircuit(); err != nil {
		o.err = err
		return o
	}
	if o.hash, err = blifHash(o.best); err != nil {
		o.err = err
		return o
	}
	if keep {
		o.res = res
	}
	return o
}
