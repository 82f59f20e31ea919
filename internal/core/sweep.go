package core

import (
	"context"
	"time"

	"github.com/blasys-go/blasys/internal/qor"
	"github.com/blasys-go/blasys/internal/sched"
)

// candidateShard is a worker-private handle for evaluating sweep
// candidates. Distinct shards may evaluate concurrently; one shard is used by
// one worker at a time, and never concurrently with commit.
type candidateShard interface {
	// evaluate reports the whole-circuit QoR of setting block bi to degree
	// on top of the committed state in degrees.
	evaluate(degrees []int, bi, degree int) (qor.Report, error)
}

// sweepResult is one candidate's outcome from a sharded sweep. Slots a
// cancellation left unevaluated are zero; callers detect that case through
// ctx.Err() immediately after runSweep, before reading any result.
type sweepResult struct {
	bi     int
	report qor.Report
	err    error
}

// runSweep evaluates one candidate per entry of bis — block bis[i] at its
// next-lower degree, degrees[bis[i]]-1, as Algorithm 1 tries it — across the
// given shards, and returns the results in bis order. Worker w evaluates on
// shards[w] and claims candidates through sched.Claim, so a worker that drew
// cheap cones keeps claiming while another finishes an expensive one; each
// result lands in its own slot, so the output is identical for every worker
// count and every claim order — only the schedule changes. Extra workers run
// on goroutine tokens from the machine-wide sched budget (shared with the BMF
// tau sweep and with Commit); the caller is always a worker, so when no token
// is free the sweep runs serially on it, never blocking on the budget or
// oversubscribing the CPU.
func runSweep(ctx context.Context, shards []candidateShard, degrees []int, bis []int) []sweepResult {
	sweepStart := time.Now()
	defer func() {
		mSweepSeconds.Observe(time.Since(sweepStart).Seconds())
		mSweepCandidates.Observe(float64(len(bis)))
	}()
	results := make([]sweepResult, len(bis))
	sched.Claim(len(shards), len(bis), func(w, i int) bool {
		if ctx.Err() != nil {
			return false
		}
		bi := bis[i]
		evalStart := time.Now()
		rep, err := shards[w].evaluate(degrees, bi, degrees[bi]-1)
		mCandidateEval.Observe(time.Since(evalStart).Seconds())
		results[i] = sweepResult{bi: bi, report: rep, err: err}
		return true
	})
	return results
}
