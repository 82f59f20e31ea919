// Package sched provides the machine-wide goroutine budget shared by every
// parallel fan-out in the flow: block profiling and the explorer's per-step
// candidate sweep (internal/core), the BMF tau sweep (internal/bmf), the
// batches of each committed step (qor.IncrementalComparer.Commit), the SALSA
// baseline's candidate evaluation (internal/salsa), and any future
// data-parallel stage. Claim is the claim-and-spawn loop all but the
// tau sweep share. The flow's parallelism nests — engine workers run
// jobs whose profiling is parallel across blocks, each block factorization
// sweeps taus in parallel, and each exploration step sweeps candidates in
// parallel — so letting every layer size its own pool at GOMAXPROCS would
// oversubscribe the CPU multiplicatively. Instead, every layer asks this
// package for a token per *extra* goroutine and runs the work inline on the
// calling goroutine when none is available. The calling goroutine itself
// never needs a token (it is already running), so the steady state is at
// most GOMAXPROCS spawned goroutines machine-wide on top of the callers,
// and no fan-out ever blocks waiting for a token.
//
// Correctness never depends on a token being granted: a denied TryAcquire
// only serializes work that would otherwise run concurrently. Callers must
// therefore keep their sharding and reduction deterministic regardless of
// how many tokens they win (see core's candidate sweep and bmf.Factorize).
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/blasys-go/blasys/internal/telemetry"
)

// tokens is the machine-wide budget: one slot per logical CPU at init.
var tokens = make(chan struct{}, runtime.GOMAXPROCS(0))

// Telemetry: since TryAcquire never blocks, "token acquisition wait" shows
// up not as latency but as the grant/deny split — every deny is work that
// ran inline (serialized) instead of on an extra goroutine. The in-use
// gauge exposes instantaneous budget pressure.
var (
	mAcquired = telemetry.Default().Counter(
		"blasys_sched_tokens_acquired_total",
		"Goroutine tokens granted by the machine-wide budget.")
	mInline = telemetry.Default().Counter(
		"blasys_sched_inline_runs_total",
		"Token denials, i.e. fan-out work serialized onto the calling goroutine.")
	mInUse = telemetry.Default().Gauge(
		"blasys_sched_tokens_in_use",
		"Goroutine tokens currently held.")
)

// TryAcquire claims one goroutine token without blocking. It returns true
// when the caller may spawn one extra worker goroutine; the caller must
// Release the token when that goroutine finishes. On false the caller runs
// the work inline instead.
func TryAcquire() bool {
	select {
	case tokens <- struct{}{}:
		mAcquired.Inc()
		mInUse.Add(1)
		return true
	default:
		mInline.Inc()
		return false
	}
}

// Release returns a token claimed by TryAcquire.
func Release() {
	<-tokens
	mInUse.Add(-1)
}

// Claim calls do(worker, item) once for every item in [0, items) — unless a
// call returns false, which stops that worker — spread over at most workers
// workers, and returns when all of them have stopped. Each worker claims the
// next unclaimed item from a shared counter, so a worker that drew cheap
// items keeps claiming while another finishes an expensive one. Worker 0 is
// the calling goroutine; workers 1, 2, ... each run on a goroutine of their
// own while TryAcquire grants a token, and the first denial stops the
// spawning, so with no token free the caller does every item itself. Worker
// indices are dense from 0, which lets callers give each worker private
// state; which worker gets which item depends on the schedule, so callers
// write each item's result into a slot of its own.
func Claim(workers, items int, do func(worker, item int) bool) {
	if workers > items {
		workers = items
	}
	if workers <= 0 {
		return
	}
	var next atomic.Int64
	run := func(w int) {
		for {
			i := int(next.Add(1) - 1)
			if i >= items || !do(w, i) {
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers && TryAcquire(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer Release()
			run(w)
		}(w)
	}
	run(0)
	wg.Wait()
}

// Budget reports the total token count (the machine-wide cap on extra
// worker goroutines).
func Budget() int { return cap(tokens) }

// Pressure reports the fraction of the machine-wide goroutine budget
// currently in use, in [0, 1]. Admission control reads it as a slowdown
// signal: near 1, running jobs are executing below their configured
// parallelism (their fan-outs are being serialized inline), so queue-drain
// estimates based on historical run times are optimistic.
func Pressure() float64 {
	if cap(tokens) == 0 {
		return 0
	}
	return float64(len(tokens)) / float64(cap(tokens))
}
