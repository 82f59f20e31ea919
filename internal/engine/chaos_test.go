package engine

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/faults"
	"github.com/blasys-go/blasys/internal/store"
	"github.com/blasys-go/blasys/internal/telemetry"
)

// chaosRetry keeps fault-exhaustion paths fast: three attempts, ~1ms sleeps.
var chaosRetry = store.RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}

// runDurable runs req to completion on a fresh durable engine in dir and
// returns its result netlist bytes plus frontier points. tweak (optional)
// configures the store before the engine starts.
func runDurable(t *testing.T, dir string, req Request, tweak func(*store.Store)) ([]byte, []core.FrontierPoint) {
	t.Helper()
	st := openStore(t, dir)
	if tweak != nil {
		tweak(st)
	}
	e := New(Options{Workers: 1, Store: st})
	defer e.Close()
	j, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != StateDone {
		t.Fatalf("job: %s (%v)", j.State(), j.Err())
	}
	return blifBytes(t, j), j.Frontier().Points()
}

// TestFaultsArePassive pins the zero-overhead contract: attaching an EMPTY
// injector (armed framework, no rules) must not change a single result byte
// relative to the nil-injector production path.
func TestFaultsArePassive(t *testing.T) {
	req := adderRequest(t, 4, persistCfg())
	wantBLIF, wantPoints := runDurable(t, t.TempDir(), req, nil)
	gotBLIF, gotPoints := runDurable(t, t.TempDir(), req, func(st *store.Store) {
		st.SetFaults(faults.New(1)) // armed, empty
	})
	if !bytes.Equal(wantBLIF, gotBLIF) {
		t.Fatal("empty injector changed the result netlist")
	}
	if !reflect.DeepEqual(wantPoints, gotPoints) {
		t.Fatal("empty injector changed the frontier")
	}
}

// TestChaosFlakyJournal: a deterministic window of journal-append failures
// narrower than the retry budget is fully absorbed — the result is
// byte-identical to the fault-free run, the breaker never opens, and a
// restart serves the same bytes.
func TestChaosFlakyJournal(t *testing.T) {
	req := adderRequest(t, 4, persistCfg())
	wantBLIF, wantPoints := runDurable(t, t.TempDir(), req, nil)

	dir := t.TempDir()
	var st *store.Store
	gotBLIF, gotPoints := runDurable(t, dir, req, func(s *store.Store) {
		st = s
		s.SetRetryPolicy(chaosRetry)
		// Fire on append calls 5-6: attempt 1 and its first retry of one
		// logical append — the second retry (attempt 3) lands the record.
		s.SetFaults(faults.New(1).Add(
			faults.Rule{Op: faults.OpJournalAppend, After: 4, Times: 2, Err: faults.ErrInjectedIO}))
	})
	if !bytes.Equal(wantBLIF, gotBLIF) {
		t.Fatal("flaky journal changed the result netlist")
	}
	if !reflect.DeepEqual(wantPoints, gotPoints) {
		t.Fatal("flaky journal changed the frontier")
	}
	if err := st.Degraded(); err != nil {
		t.Fatalf("absorbed faults tripped the breaker: %v", err)
	}

	// The journal the flaky disk produced replays to the same bytes.
	e2 := New(Options{Workers: 1, Store: openStore(t, dir), Resume: true})
	defer e2.Close()
	jobs := e2.List(false)
	if len(jobs) != 1 || jobs[0].State != StateDone {
		t.Fatalf("restart replayed %+v", jobs)
	}
	j2, err := e2.Get(jobs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := blifBytes(t, j2); !bytes.Equal(wantBLIF, got) {
		t.Fatal("restart after flaky-journal run served different bytes")
	}
}

// TestChaosSlowDisk: latency-only rules on every write path delay but never
// fail — results stay byte-identical and no retry or breaker machinery
// engages.
func TestChaosSlowDisk(t *testing.T) {
	req := adderRequest(t, 4, persistCfg())
	wantBLIF, wantPoints := runDurable(t, t.TempDir(), req, nil)
	var st *store.Store
	gotBLIF, gotPoints := runDurable(t, t.TempDir(), req, func(s *store.Store) {
		st = s
		s.SetFaults(faults.New(1).Add(
			faults.Rule{Op: faults.OpJournalAppend, Latency: time.Millisecond},
			faults.Rule{Op: faults.OpCheckpointWrite, Latency: 2 * time.Millisecond},
			faults.Rule{Op: faults.OpCacheWrite, Latency: time.Millisecond}))
	})
	if !bytes.Equal(wantBLIF, gotBLIF) {
		t.Fatal("slow disk changed the result netlist")
	}
	if !reflect.DeepEqual(wantPoints, gotPoints) {
		t.Fatal("slow disk changed the frontier")
	}
	if err := st.Degraded(); err != nil {
		t.Fatalf("latency-only rules tripped the breaker: %v", err)
	}
}

// TestChaosENOSPCDegradedRecoveryReconciles is the full degraded-mode arc:
// checkpoint writes hit ENOSPC and trip the breaker, the job finishes
// memory-only with its result bytes unchanged, half-open probes fail while
// the disk is sick, and once the fault clears the breaker closes and
// reconciliation re-journals the terminal outcome — so a restart serves the
// job exactly as if the disk had never been full.
func TestChaosENOSPCDegradedRecoveryReconciles(t *testing.T) {
	req := adderRequest(t, 4, persistCfg())
	wantBLIF, wantPoints := runDurable(t, t.TempDir(), req, nil)

	dir := t.TempDir()
	st := openStore(t, dir)
	st.SetRetryPolicy(chaosRetry)
	st.SetProbeInterval(5 * time.Millisecond)
	inj := faults.New(1).Add(
		faults.Rule{Op: faults.OpCheckpointWrite, Err: faults.ErrNoSpace},
		faults.Rule{Op: faults.OpProbe, Err: faults.ErrNoSpace})
	st.SetFaults(inj)

	e := New(Options{Workers: 1, Store: st})
	j, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != StateDone {
		t.Fatalf("job under ENOSPC: %s (%v)", j.State(), j.Err())
	}
	if got := blifBytes(t, j); !bytes.Equal(wantBLIF, got) {
		t.Fatal("degraded run changed the result netlist")
	}
	if !reflect.DeepEqual(wantPoints, j.Frontier().Points()) {
		t.Fatal("degraded run changed the frontier")
	}
	// The first checkpoint exhausted its retries, so the engine must be
	// degraded by the time the job finished.
	if m := e.Metrics(); !m.Degraded {
		t.Fatalf("metrics = %+v, want degraded", m)
	}
	if err := st.Degraded(); !errors.Is(err, store.ErrDegraded) {
		t.Fatalf("store.Degraded() = %v", err)
	}

	// Disk heals: probes start succeeding, the breaker closes, and the
	// engine reconciles the terminal state it buffered in memory.
	inj.Clear()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		recs, err := st.Replay()
		if err == nil && len(recs) == 1 && recs[0].State == "done" && recs[0].Result != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := st.Degraded(); err != nil {
		t.Fatalf("breaker never closed after the fault cleared: %v", err)
	}
	if m := e.Metrics(); m.Degraded {
		t.Fatal("engine still reports degraded after recovery")
	}
	e.Close()

	// Restart invariant: the reconciled store serves the job byte-identically.
	e2 := New(Options{Workers: 1, Store: openStore(t, dir), Resume: true})
	defer e2.Close()
	if m := e2.Metrics(); m.JobsRestored != 1 || m.JobsResumed != 0 {
		t.Fatalf("restart metrics %+v, want 1 restored", m)
	}
	j2, err := e2.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j2.State() != StateDone {
		t.Fatalf("restored state = %s", j2.State())
	}
	if got := blifBytes(t, j2); !bytes.Equal(wantBLIF, got) {
		t.Fatal("reconciled store served different bytes after restart")
	}
	if !reflect.DeepEqual(wantPoints, j2.Frontier().Points()) {
		t.Fatal("reconciled store served a different frontier after restart")
	}
}

// TestChaosCrashWhileDegradedResumesByteIdentical: the disk dies mid-run
// (journal, checkpoint, and probe all failing), the process is killed while
// still degraded — before any half-open probe succeeds — and the restarted
// process resumes from the last pre-degradation checkpoint to a result
// byte-identical to the uninterrupted run.
func TestChaosCrashWhileDegradedResumesByteIdentical(t *testing.T) {
	req := adderRequest(t, 5, slowCfg())
	jRef, _ := runReference(t, t.TempDir(), req)
	wantBLIF := blifBytes(t, jRef)
	wantSteps := jRef.Result().Steps

	dir := t.TempDir()
	st := openStore(t, dir)
	st.SetRetryPolicy(chaosRetry)
	st.SetProbeInterval(5 * time.Millisecond)
	// The disk dies a fixed number of writes into the run: the request, the
	// state records, and the first few committed steps land, then every
	// append, checkpoint, and half-open probe fails until the "crash". The
	// After windows make the crash point deterministic — no mid-run racing.
	st.SetFaults(faults.New(1).Add(
		faults.Rule{Op: faults.OpJournalAppend, After: 12, Err: faults.ErrInjectedIO},
		faults.Rule{Op: faults.OpCheckpointWrite, After: 2, Err: faults.ErrNoSpace},
		faults.Rule{Op: faults.OpProbe, Err: faults.ErrInjectedIO}))
	e := New(Options{Workers: 1, Store: st})
	j, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// The job outlives the disk and finishes memory-only.
	waitDone(t, j)
	if j.State() != StateDone {
		t.Fatalf("job on dying disk: %s (%v)", j.State(), j.Err())
	}
	if !e.Metrics().Degraded {
		t.Fatal("engine never entered degraded mode after the disk died")
	}
	// "Crash": shut down while degraded (probes still failing). The journal
	// on disk ends at "running" with the last healthy checkpoint beside it.
	e.Close()
	// The first two checkpoint appends landed before the disk died.
	durable := j.durableBase().Step
	if durable != 2 {
		t.Fatalf("%d steps made durable before the disk died, want 2", durable)
	}
	if got := replayedStep(t, dir, j.ID); got != durable {
		t.Fatalf("replay folds the job to step %d, want the %d durable steps", got, durable)
	}

	// Restart on the healed disk: the job resumes from that checkpoint and
	// finishes byte-identical to the uninterrupted reference.
	restart := time.Now()
	e2 := New(Options{Workers: 1, Store: openStore(t, dir), Resume: true})
	defer e2.Close()
	if m := e2.Metrics(); m.JobsResumed != 1 {
		t.Fatalf("restart metrics %+v, want 1 resumed", m)
	}
	j2, err := e2.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if j2.State() != StateDone {
		t.Fatalf("resumed job: %s (%v)", j2.State(), j2.Err())
	}
	if !reflect.DeepEqual(wantSteps, j2.Result().Steps) {
		t.Fatal("resumed trajectory diverged from the uninterrupted run")
	}
	if got := blifBytes(t, j2); !bytes.Equal(wantBLIF, got) {
		t.Fatal("crash-while-degraded resume is not byte-identical")
	}
	if got := stepsRunSince(j2, restart); got != len(wantSteps)-durable {
		t.Fatalf("resumed run committed %d steps, want the remaining %d", got, len(wantSteps)-durable)
	}
}

// TestCheckpointEventsOnlyWhenDurable: a checkpoint event promises that the
// state through its step is on disk. On a healthy disk a 3-step job
// announces each step; when every checkpoint append fails, the job still
// finishes (memory-only, degraded) but announces none.
func TestCheckpointEventsOnlyWhenDurable(t *testing.T) {
	cfg := persistCfg()
	cfg.MaxSteps = 3
	for _, sick := range []bool{false, true} {
		st := openStore(t, t.TempDir())
		st.SetRetryPolicy(chaosRetry)
		st.SetProbeInterval(time.Hour) // stay degraded once tripped
		if sick {
			st.SetFaults(faults.New(1).Add(faults.Rule{Op: faults.OpCheckpointWrite, Err: faults.ErrNoSpace}))
		}
		e := New(Options{Workers: 1, Store: st})
		// Hold the only worker, so the subscription is in place before the
		// job under test commits its first step.
		blocker, err := e.Submit(adderRequest(t, 8, core.Config{Samples: 1 << 16, Seed: 1, ExploreFully: true}))
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for blocker.State() == StateQueued && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		j, err := e.Submit(adderRequest(t, 4, cfg))
		if err != nil {
			t.Fatal(err)
		}
		ch, unsub := j.Subscribe()
		if _, err := e.Cancel(blocker.ID); err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		var steps []int
		traces := 0
		for ev := range ch {
			switch ev.Type {
			case EventCheckpoint:
				steps = append(steps, ev.Step)
			case EventTrace:
				traces++
			}
		}
		unsub()
		if j.State() != StateDone || traces != 3 {
			t.Fatalf("sick=%t: job %s with %d trace events, want done with 3", sick, j.State(), traces)
		}
		want := []int{1, 2, 3}
		if sick {
			want = nil
			if !e.Metrics().Degraded {
				t.Fatal("every checkpoint append failed, yet the engine is not degraded")
			}
		}
		if !reflect.DeepEqual(steps, want) {
			t.Fatalf("sick=%t: checkpoint events for steps %v, want %v", sick, steps, want)
		}
		e.Close()
	}
}

// TestDeadlineTimeout: an expired run-time deadline finishes the job as
// StateTimeout — a partial answer, not a failure — preserving the
// best-so-far frontier, and a restart restores the same terminal state.
func TestDeadlineTimeout(t *testing.T) {
	dir := t.TempDir()
	e := New(Options{Workers: 1, Store: openStore(t, dir)})
	req := adderRequest(t, 12, core.Config{Samples: 1 << 18, Seed: 1, ExploreFully: true})
	req.Deadline = 60 * time.Millisecond
	j, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != StateTimeout {
		t.Fatalf("state = %s (%v), want timeout", j.State(), j.Err())
	}
	if err := j.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("terminal error = %v, want wrapped DeadlineExceeded", err)
	}
	if m := e.Metrics(); m.JobsTimeout != 1 || m.JobsFailed != 0 || m.JobsCancelled != 0 {
		t.Fatalf("metrics = %+v, want exactly one timeout", m)
	}
	hadCheckpoint := j.checkpoint() != nil
	if got, want := replayedStep(t, dir, j.ID), j.durableBase().Step; got != want {
		t.Fatalf("replay folds the timed-out job to step %d, want the %d durable steps", got, want)
	}
	var wantFront []core.FrontierPoint
	if hadCheckpoint {
		fr := j.Frontier()
		if fr == nil {
			t.Fatal("timed-out job with a checkpoint served no frontier")
		}
		wantFront = fr.Front()
	}
	e.Close()

	// The timeout is durable: restored (not resumed), with the best-so-far
	// frontier still served from the preserved checkpoint.
	e2 := New(Options{Workers: 1, Store: openStore(t, dir), Resume: true})
	defer e2.Close()
	if m := e2.Metrics(); m.JobsRestored != 1 || m.JobsResumed != 0 {
		t.Fatalf("restart metrics %+v, want 1 restored", m)
	}
	j2, err := e2.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j2.State() != StateTimeout {
		t.Fatalf("restored state = %s, want timeout", j2.State())
	}
	if hadCheckpoint {
		fr := j2.Frontier()
		if fr == nil {
			t.Fatal("restored timeout lost its best-so-far frontier")
		}
		if !reflect.DeepEqual(wantFront, fr.Front()) {
			t.Fatal("restored best-so-far frontier diverged")
		}
	}
}

// TestUserCancelWinsOverDeadline: an explicit cancel of a deadlined running
// job terminates as cancelled, never timeout — the user's signal wins.
func TestUserCancelWinsOverDeadline(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	req := adderRequest(t, 8, core.Config{Samples: 1 << 16, Seed: 1, ExploreFully: true})
	req.Deadline = time.Hour
	j, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for j.State() == StateQueued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := e.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if got := j.State(); got != StateCancelled && got != StateDone {
		t.Fatalf("state = %s, want cancelled (or done on a fast machine)", got)
	}
	if m := e.Metrics(); m.JobsTimeout != 0 {
		t.Fatalf("cancel recorded as timeout: %+v", m)
	}
}

// TestCancelDeadlineRaceIsConsistent: when cancellation and deadline expiry
// land together, the terminal state and the terminal error must agree —
// whichever state wins, it is never "failed" and never a mismatched pair.
func TestCancelDeadlineRaceIsConsistent(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	for i := 0; i < 4; i++ {
		req := adderRequest(t, 8, core.Config{Samples: 1 << 14, Seed: int64(i + 1), ExploreFully: true})
		req.Deadline = time.Millisecond
		j, err := e.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		e.Cancel(j.ID) // race the 1ms deadline
		waitDone(t, j)
		switch j.State() {
		case StateTimeout:
			if err := j.Err(); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("timeout with error %v", err)
			}
		case StateCancelled:
			if err := j.Err(); err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled with error %v", err)
			}
		case StateDone:
			// A fast machine may finish inside 1ms; fine.
		default:
			t.Fatalf("race produced state %s (%v)", j.State(), j.Err())
		}
	}
}

// TestDedupAttachesIdenticalSubmissions: with Options.Dedup, a
// content-identical submission returns the retained job instead of running
// twice; different content, and terminal-but-not-done jobs, get fresh runs.
func TestDedupAttachesIdenticalSubmissions(t *testing.T) {
	e := New(Options{Workers: 1, Dedup: true})
	defer e.Close()
	cfg := core.Config{K: 4, M: 3, Samples: 1 << 8, Seed: 1, ExploreFully: true, MaxSteps: 4}

	j1, err := e.Submit(adderRequest(t, 4, cfg))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	if j1.State() != StateDone {
		t.Fatalf("job: %s (%v)", j1.State(), j1.Err())
	}

	j2, deduped, err := e.SubmitAttach(adderRequest(t, 4, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !deduped || j2.ID != j1.ID {
		t.Fatalf("identical submission not attached: deduped=%v id=%s want %s", deduped, j2.ID, j1.ID)
	}
	if m := e.Metrics(); m.JobsDeduped != 1 {
		t.Fatalf("metrics deduped = %d, want 1", m.JobsDeduped)
	}

	// A different config is different content.
	other := cfg
	other.Seed = 2
	j3, deduped, err := e.SubmitAttach(adderRequest(t, 4, other))
	if err != nil {
		t.Fatal(err)
	}
	if deduped || j3.ID == j1.ID {
		t.Fatal("different content attached to an existing job")
	}
	waitDone(t, j3)

	// A cancelled job never satisfies a dedup hit: resubmission runs fresh.
	slow := adderRequest(t, 8, core.Config{Samples: 1 << 16, Seed: 9, ExploreFully: true})
	jc, err := e.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for jc.State() == StateQueued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := e.Cancel(jc.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, jc)
	if jc.State() == StateCancelled {
		jr, deduped, err := e.SubmitAttach(slow)
		if err != nil {
			t.Fatal(err)
		}
		if deduped || jr.ID == jc.ID {
			t.Fatal("cancelled job satisfied a dedup hit")
		}
		if _, err := e.Cancel(jr.ID); err != nil {
			t.Fatal(err)
		}
		waitDone(t, jr)
	}
}

// TestDedupAttachesToQueuedJob: dedup hits attach to queued (not yet run)
// executions too — two identical submissions share one queue slot.
func TestDedupAttachesToQueuedJob(t *testing.T) {
	e := New(Options{Workers: 1, Dedup: true})
	defer e.Close()
	blocker, err := e.Submit(adderRequest(t, 8, core.Config{Samples: 1 << 14, Seed: 1, ExploreFully: true}))
	if err != nil {
		t.Fatal(err)
	}
	quick := adderRequest(t, 4, core.Config{K: 4, M: 3, Samples: 1 << 6, Seed: 1, MaxSteps: 1})
	q1, err := e.Submit(quick)
	if err != nil {
		t.Fatal(err)
	}
	q2, deduped, err := e.SubmitAttach(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !deduped || q2.ID != q1.ID {
		t.Fatalf("queued dedup: deduped=%v id=%s want %s", deduped, q2.ID, q1.ID)
	}
	if _, err := e.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, blocker)
	waitDone(t, q1)
}

// TestLoadSheddingRejectsDoomedDeadlines: a deadlined submission whose
// estimated queue wait exceeds its deadline is rejected at admission with a
// retry hint instead of queueing to die.
func TestLoadSheddingRejectsDoomedDeadlines(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	if est := e.EstimateQueueWait(); est != 0 {
		t.Fatalf("idle estimate = %v, want 0", est)
	}
	// History says jobs take ~30s; occupy the single worker.
	e.met.runSeconds.Observe(30)
	blocker, err := e.Submit(adderRequest(t, 8, core.Config{Samples: 1 << 16, Seed: 1, ExploreFully: true}))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for blocker.State() == StateQueued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	doomed := adderRequest(t, 4, core.Config{K: 4, M: 3, Samples: 1 << 6, Seed: 1, MaxSteps: 1})
	doomed.Deadline = 50 * time.Millisecond
	_, _, err = e.SubmitAttach(doomed)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("doomed submission: err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter() <= 0 || oe.EstimatedWait <= oe.Deadline {
		t.Fatalf("OverloadError = %+v", oe)
	}
	if m := e.Metrics(); m.JobsShed != 1 {
		t.Fatalf("metrics shed = %d, want 1", m.JobsShed)
	}

	// A generous deadline (and no deadline at all) is admitted.
	patient := doomed
	patient.Deadline = time.Hour
	jp, _, err := e.SubmitAttach(patient)
	if err != nil {
		t.Fatalf("patient submission rejected: %v", err)
	}
	nodeadline := doomed
	nodeadline.Deadline = 0
	jn, _, err := e.SubmitAttach(nodeadline)
	if err != nil {
		t.Fatalf("deadline-free submission rejected: %v", err)
	}
	if _, err := e.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, blocker)
	waitDone(t, jp)
	waitDone(t, jn)
}

// TestDegradedEventsReachSubscribers: a live job's subscribers hear the
// degraded/recovered transitions in order, and the stream still ends with
// the terminal state.
func TestDegradedEventsReachSubscribers(t *testing.T) {
	st := openStore(t, t.TempDir())
	st.SetProbeInterval(5 * time.Millisecond)
	e := New(Options{Workers: 1, Store: st})
	defer e.Close()
	j, err := e.Submit(adderRequest(t, 8, core.Config{Samples: 1 << 16, Seed: 1, ExploreFully: true}))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for j.State() == StateQueued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ch, unsub := j.Subscribe()
	defer unsub()

	// Trip the breaker; the disk is actually healthy, so the next half-open
	// probe recovers immediately.
	st.TripForTest(errors.New("chaos drill"))
	sawDegraded, sawRecovered := false, false
	waitEvents := time.After(10 * time.Second)
	for !(sawDegraded && sawRecovered) {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatal("stream ended before degraded+recovered were seen")
			}
			switch ev.Type {
			case EventDegraded:
				if ev.Reason == "" {
					t.Fatal("degraded event missing its reason")
				}
				sawDegraded = true
			case EventRecovered:
				if !sawDegraded {
					t.Fatal("recovered before degraded")
				}
				sawRecovered = true
			}
		case <-waitEvents:
			t.Fatalf("degraded/recovered events never arrived (degraded=%v recovered=%v)",
				sawDegraded, sawRecovered)
		}
	}

	// Cancel and drain: the final event must be the terminal state.
	if _, err := e.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	var last Event
	drain := time.After(time.Minute)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				if last.Type != EventState || !last.State.Terminal() {
					t.Fatalf("stream ended on %+v, want terminal state event", last)
				}
				return
			}
			last = ev
		case <-drain:
			t.Fatal("stream never closed after cancel")
		}
	}
}

// TestRobustnessMetricsExposition drives each new robustness code path —
// an absorbed retry, a breaker trip and recovery, a dedup hit, and a
// deadline timeout — then validates the /metrics page and checks every new
// family is declared, with live samples for the counters we exercised.
func TestRobustnessMetricsExposition(t *testing.T) {
	st := openStore(t, t.TempDir())
	st.SetRetryPolicy(chaosRetry)
	st.SetProbeInterval(5 * time.Millisecond)
	e := New(Options{Workers: 1, Store: st, Dedup: true})
	defer e.Close()
	ts := httptest.NewServer(NewServer(e))
	defer ts.Close()

	// One transient journal fault, absorbed by the retry loop.
	st.SetFaults(faults.New(1).Add(
		faults.Rule{Op: faults.OpJournalAppend, Times: 1, Err: faults.ErrInjectedIO}))
	j, err := e.Submit(adderRequest(t, 4, persistCfg()))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != StateDone {
		t.Fatalf("job: %s (%v)", j.State(), j.Err())
	}

	// A dedup hit against the finished job.
	if _, deduped, err := e.SubmitAttach(adderRequest(t, 4, persistCfg())); err != nil || !deduped {
		t.Fatalf("dedup hit: deduped=%v err=%v", deduped, err)
	}

	// A deadline far shorter than the job it budgets.
	timed := adderRequest(t, 12, core.Config{Samples: 1 << 18, Seed: 1, ExploreFully: true})
	timed.Deadline = 60 * time.Millisecond
	jt, err := e.Submit(timed)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, jt)
	if jt.State() != StateTimeout {
		t.Fatalf("60ms deadline produced %s", jt.State())
	}

	// A breaker drill: trip on a healthy disk, let the probe recover it.
	// (Recovery is polled — the engine owns the OnStateChange callbacks.)
	st.TripForTest(errors.New("metrics drill"))
	drill := time.Now().Add(10 * time.Second)
	for (st.Degraded() != nil || e.Metrics().Degraded) && time.Now().Before(drill) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := st.Degraded(); err != nil {
		t.Fatalf("breaker never recovered from the drill: %v", err)
	}

	resp, body := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d %s", resp.StatusCode, body)
	}
	page := string(body)
	if err := telemetry.ValidateExposition(page); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, page)
	}

	// Every robustness family is declared even where its count is zero.
	for _, family := range []string{
		"blasys_jobs_timeout_total",
		"blasys_jobs_deduped_total",
		"blasys_jobs_shed_total",
		"blasys_engine_degraded",
		"blasys_store_breaker_state",
		"blasys_store_retries_total",
		"blasys_store_probes_total",
		"blasys_store_probe_seconds",
		"blasys_store_degraded_drops_total",
	} {
		if !strings.Contains(page, "# TYPE "+family+" ") {
			t.Fatalf("family %s not declared on /metrics:\n%s", family, page)
		}
	}
	// The paths we drove have live samples. Engine-registry counters are
	// per-engine so exact counts hold; the store registry is process-global
	// (other tests in the binary also drive it), so assert presence only.
	for _, sample := range []string{
		`blasys_jobs_timeout_total 1`,
		`blasys_jobs_deduped_total 1`,
		`blasys_engine_degraded 0`,
		`blasys_store_breaker_state 0`,
		`blasys_store_retries_total{op="journal_append"}`,
		`blasys_store_probes_total{outcome="recovered"}`,
	} {
		if !strings.Contains(page, sample) {
			t.Fatalf("sample %q missing from /metrics:\n%s", sample, page)
		}
	}
}
