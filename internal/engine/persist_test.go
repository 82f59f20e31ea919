package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/faults"
	"github.com/blasys-go/blasys/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// persistCfg is a small but multi-step exploration, fully deterministic.
func persistCfg() core.Config {
	return core.Config{K: 4, M: 3, Samples: 1 << 8, Seed: 11, ExploreFully: true, MaxSteps: 6}
}

// slowCfg is a longer walk for the interruption tests: the gap between the
// first checkpoint and completion must be wide enough to land a kill in.
func slowCfg() core.Config {
	return core.Config{K: 4, M: 3, Samples: 1 << 10, Seed: 11, ExploreFully: true, MaxSteps: 12}
}

// blifBytes fetches the job's restart-stable result netlist.
func blifBytes(t *testing.T, j *Job) []byte {
	t.Helper()
	text, err := j.ResultBLIF()
	if err != nil {
		t.Fatalf("ResultBLIF: %v", err)
	}
	return []byte(text)
}

// replayedStep replays the store in dir and returns the step count of the
// job's folded exploration state (0 without one).
func replayedStep(t *testing.T, dir, id string) int {
	t.Helper()
	recs, err := openStore(t, dir).Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	for _, rec := range recs {
		if rec.ID == id {
			return store.PositionOf(rec.Checkpoint).Step
		}
	}
	t.Fatalf("job %s not in the store", id)
	return 0
}

// stepsRunSince counts the exploration steps a job committed from t on: its
// "step" spans that started then or later. A resumed job's timeline also
// holds the spans imported from before the restart, which started earlier.
func stepsRunSince(j *Job, t time.Time) int {
	n := 0
	for _, r := range j.Timeline() {
		if r.Name == "step" && !r.Start.Before(t) {
			n++
		}
	}
	return n
}

func TestRestartServesCompletedJob(t *testing.T) {
	dir := t.TempDir()
	e1 := New(Options{Workers: 1, Store: openStore(t, dir)})
	j1, err := e1.Submit(adderRequest(t, 4, persistCfg()))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	if j1.State() != StateDone {
		t.Fatalf("job: %s (%v)", j1.State(), j1.Err())
	}
	wantBLIF := blifBytes(t, j1)
	wantStatus := j1.Snapshot(true)
	wantFront := j1.Frontier().Front()
	e1.Close()

	// A fresh engine over the same store — the restarted process — serves
	// the finished job immediately, without re-running anything.
	e2 := New(Options{Workers: 1, Store: openStore(t, dir), Resume: true})
	defer e2.Close()
	if m := e2.Metrics(); m.JobsRestored != 1 || m.JobsResumed != 0 {
		t.Fatalf("metrics after restart: %+v", m)
	}
	j2, err := e2.Get(j1.ID)
	if err != nil {
		t.Fatalf("restored job lost: %v", err)
	}
	if j2.State() != StateDone {
		t.Fatalf("restored state = %s", j2.State())
	}
	gotStatus := j2.Snapshot(true)
	if !reflect.DeepEqual(wantStatus.Result, gotStatus.Result) {
		t.Fatalf("restored summary diverged:\nwant %+v\ngot  %+v", wantStatus.Result, gotStatus.Result)
	}
	if !reflect.DeepEqual(wantStatus.Trace, gotStatus.Trace) {
		t.Fatalf("restored trace diverged (%d vs %d points)", len(wantStatus.Trace), len(gotStatus.Trace))
	}
	if got := blifBytes(t, j2); !bytes.Equal(wantBLIF, got) {
		t.Fatalf("restored netlist is not byte-identical:\nwant:\n%s\ngot:\n%s", wantBLIF, got)
	}
	if gotFront := j2.Frontier().Front(); !reflect.DeepEqual(wantFront, gotFront) {
		t.Fatalf("restored frontier diverged")
	}
}

// interruptMidRun submits a job to a durable engine and closes the engine as
// runReference runs req to completion on a durable engine and returns the
// job plus its journaled request record (the canonical form a restart
// materializes). The engine is closed before returning.
func runReference(t *testing.T, dir string, req Request) (*Job, *store.RequestRecord) {
	t.Helper()
	st := openStore(t, dir)
	e := New(Options{Workers: 1, Store: st})
	j, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != StateDone {
		t.Fatalf("reference job: %s (%v)", j.State(), j.Err())
	}
	e.Close()
	recs, err := st.Replay()
	if err != nil {
		t.Fatalf("replay reference store: %v", err)
	}
	for _, rec := range recs {
		if rec.ID == j.ID {
			return j, rec.Request
		}
	}
	t.Fatalf("reference job %s not in its own store", j.ID)
	return nil, nil
}

// interruptedStore fabricates a store holding what a process killed
// mid-exploration leaves when it keeps a whole-state snapshot instead of a
// step log: a journal ending at "running" (request, state transitions, the
// trace streamed so far) plus the snapshot of the walk through step k. The
// walk is re-derived deterministically at the core level from the journaled
// request record, so replay must start from the snapshot alone. (A live
// interruption of a step-log run is TestShutdownMidWalkResumesFromStepLog;
// the CI serve-smoke script kills a real blasys-serve process.)
func interruptedStore(t *testing.T, dir, id string, req *store.RequestRecord, k int) {
	t.Helper()
	circ, spec, cfg, err := req.Materialize()
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	var states []core.ExplorerState
	cfg.Checkpoint = func(st core.ExplorerState) { states = append(states, st) }
	if _, err := core.Approximate(circ, spec, cfg); err != nil {
		t.Fatalf("derive checkpoints: %v", err)
	}
	if k >= len(states) {
		t.Fatalf("walk has only %d checkpoints, wanted step %d", len(states), k)
	}
	st := openStore(t, dir)
	jnl, err := st.Journal(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Request(req); err != nil {
		t.Fatal(err)
	}
	if err := jnl.State("queued", ""); err != nil {
		t.Fatal(err)
	}
	if err := jnl.State("running", ""); err != nil {
		t.Fatal(err)
	}
	for _, p := range states[k].TracePoints() {
		if err := jnl.Trace(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.WriteCheckpoint(id, &states[k]); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestKillMidRunResumeIsByteIdenticalToUninterrupted(t *testing.T) {
	// Reference: the identical job, uninterrupted (its own store).
	jRef, reqRec := runReference(t, t.TempDir(), adderRequest(t, 5, slowCfg()))
	wantBLIF := blifBytes(t, jRef)
	wantSteps := jRef.Result().Steps
	wantPoints := jRef.Frontier().Points()

	// Interrupted run: the store holds the state a kill after step 2 leaves.
	dir := t.TempDir()
	interruptedStore(t, dir, "job-interrupted", reqRec, 2)
	const durable = 3
	if got := replayedStep(t, dir, "job-interrupted"); got != durable {
		t.Fatalf("replay folds the interrupted job to step %d, want %d", got, durable)
	}

	restart := time.Now()
	e2 := New(Options{Workers: 1, Store: openStore(t, dir), Resume: true})
	defer e2.Close()
	if m := e2.Metrics(); m.JobsResumed != 1 {
		t.Fatalf("interrupted job not resumed: metrics %+v", m)
	}
	j2, err := e2.Get("job-interrupted")
	if err != nil {
		t.Fatalf("interrupted job not requeued: %v", err)
	}
	waitDone(t, j2)
	if j2.State() != StateDone {
		t.Fatalf("resumed job: %s (%v)", j2.State(), j2.Err())
	}
	res := j2.Result()
	if res == nil {
		t.Fatal("resumed job has no live result")
	}
	if !reflect.DeepEqual(wantSteps, res.Steps) {
		t.Fatalf("resumed trajectory diverged from uninterrupted run:\nwant %+v\ngot  %+v", wantSteps, res.Steps)
	}
	if !reflect.DeepEqual(wantPoints, res.Frontier.Points()) {
		t.Fatalf("resumed frontier diverged from uninterrupted run")
	}
	if got := blifBytes(t, j2); !bytes.Equal(wantBLIF, got) {
		t.Fatalf("resumed netlist is not byte-identical to the uninterrupted run")
	}
	// The resumed trace must cover the whole walk, not only the tail.
	if st := j2.Snapshot(true); len(st.Trace) != len(res.Steps) {
		t.Fatalf("resumed trace has %d points for %d steps", len(st.Trace), len(res.Steps))
	}
	if got := stepsRunSince(j2, restart); got != len(res.Steps)-durable {
		t.Fatalf("resumed run committed %d steps, want the remaining %d", got, len(res.Steps)-durable)
	}
}

// TestShutdownMidWalkResumesFromStepLog interrupts a real run: the engine
// shuts down while the job's third checkpoint is being appended, which
// leaves the journal at "running" and the step log holding exactly the three
// steps whose appends landed. The restarted engine folds the log back into
// that state and commits only the remaining steps, to a result
// byte-identical to an uninterrupted run; the finished job keeps no step
// records.
func TestShutdownMidWalkResumesFromStepLog(t *testing.T) {
	req := adderRequest(t, 5, slowCfg())
	jRef, _ := runReference(t, t.TempDir(), req)
	wantBLIF := blifBytes(t, jRef)
	wantSteps := jRef.Result().Steps

	dir := t.TempDir()
	st := openStore(t, dir)
	// A slow disk holds the walk inside its third checkpoint append long
	// enough to shut the engine down there: the append still lands, and the
	// walk stops before its next step.
	const durable = 3
	inj := faults.New(1).Add(faults.Rule{
		Op: faults.OpCheckpointWrite, After: durable - 1, Times: 1, Latency: time.Second})
	st.SetFaults(inj)
	e := New(Options{Workers: 1, Store: st})
	j, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// The rule sees each append as it starts, so the third one is under way
	// once it has seen three.
	deadline := time.Now().Add(time.Minute)
	for inj.Snapshot()[0].Seen < durable && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	e.Close()
	if j.State() != StateCancelled {
		t.Fatalf("job after shutdown: %s (%v), want cancelled in memory", j.State(), j.Err())
	}
	if got := j.durableBase().Step; got != durable {
		t.Fatalf("%d steps made durable before the shutdown, want %d", got, durable)
	}
	recs, err := openStore(t, dir).Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].State != "running" {
		t.Fatalf("shutdown should leave the journal at running; replay = %+v", recs)
	}
	if got := replayedStep(t, dir, j.ID); got != durable {
		t.Fatalf("replay folds the step log to step %d, want %d", got, durable)
	}

	restart := time.Now()
	e2 := New(Options{Workers: 1, Store: openStore(t, dir), Resume: true})
	defer e2.Close()
	j2, err := e2.Get(j.ID)
	if err != nil {
		t.Fatalf("interrupted job not requeued: %v", err)
	}
	waitDone(t, j2)
	if j2.State() != StateDone {
		t.Fatalf("resumed job: %s (%v)", j2.State(), j2.Err())
	}
	if !reflect.DeepEqual(wantSteps, j2.Result().Steps) {
		t.Fatal("resumed trajectory diverged from the uninterrupted run")
	}
	if got := blifBytes(t, j2); !bytes.Equal(wantBLIF, got) {
		t.Fatal("resumed netlist is not byte-identical to the uninterrupted run")
	}
	if got := stepsRunSince(j2, restart); got != len(wantSteps)-durable {
		t.Fatalf("resumed run committed %d steps, want the remaining %d", got, len(wantSteps)-durable)
	}
	e2.Close() // the worker drops the step log after publishing the result
	if _, err := os.Stat(filepath.Join(dir, "jobs", j.ID+".steps")); !os.IsNotExist(err) {
		t.Fatalf("finished job kept its step log (stat err %v)", err)
	}
}

func TestRestartRunningJobWithoutCheckpointRestartsFromStepZero(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	// Hand-write the journal of a job that died mid-run before any
	// checkpoint: request + running, nothing else.
	req := adderRequest(t, 4, persistCfg())
	rr, err := store.NewRequestRecord(req.Circuit, req.Spec, req.Config, "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := st.Journal("job-nocp")
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Request(rr); err != nil {
		t.Fatal(err)
	}
	if err := jnl.State("running", ""); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	e := New(Options{Workers: 1, Store: st, Resume: true})
	defer e.Close()
	if m := e.Metrics(); m.JobsResumed != 1 {
		t.Fatalf("metrics = %+v, want one resumed job", m)
	}
	j, err := e.Get("job-nocp")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != StateDone {
		t.Fatalf("job: %s (%v)", j.State(), j.Err())
	}
	res := j.Result()
	if res == nil || len(res.Steps) == 0 {
		t.Fatal("restarted job produced no steps")
	}
	// From step 0: the trace covers every committed step.
	if snap := j.Snapshot(true); len(snap.Trace) != len(res.Steps) {
		t.Fatalf("trace %d points for %d steps", len(snap.Trace), len(res.Steps))
	}
}

func TestRestartSkipsCorruptJournalRecordsButServesJob(t *testing.T) {
	dir := t.TempDir()
	e1 := New(Options{Workers: 1, Store: openStore(t, dir)})
	j1, err := e1.Submit(adderRequest(t, 4, persistCfg()))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	wantBLIF := blifBytes(t, j1)
	e1.Close()

	// Corrupt the journal mid-file: inject garbage between valid records.
	path := filepath.Join(dir, "jobs", j1.ID+".journal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("journal unexpectedly short: %d lines", len(lines))
	}
	var corrupted bytes.Buffer
	corrupted.Write(lines[0])
	corrupted.WriteString("{\"type\":\"trace\",\"trace\":{truncated\n")
	for _, l := range lines[1:] {
		corrupted.Write(l)
	}
	if err := os.WriteFile(path, corrupted.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var warnings strings.Builder
	st2 := openStore(t, dir)
	st2.SetSlogger(slog.New(slog.NewTextHandler(&warnings, nil)))
	e2 := New(Options{Workers: 1, Store: st2, Resume: true})
	defer e2.Close()
	j2, err := e2.Get(j1.ID)
	if err != nil {
		t.Fatalf("job lost to one corrupt line: %v", err)
	}
	if j2.State() != StateDone {
		t.Fatalf("state = %s, want done", j2.State())
	}
	if got := blifBytes(t, j2); !bytes.Equal(wantBLIF, got) {
		t.Fatal("result netlist diverged after corrupt-line replay")
	}
	if !strings.Contains(warnings.String(), "skipping record") {
		t.Fatalf("corrupt line skipped without a warning; warnings = %q", warnings.String())
	}
}

func TestCancelDuringResume(t *testing.T) {
	_, reqRec := runReference(t, t.TempDir(), adderRequest(t, 5, slowCfg()))
	dir := t.TempDir()
	const id = "job-cancel-resume"
	interruptedStore(t, dir, id, reqRec, 1)
	if got := replayedStep(t, dir, id); got != 2 {
		t.Fatalf("replay folds the interrupted job to step %d, want 2", got)
	}

	// Restart and cancel the resumed job straight away — it is either still
	// queued or already running; both paths must journal a terminal
	// cancellation.
	e2 := New(Options{Workers: 1, Store: openStore(t, dir), Resume: true})
	if m := e2.Metrics(); m.JobsResumed != 1 {
		e2.Close()
		t.Fatalf("interrupted job not resumed: metrics %+v", m)
	}
	j2, err := e2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Cancel(id); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := j2.Wait(ctx); err != nil {
		t.Fatalf("cancelled job did not settle: %v", err)
	}
	if j2.State() != StateCancelled {
		t.Fatalf("state = %s, want cancelled", j2.State())
	}
	e2.Close()

	wantTrace := traceJSON(t, j2)

	// Third start: the cancellation is durable — the job is restored as
	// cancelled, not resumed again — and the exploration state it kept
	// serves the trace it served before the restart.
	e3 := New(Options{Workers: 1, Store: openStore(t, dir), Resume: true})
	defer e3.Close()
	if m := e3.Metrics(); m.JobsResumed != 0 || m.JobsRestored != 1 {
		t.Fatalf("metrics after third start: %+v", m)
	}
	j3, err := e3.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if j3.State() != StateCancelled {
		t.Fatalf("third-start state = %s, want cancelled", j3.State())
	}
	if got := traceJSON(t, j3); got != wantTrace {
		t.Fatalf("restored trace differs:\nwant %s\ngot  %s", wantTrace, got)
	}
}

// traceJSON renders the job's status trace as the status endpoint does.
func traceJSON(t *testing.T, j *Job) string {
	t.Helper()
	b, err := json.Marshal(j.Snapshot(true).Trace)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRejectedSubmissionLeavesNoStoreRecord(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	e := New(Options{Workers: 1, QueueSize: 1, Store: st})
	// Saturate the single worker and the 1-slot queue, then overflow.
	var jobs []*Job
	var rejected int
	for i := 0; i < 6; i++ {
		j, err := e.Submit(adderRequest(t, 4, persistCfg()))
		switch err {
		case nil:
			jobs = append(jobs, j)
		case ErrQueueFull:
			rejected++
		default:
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		waitDone(t, j)
	}
	e.Close()

	recs, err := st.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(jobs) {
		t.Fatalf("store replays %d jobs, want %d accepted (rejected %d must leave no record)",
			len(recs), len(jobs), rejected)
	}
	// Every accepted job's journal must have progressed past "queued": the
	// journal is opened before the job becomes runnable, so even
	// milliseconds-fast jobs record their run.
	for _, rec := range recs {
		if rec.State != "done" {
			t.Fatalf("job %s replays as %q, want done", rec.ID, rec.State)
		}
	}
}

func TestEvictionRemovesStoreRecords(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	e := New(Options{Workers: 1, RetainJobs: 2, Store: st})
	var ids []string
	for i := 0; i < 5; i++ {
		j, err := e.Submit(adderRequest(t, 4, persistCfg()))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		ids = append(ids, j.ID)
	}
	e.Close()

	// RetainJobs bounds the durable record too: a restart must not
	// resurrect evicted jobs.
	e2 := New(Options{Workers: 1, RetainJobs: 2, Store: openStore(t, dir), Resume: true})
	defer e2.Close()
	if m := e2.Metrics(); m.JobsRestored > 3 {
		t.Fatalf("restart restored %d jobs; eviction did not remove store records", m.JobsRestored)
	}
	for _, id := range ids[:2] {
		if _, err := e2.Get(id); err == nil {
			t.Fatalf("evicted job %s resurrected after restart", id)
		}
	}
	if _, err := e2.Get(ids[len(ids)-1]); err != nil {
		t.Fatalf("retained job lost: %v", err)
	}
}

func TestReplayedBacklogDoesNotRaiseQueueBound(t *testing.T) {
	_, reqRec := runReference(t, t.TempDir(), adderRequest(t, 5, slowCfg()))
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		interruptedStore(t, dir, fmt.Sprintf("job-backlog-%d", i), reqRec, 1)
	}

	// QueueSize 1, but three interrupted jobs re-enqueue into reserved
	// headroom. New submissions must still be bounded at QueueSize — the
	// headroom exists only to drain the recovered backlog, and must not
	// compound the admission bound across crash/restart cycles.
	e := New(Options{Workers: 1, QueueSize: 1, Store: openStore(t, dir), Resume: true})
	defer e.Close()
	if m := e.Metrics(); m.JobsResumed != 3 {
		t.Fatalf("metrics %+v, want 3 resumed", m)
	}
	if _, err := e.Submit(adderRequest(t, 4, persistCfg())); err != ErrQueueFull {
		t.Fatalf("Submit while the recovered backlog fills the queue: err=%v, want ErrQueueFull", err)
	}
}

func TestWarmDiskCacheAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	e1 := New(Options{Workers: 1, Store: openStore(t, dir)})
	j1, err := e1.Submit(adderRequest(t, 4, persistCfg()))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	misses1 := j1.Snapshot(false).CacheMisses
	e1.Close()

	// Same job on a restarted engine: every factorization should come out
	// of the disk cache.
	e2 := New(Options{Workers: 1, Store: openStore(t, dir), Resume: true})
	defer e2.Close()
	j2, err := e2.Submit(adderRequest(t, 4, persistCfg()))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	snap := j2.Snapshot(false)
	if misses1 == 0 {
		t.Skip("first run had no cache misses; nothing to measure")
	}
	if snap.CacheMisses != 0 {
		t.Fatalf("restarted run missed the disk cache %d times (first run: %d misses, warm hits %d)",
			snap.CacheMisses, misses1, snap.CacheHits)
	}
	if snap.CacheHits == 0 {
		t.Fatal("restarted run recorded no cache hits")
	}
}

// TestStepPathWritesOnlyTheStepLog: a committed step's one store write is
// its fsynced step-log append; the trace derives from the walk's record and
// the run's spans are journaled when it ends. So under a slow journal, jobs
// of one and of three steps make the same number of journal appends, and
// neither walk waits on one.
func TestStepPathWritesOnlyTheStepLog(t *testing.T) {
	const latency = 300 * time.Millisecond
	appends := make(map[int]int)
	for _, steps := range []int{1, 3} {
		st := openStore(t, t.TempDir())
		inj := faults.New(1).Add(faults.Rule{Op: faults.OpJournalAppend, Latency: latency})
		st.SetFaults(inj)
		e := New(Options{Workers: 1, Store: st})
		cfg := persistCfg()
		cfg.MaxSteps = steps
		j := submitOrFail(t, e, adderRequest(t, 4, cfg))
		waitDone(t, j)
		e.Close()
		if j.State() != StateDone || len(j.Result().Steps) != steps {
			t.Fatalf("job %s (%v), want done after %d steps", j.State(), j.Err(), steps)
		}
		appends[steps] = inj.Snapshot()[0].Seen
		explored := false
		for _, r := range j.Timeline() {
			if r.Name == "explore" {
				explored = true
				if r.Duration() >= latency {
					t.Errorf("%d-step walk took %v under a %v journal append", steps, r.Duration(), latency)
				}
			}
		}
		if !explored {
			t.Fatalf("%d-step job recorded no explore span", steps)
		}
	}
	if appends[1] != appends[3] {
		t.Fatalf("journal appends: %d for one step, %d for three; want the same", appends[1], appends[3])
	}
	t.Logf("%d journal appends per job", appends[1])
}

// TestRestartTraceIsByteIdentical: the status trace derives from the record
// of the walk — the result, or the exploration state a job kept — so a
// restart serves it byte for byte for a done, a failed, a cancelled and a
// timed-out job. A job a shutdown interrupted resumes with the trace it had,
// from a step-log store or from one written before the trace was derived,
// runs on to the uninterrupted walk's trace, and its timeline holds the
// spans of both runs.
func TestRestartTraceIsByteIdentical(t *testing.T) {
	long := core.Config{Samples: 1 << 16, Seed: 1, ExploreFully: true}
	ref, reqRec := runReference(t, t.TempDir(), adderRequest(t, 8, long))
	refTrace := traceJSON(t, ref)
	// slowSteps keeps a walk under way long enough to cancel it, time it
	// out or shut it down after a few steps.
	slowSteps := faults.Rule{Op: faults.OpCheckpointWrite, Latency: 150 * time.Millisecond}
	// start runs an engine over dir with the fault rules armed on its store.
	start := func(t *testing.T, dir string, rules ...faults.Rule) *Engine {
		st := openStore(t, dir)
		st.SetFaults(faults.New(1).Add(rules...))
		e := New(Options{Workers: 1, Store: st, Resume: true})
		t.Cleanup(e.Close)
		return e
	}
	// steps polls until the job's trace has n points.
	steps := func(t *testing.T, j *Job, n int) {
		deadline := time.Now().Add(time.Minute)
		for len(j.Snapshot(true).Trace) < n {
			if time.Now().After(deadline) {
				t.Fatalf("job %s committed fewer than %d steps", j.ID, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// restarted starts the next engine over dir and checks that it serves
	// the job's trace as before. A resumed job's first journal append, its
	// running record, is held up, so that it shows its trace as of the
	// restart.
	restarted := func(t *testing.T, dir, id, want string) (*Engine, *Job) {
		e := start(t, dir, faults.Rule{Op: faults.OpJournalAppend, Times: 1, Latency: 500 * time.Millisecond})
		j, err := e.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := traceJSON(t, j); got != want {
			t.Fatalf("trace after the restart:\n%s\nbefore:\n%s", got, want)
		}
		return e, j
	}
	terminal := []struct {
		name string
		want State
		run  func(t *testing.T, dir string) *Job // runs the job on an engine over dir
	}{
		{"done", StateDone, func(t *testing.T, dir string) *Job {
			return submitOrFail(t, start(t, dir), adderRequest(t, 8, long))
		}},
		{"failed mid-walk", StateFailed, func(t *testing.T, dir string) *Job {
			// The step log was written under another seed, so the resumed
			// run refuses it after two committed steps.
			circ, spec, cfg, err := reqRec.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			var states []core.ExplorerState
			cfg.Seed++
			cfg.Checkpoint = func(st core.ExplorerState) { states = append(states, st) }
			if _, err := core.Approximate(circ, spec, cfg); err != nil {
				t.Fatal(err)
			}
			st := openStore(t, dir)
			jnl, err := st.Journal("job-failed")
			if err != nil {
				t.Fatal(err)
			}
			for _, err := range []error{jnl.Request(reqRec), jnl.State("running", ""),
				jnl.Checkpoint(&states[1], store.Position{}), jnl.Close()} {
				if err != nil {
					t.Fatal(err)
				}
			}
			j, err := start(t, dir).Get("job-failed")
			if err != nil {
				t.Fatal(err)
			}
			return j
		}},
		{"user cancel", StateCancelled, func(t *testing.T, dir string) *Job {
			e := start(t, dir, slowSteps)
			j := submitOrFail(t, e, adderRequest(t, 8, long))
			steps(t, j, 1)
			if _, err := e.Cancel(j.ID); err != nil {
				t.Fatal(err)
			}
			return j
		}},
		{"timeout", StateTimeout, func(t *testing.T, dir string) *Job {
			req := adderRequest(t, 8, long)
			req.Deadline = time.Second // the walk's nine slowed steps take longer
			return submitOrFail(t, start(t, dir, slowSteps), req)
		}},
	}
	for _, row := range terminal {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			j := row.run(t, dir)
			waitDone(t, j)
			if j.State() != row.want {
				t.Fatalf("job %s (%v), want %s", j.State(), j.Err(), row.want)
			}
			before := traceJSON(t, j)
			if before == "null" {
				t.Fatal("the job committed no step")
			}
			restarted(t, dir, j.ID, before)
		})
	}

	t.Run("shutdown", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		e1 := start(t, dir, slowSteps)
		j1 := submitOrFail(t, e1, adderRequest(t, 8, long))
		steps(t, j1, 2)
		e1.Close()
		restart := time.Now()
		e2, j2 := restarted(t, dir, j1.ID, traceJSON(t, j1))
		waitDone(t, j2)
		if got := traceJSON(t, j2); j2.State() != StateDone || got != refTrace {
			t.Fatalf("resumed job %s with trace\n%s\nwant done with\n%s", j2.State(), got, refTrace)
		}
		runs := map[bool]int{}
		for _, r := range j2.Timeline() {
			if r.Name == "run" {
				runs[r.Start.Before(restart)]++
			}
		}
		if runs[true] != 1 || runs[false] != 1 {
			t.Fatalf("resumed job's timeline has %d run spans from before the restart and %d after, want 1 and 1",
				runs[true], runs[false])
		}
		e2.Close()
		restarted(t, dir, j1.ID, refTrace)
	})

	t.Run("store written before the trace was derived", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		interruptedStore(t, dir, "job-old", reqRec, 1)
		var prefix []core.TracePoint
		if err := json.Unmarshal([]byte(refTrace), &prefix); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(prefix[:2])
		if err != nil {
			t.Fatal(err)
		}
		_, j := restarted(t, dir, "job-old", string(b))
		waitDone(t, j)
		if got := traceJSON(t, j); got != refTrace {
			t.Fatalf("resumed trace\n%s\nwant\n%s", got, refTrace)
		}
	})
}
