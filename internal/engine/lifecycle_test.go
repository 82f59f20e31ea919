package engine

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/faults"
	"github.com/blasys-go/blasys/internal/qor"
	"github.com/blasys-go/blasys/internal/store"
)

// quietReplay folds the store in dir through a second, independent store —
// what a restarted process would see — with its replay warnings discarded
// (a record being appended while the replay reads it shows as a torn line).
func quietReplay(t testing.TB, dir string) map[string]*store.JobRecord {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer st.Close()
	st.SetSlogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	recs, err := st.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	out := make(map[string]*store.JobRecord, len(recs))
	for _, rec := range recs {
		out[rec.ID] = rec
	}
	return out
}

// waitRunning polls until a worker has picked the job up.
func waitRunning(t *testing.T, j *Job) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for j.State() == StateQueued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if j.State() == StateQueued {
		t.Fatalf("job %s never left the queue", j.ID)
	}
}

// TestTerminalRecordDurableBeforeWait: whichever way a job ends, a client
// that is told so — by Job.Wait returning or by the terminal SSE event — can
// rely on a restart telling the same story. A slow disk (every journal
// append takes 300 ms) stretches the window between the terminal record
// being issued and landing, so any surface released before the record would
// show up as a replay that still reads queued or running.
func TestTerminalRecordDurableBeforeWait(t *testing.T) {
	slow := faults.Rule{Op: faults.OpJournalAppend, Latency: 300 * time.Millisecond}
	long := core.Config{Samples: 1 << 16, Seed: 1, ExploreFully: true}
	rows := []struct {
		name string
		want State
		// start submits the job under test (arming the slow disk when the
		// window it stretches is about to open) and sets it on its way to
		// the terminal state; finish, when set, runs once it is there.
		start func(t *testing.T, e *Engine, inj *faults.Injector) (j *Job, finish func())
	}{
		{"done", StateDone, func(t *testing.T, e *Engine, inj *faults.Injector) (*Job, func()) {
			inj.Add(slow)
			cfg := persistCfg()
			cfg.MaxSteps = 1
			return submitOrFail(t, e, adderRequest(t, 4, cfg)), nil
		}},
		{"failed", StateFailed, func(t *testing.T, e *Engine, inj *faults.Injector) (*Job, func()) {
			inj.Add(slow)
			req := adderRequest(t, 4, persistCfg())
			req.Spec = qor.Unsigned("s", 9) // past the adder's five outputs
			return submitOrFail(t, e, req), nil
		}},
		{"user cancel", StateCancelled, func(t *testing.T, e *Engine, inj *faults.Injector) (*Job, func()) {
			j := submitOrFail(t, e, adderRequest(t, 8, long))
			waitRunning(t, j)
			inj.Add(slow)
			if _, err := e.Cancel(j.ID); err != nil {
				t.Fatal(err)
			}
			return j, nil
		}},
		{"queued cancel", StateCancelled, func(t *testing.T, e *Engine, inj *faults.Injector) (*Job, func()) {
			blocker := submitOrFail(t, e, adderRequest(t, 8, long))
			waitRunning(t, blocker)
			j := submitOrFail(t, e, adderRequest(t, 4, persistCfg()))
			inj.Add(slow)
			go e.Cancel(j.ID)
			return j, func() { e.Cancel(blocker.ID) }
		}},
		{"timeout", StateTimeout, func(t *testing.T, e *Engine, inj *faults.Injector) (*Job, func()) {
			req := adderRequest(t, 8, long)
			req.Deadline = 400 * time.Millisecond
			j := submitOrFail(t, e, req)
			waitRunning(t, j)
			inj.Add(slow)
			return j, nil
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			st := openStore(t, dir)
			inj := faults.New(1)
			st.SetFaults(inj)
			e := New(Options{Workers: 1, Store: st})
			defer e.Close()
			j, finish := row.start(t, e, inj)
			ch, unsub := j.Subscribe()
			defer unsub()
			var last Event
			for ev := range ch {
				last = ev
			}
			if last.Type != EventState || last.State != row.want {
				t.Fatalf("stream ended on %+v, want state %s", last, row.want)
			}
			if got := quietReplay(t, dir)[j.ID]; got == nil || got.State != string(row.want) {
				t.Fatalf("after the terminal event the store replays %v, want %s", stateOf(got), row.want)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := j.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			if got := quietReplay(t, dir)[j.ID]; got == nil || got.State != string(row.want) {
				t.Fatalf("after Wait the store replays %v, want %s", stateOf(got), row.want)
			}
			if j.State() != row.want {
				t.Fatalf("state = %s, want %s", j.State(), row.want)
			}
			if finish != nil {
				finish()
			}
		})
	}
}

func submitOrFail(t *testing.T, e *Engine, req Request) *Job {
	t.Helper()
	j, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// stateOf renders a replayed record's state for failure messages.
func stateOf(rec *store.JobRecord) string {
	if rec == nil {
		return "no record"
	}
	return rec.State
}

var lifecycleSeeds = flag.Int("lifecycle.seeds", 3, "event sequences TestLifecycleInterleavings runs, one per seed")

// TestLifecycleInterleavings is a deterministic experiment on the job
// lifecycle: each seed draws a sequence of 30 events — submissions (some in
// bursts, some deadlined, some failing), cancels, waits, pauses, a slow or
// failing disk, recoveries, outages under load, and restarts — and runs it
// against a real store behind a fault injector, with one or two workers
// running small adder jobs. The events are seeded; how they interleave with
// the workers is not, which is the point. After every event, and whenever a
// job announces a terminal state, it checks the lifecycle invariants:
//
//   - conservation: every accepted job is listed exactly once, as queued,
//     running or terminal, and the Metrics counters agree with the states
//     this process produced;
//   - durable before visible: once a job reports a state — through Wait,
//     its terminal event, Cancel's answer, or its listed status — a replay
//     of the store shows that state or a later one, unless the job is
//     marked dirty; every announced checkpoint replays at its step or later;
//   - no shed while idle: right after the only live job is released to its
//     waiters, or the last one is cancelled in the queue, no job counts as
//     running or queued and a 1 ms deadline is admitted;
//   - recovery: once the store recovers no job stays dirty, and a restart
//     serves each done job's result.blif byte for byte.
func TestLifecycleInterleavings(t *testing.T) {
	for seed := int64(1); seed <= int64(*lifecycleSeeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			h := newLifecycleHarness(t, seed)
			defer h.finish()
			var events []string
			for i := 0; i < 30; i++ {
				ev := h.draw()
				events = append(events, ev)
				h.step = fmt.Sprintf("event %d (%s)", i, ev)
				h.do(ev)
				h.check()
			}
			states := map[State]int{}
			for _, j := range h.jobs {
				states[j.State()]++
			}
			t.Logf("workers %d, events %v, last incarnation's jobs %v", h.workers, events, states)
		})
	}
}

// lifecycleHarness drives one seed's event sequence.
type lifecycleHarness struct {
	t *testing.T
	// rng draws the events and their parameters, the same for every run of
	// a seed; pick chooses among the jobs that happen to be live.
	rng, pick *rand.Rand
	dir       string
	workers   int
	quiet     *slog.Logger
	step      string // the event under way, for failure messages

	// The engine incarnation under test and the store it runs on.
	st  *store.Store
	inj *faults.Injector
	e   *Engine
	// slow is the latency of every journal append while the disk is slow.
	slow time.Duration
	// jobs are the incarnation's accepted jobs (the replayed ones first),
	// restored the replayed terminal ones, which it made no transition for.
	jobs     []*Job
	restored map[*Job]bool
	shed     int

	mu          sync.Mutex
	cancelAsked map[*Job]bool  // jobs the harness called Cancel for
	announced   map[string]int // highest checkpoint step announced per job ID
	settled     map[string]bool
	watchers    sync.WaitGroup
	scratch     string // where replayOf builds its directories
}

func newLifecycleHarness(t *testing.T, seed int64) *lifecycleHarness {
	h := &lifecycleHarness{
		t:           t,
		rng:         rand.New(rand.NewSource(seed)),
		pick:        rand.New(rand.NewSource(-seed)),
		dir:         t.TempDir(),
		quiet:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		cancelAsked: make(map[*Job]bool),
		announced:   make(map[string]int),
		settled:     make(map[string]bool),
		scratch:     t.TempDir(),
	}
	h.workers = 1 + h.rng.Intn(2)
	h.step = "start"
	h.start()
	return h
}

// start opens the store and an engine resuming whatever it holds.
func (h *lifecycleHarness) start() {
	st, err := store.Open(h.dir)
	if err != nil {
		h.t.Fatal(err)
	}
	st.SetSlogger(h.quiet)
	st.SetRetryPolicy(chaosRetry)
	st.SetProbeInterval(5 * time.Millisecond)
	h.inj, h.slow = faults.New(h.rng.Int63()), 0
	st.SetFaults(h.inj)
	h.st = st
	replayed := quietReplay(h.t, h.dir)
	h.e = New(Options{Workers: h.workers, Store: st, Resume: true, Logger: h.quiet})
	var jobs []*Job
	restored := make(map[*Job]bool)
	for _, s := range h.e.List(false) {
		j, err := h.e.Get(s.ID)
		if err != nil {
			h.t.Fatal(err)
		}
		jobs = append(jobs, j)
		if replayed[j.ID].Terminal() {
			restored[j] = true
		}
	}
	h.mu.Lock()
	h.jobs, h.restored, h.shed = nil, restored, 0
	h.mu.Unlock()
	for _, j := range jobs {
		h.accept(j)
	}
}

// stop closes the engine and then its store, once every watcher is done.
func (h *lifecycleHarness) stop() {
	h.e.Close()
	h.watchers.Wait()
	h.check()
	h.st.Close()
}

func (h *lifecycleHarness) finish() {
	h.step = "finish"
	h.stop()
}

const (
	evSubmit  = "submit"
	evCancel  = "cancel"
	evFault   = "fault"
	evRecover = "recover"
	evOutage  = "outage"
	evRestart = "restart"
	evWait    = "wait"
	evIdle    = "idle"
	evPause   = "pause"
)

// eventWeights is the event mix each seed draws from.
var eventWeights = []struct {
	name   string
	weight int
}{
	{evSubmit, 7}, {evCancel, 2}, {evFault, 2}, {evRecover, 2}, {evOutage, 2},
	{evRestart, 1}, {evWait, 2}, {evIdle, 2}, {evPause, 3},
}

func (h *lifecycleHarness) draw() string {
	total := 0
	for _, w := range eventWeights {
		total += w.weight
	}
	n := h.rng.Intn(total)
	for _, w := range eventWeights {
		if n < w.weight {
			return w.name
		}
		n -= w.weight
	}
	panic("unreachable")
}

func (h *lifecycleHarness) do(ev string) {
	switch ev {
	case evSubmit:
		// One job, or now and then a burst that builds a queue.
		n := 1
		if h.rng.Intn(3) == 0 {
			n = 3 + h.rng.Intn(3)
		}
		for ; n > 0; n-- {
			h.submit(h.request())
		}
	case evCancel:
		if j := h.pickLive(); j != nil {
			h.cancel(j)
		}
	case evFault:
		h.arm()
	case evRecover:
		h.recover()
	case evOutage:
		// The disk fails under a burst of submissions, which queue up
		// unjournaled; a job that was live before finishes memory-only; then
		// the disk heals while the workers take the queue on.
		before := h.pickLive()
		h.inj.Add(faults.Rule{Op: faults.OpJournalAppend, Err: faults.ErrNoSpace},
			faults.Rule{Op: faults.OpProbe, Err: faults.ErrNoSpace})
		for n := 3 + h.rng.Intn(3); n > 0; n-- {
			h.submit(h.request())
		}
		if before != nil {
			h.wait(before)
			h.check()
		}
		h.recover()
	case evRestart:
		h.restart()
	case evWait:
		if j := h.pickLive(); j != nil {
			h.wait(j)
			h.checkTerminal(j, j.State(), "Wait")
		}
	case evIdle:
		h.idle()
	case evPause:
		time.Sleep(time.Duration(1+h.rng.Intn(15)) * time.Millisecond)
	}
}

// request draws a small adder job: a short walk, a longer one, a longer one
// under a deadline it may miss, or one whose output spec names outputs the
// circuit does not have, which fails at run time.
func (h *lifecycleHarness) request() Request {
	seed := h.rng.Int63n(1000)
	switch h.rng.Intn(6) {
	case 0, 1:
		cfg := persistCfg()
		cfg.Seed = seed
		return adderRequest(h.t, 4, cfg)
	case 2, 3:
		cfg := slowCfg()
		cfg.Seed = seed
		return adderRequest(h.t, 5, cfg)
	case 4:
		cfg := slowCfg()
		cfg.Seed = seed
		req := adderRequest(h.t, 5, cfg)
		req.Deadline = time.Duration(2+h.rng.Intn(40)) * time.Millisecond
		return req
	default:
		req := adderRequest(h.t, 4, persistCfg())
		req.Spec = qor.Unsigned("s", 9)
		return req
	}
}

func (h *lifecycleHarness) submit(req Request) *Job {
	j, err := h.e.Submit(req)
	switch {
	case err == nil:
		h.accept(j)
		return j
	case errors.Is(err, ErrOverloaded) && req.Deadline > 0:
		h.shed++
	case !errors.Is(err, ErrQueueFull):
		h.t.Fatalf("%s: submit: %v", h.step, err)
	}
	return nil
}

// accept tracks a job of this incarnation and watches its event stream.
func (h *lifecycleHarness) accept(j *Job) {
	h.jobs = append(h.jobs, j)
	ch, _ := j.Subscribe()
	step := h.step
	h.watchers.Add(1)
	go func() {
		defer h.watchers.Done()
		var last Event
		for ev := range ch {
			if ev.Type == EventCheckpoint {
				h.mu.Lock()
				if ev.Step > h.announced[j.ID] {
					h.announced[j.ID] = ev.Step
				}
				h.mu.Unlock()
			}
			last = ev
		}
		if last.Type != EventState || !last.State.Terminal() {
			h.t.Errorf("job %s (accepted at %s): stream ended on %+v, want a terminal state", j.ID, step, last)
			return
		}
		h.checkTerminal(j, last.State, "terminal event")
	}()
}

func (h *lifecycleHarness) pickLive() *Job {
	var live []*Job
	for _, j := range h.jobs {
		if !j.State().Terminal() {
			live = append(live, j)
		}
	}
	if len(live) == 0 {
		return nil
	}
	return live[h.pick.Intn(len(live))]
}

func (h *lifecycleHarness) wait(j *Job) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		h.t.Fatalf("%s: job %s never finished", h.step, j.ID)
	}
}

func (h *lifecycleHarness) cancel(j *Job) {
	h.mu.Lock()
	h.cancelAsked[j] = true
	h.mu.Unlock()
	got, err := h.e.Cancel(j.ID)
	if err != nil {
		h.t.Fatalf("%s: cancel: %v", h.step, err)
	}
	if got == StateCancelled {
		h.checkTerminal(j, got, "Cancel's answer")
		if h.pickLive() == nil {
			h.admitsShortDeadline("a queued job was cancelled")
		}
	}
}

// arm makes the disk slow, failing past the retry budget so that the
// breaker trips, or both. A failing disk fails for a burst of writes, after
// which the next probe recovers the store while jobs run on, or until the
// next recover event — then, half the time, with a failing probe too.
func (h *lifecycleHarness) arm() {
	errs := []error{faults.ErrInjectedIO, faults.ErrNoSpace}
	ops := []faults.Op{faults.OpJournalAppend, faults.OpCheckpointWrite}
	if h.slow == 0 && h.rng.Intn(2) == 0 {
		h.slow = time.Duration(1+h.rng.Intn(8)) * time.Millisecond
		h.slowDisk()
	}
	switch h.rng.Intn(4) {
	case 0:
	case 1:
		h.inj.Add(faults.Rule{Op: ops[h.rng.Intn(2)], Err: errs[h.rng.Intn(2)],
			Times: chaosRetry.Attempts * (1 + h.rng.Intn(3))})
	default:
		h.inj.Add(faults.Rule{Op: ops[h.rng.Intn(2)], Err: errs[h.rng.Intn(2)]})
		if h.rng.Intn(2) == 0 {
			h.inj.Add(faults.Rule{Op: faults.OpProbe, Err: faults.ErrInjectedIO})
		}
	}
}

// slowDisk delays every journal append by h.slow.
func (h *lifecycleHarness) slowDisk() {
	if h.slow > 0 {
		h.inj.Add(faults.Rule{Op: faults.OpJournalAppend, Latency: h.slow})
	}
}

// recover clears the failing rules and waits until the breaker has closed
// and the engine has reconciled every dirty job. A slow disk stays slow,
// which stretches reconciliation across the transitions of running jobs.
func (h *lifecycleHarness) recover() {
	h.inj.Clear()
	h.slowDisk()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var dirty []string
		for _, j := range h.jobs {
			if j.dirty() {
				dirty = append(dirty, j.ID)
			}
		}
		if len(dirty) == 0 && h.st.Degraded() == nil && !h.e.Metrics().Degraded {
			return
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("%s: no recovery: store degraded %v, engine degraded %t, dirty jobs %v",
				h.step, h.st.Degraded(), h.e.Metrics().Degraded, dirty)
		}
		time.Sleep(time.Millisecond)
	}
}

// restart closes the engine and its store, then starts a new engine on the
// reopened store with Resume, as a restarted process would.
func (h *lifecycleHarness) restart() {
	h.stop()
	type before struct {
		state    State
		shutdown bool
		blif     []byte
	}
	was := make(map[string]before)
	for _, j := range h.jobs {
		if j.dirty() {
			continue // its records may be missing or behind
		}
		b := before{state: j.State(), shutdown: h.shutDown(j, j.State())}
		if b.state == StateDone {
			b.blif = blifBytes(h.t, j)
		}
		was[j.ID] = b
	}
	h.start()
	got := make(map[string]*Job)
	for _, j := range h.jobs {
		got[j.ID] = j
	}
	for id, b := range was {
		j := got[id]
		switch {
		case j == nil:
			h.t.Errorf("%s: job %s (%s before the restart) is gone", h.step, id, b.state)
		case b.shutdown:
			if h.restored[j] {
				h.t.Errorf("%s: job %s shut down mid-run was restored as %s, not resumed", h.step, id, j.State())
			}
		case j.State() != b.state:
			h.t.Errorf("%s: job %s restored as %s, was %s", h.step, id, j.State(), b.state)
		case b.state == StateDone:
			if got := blifBytes(h.t, j); !bytes.Equal(got, b.blif) {
				h.t.Errorf("%s: restored job %s serves different result.blif bytes", h.step, id)
			}
		}
	}
}

// idle waits for every live job but the last, then has many clients wait
// on that one: releasing them all keeps the worker busy for a while, and
// the first clients released must already see no job running. Then a 1 ms
// deadline must be admitted.
func (h *lifecycleHarness) idle() {
	var last *Job
	for _, j := range h.jobs {
		if j.State().Terminal() {
			continue
		}
		if last != nil {
			h.wait(last)
		}
		last = j
	}
	if last != nil {
		var clients sync.WaitGroup
		var sawRunning atomic.Int64
		for i := 0; i < 256; i++ {
			clients.Add(1)
			go func() {
				defer clients.Done()
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				if last.Wait(ctx) == nil {
					if n := h.e.Metrics().JobsRunning; n != 0 {
						sawRunning.Store(n)
					}
				}
			}()
		}
		clients.Wait()
		if n := sawRunning.Load(); n != 0 {
			h.t.Errorf("%s: a client released from job %s saw %d jobs running", h.step, last.ID, n)
		}
	}
	h.admitsShortDeadline("the last live job finished")
}

// admitsShortDeadline submits a 1 ms deadline to an engine with no live job,
// which must admit it: no worker is busy and no job waits for one.
func (h *lifecycleHarness) admitsShortDeadline(why string) {
	req := adderRequest(h.t, 4, core.Config{K: 4, M: 3, Samples: 1 << 6, Seed: 1, MaxSteps: 1})
	req.Deadline = time.Millisecond
	if h.submit(req) == nil {
		h.t.Errorf("%s: %s, yet the idle engine refused a 1 ms deadline (estimated wait %v)",
			h.step, why, h.e.EstimateQueueWait())
	}
}

// shutDown reports whether a job that reports st was cancelled by an engine
// shutdown, which the journal does not record: it keeps saying running.
func (h *lifecycleHarness) shutDown(j *Job, st State) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return st == StateCancelled && !h.cancelAsked[j] && !h.restored[j]
}

// lifecycleRank orders states along the lifecycle.
func lifecycleRank(s State) int {
	switch {
	case s == StateQueued:
		return 0
	case s == StateRunning:
		return 1
	case s.Terminal():
		return 2
	}
	return -1
}

// durableAtLeast checks that rec, replayed after j reported st, shows st or
// a later state — st itself once st is terminal. A shutdown shows running.
func (h *lifecycleHarness) durableAtLeast(j *Job, st State, rec *store.JobRecord, via string) {
	want := st
	if h.shutDown(j, st) {
		want = StateRunning
	}
	switch {
	case rec == nil:
		h.t.Errorf("%s: job %s reported %s through %s, but the store has no record of it", h.step, j.ID, st, via)
	case lifecycleRank(State(rec.State)) < lifecycleRank(want),
		want.Terminal() && State(rec.State) != want:
		h.t.Errorf("%s: job %s reported %s through %s, but the store replays %s", h.step, j.ID, st, via, rec.State)
	case want.Terminal():
		// A clean terminal job is never written again: nothing about it
		// is left to check.
		h.mu.Lock()
		h.settled[j.ID] = true
		h.mu.Unlock()
	}
}

// replayOf folds the records of the jobs ids through an independent store,
// as a restarted process would. Their files are linked into a scratch
// directory first, so that the replay reads only them.
func (h *lifecycleHarness) replayOf(ids ...string) map[string]*store.JobRecord {
	dir, err := os.MkdirTemp(h.scratch, "replay")
	if err != nil {
		h.t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := os.Mkdir(filepath.Join(dir, "jobs"), 0o755); err != nil {
		h.t.Fatal(err)
	}
	for _, id := range ids {
		for _, ext := range []string{".journal", ".steps"} {
			err := os.Link(filepath.Join(h.dir, "jobs", id+ext), filepath.Join(dir, "jobs", id+ext))
			if err != nil && !errors.Is(err, fs.ErrNotExist) {
				h.t.Fatal(err)
			}
		}
	}
	return quietReplay(h.t, dir)
}

// checkTerminal replays the store right after j reported the terminal
// state st. A job marked dirty is exempt: its records wait for recovery.
func (h *lifecycleHarness) checkTerminal(j *Job, st State, via string) {
	if j.dirty() {
		return
	}
	h.durableAtLeast(j, st, h.replayOf(j.ID)[j.ID], via)
}

// checkStep checks that a replayed job which still has exploration state
// (it is unfinished, or timed out) holds at least the announced step k.
// Replay reads a job's journal before its step log, so a replay that runs
// while the job finishes may read the journal from before the terminal
// record and the step log from after the terminal transition dropped it —
// a view no crash leaves behind. A shortfall is therefore checked again on
// a fresh replay, which shows the terminal record in that case.
func (h *lifecycleHarness) checkStep(id string, k int, rec *store.JobRecord) {
	for retried := false; ; retried = true {
		var short string
		switch {
		case rec == nil:
			short = "the store has no record of it"
		case rec.Terminal() && rec.State != string(StateTimeout):
			return // the terminal record supersedes the step log
		case store.PositionOf(rec.Checkpoint).Step < k:
			short = fmt.Sprintf("the store replays %s at step %d", rec.State, store.PositionOf(rec.Checkpoint).Step)
		default:
			return
		}
		if retried {
			h.t.Errorf("%s: job %s announced checkpoint %d, but %s", h.step, id, k, short)
			return
		}
		rec = h.replayOf(id)[id]
	}
}

// check runs after every event: it reads the listed states, the counters
// and the announced checkpoints first, then replays the store, so every
// state and step it read must already be durable, and counted.
func (h *lifecycleHarness) check() {
	list := h.e.List(false)
	m := h.e.Metrics()
	dirty := make(map[*Job]bool)
	for _, j := range h.jobs {
		dirty[j] = j.dirty()
	}
	h.mu.Lock()
	unsettled := make(map[string]bool)
	for _, j := range h.jobs {
		unsettled[j.ID] = !h.settled[j.ID]
	}
	announced := make(map[string]int, len(h.announced))
	for id, k := range h.announced {
		if !h.settled[id] {
			announced[id] = k
			unsettled[id] = true
		}
	}
	h.mu.Unlock()
	var ids []string
	for id, ok := range unsettled {
		if ok {
			ids = append(ids, id)
		}
	}
	recs := h.replayOf(ids...)

	listed := make(map[string]State)
	for _, s := range list {
		if _, dup := listed[s.ID]; dup {
			h.t.Errorf("%s: job %s listed twice", h.step, s.ID)
		}
		if lifecycleRank(s.State) < 0 {
			h.t.Errorf("%s: job %s listed as %q", h.step, s.ID, s.State)
		}
		listed[s.ID] = s.State
	}
	if len(listed) != len(h.jobs) {
		h.t.Errorf("%s: %d jobs listed, %d accepted", h.step, len(listed), len(h.jobs))
	}
	produced := make(map[State]uint64)
	live, queued := 0, 0
	for _, j := range h.jobs {
		st, ok := listed[j.ID]
		if !ok {
			h.t.Errorf("%s: accepted job %s is not listed", h.step, j.ID)
			continue
		}
		if !st.Terminal() {
			live++
		} else if !h.restored[j] {
			produced[st]++
		}
		if st == StateQueued {
			queued++
		}
		if !dirty[j] && unsettled[j.ID] {
			h.durableAtLeast(j, st, recs[j.ID], "its listed status")
		}
	}

	// Counting comes before publishing, so each counter holds at least the
	// jobs listed in its state, and at most one more per live job.
	counted := map[State]uint64{
		StateDone: m.JobsCompleted, StateFailed: m.JobsFailed,
		StateCancelled: m.JobsCancelled, StateTimeout: m.JobsTimeout,
	}
	var extra uint64
	for st, n := range counted {
		if n < produced[st] {
			h.t.Errorf("%s: %d jobs listed %s, but Metrics counts %d", h.step, produced[st], st, n)
		}
		extra += n - min(n, produced[st])
	}
	if extra > uint64(live) {
		h.t.Errorf("%s: Metrics counts %d terminal jobs more than listed, with %d live", h.step, extra, live)
	}
	if m.JobsRunning < 0 || m.JobsRunning > int64(min(live, h.workers)) {
		h.t.Errorf("%s: Metrics counts %d running, with %d live jobs on %d workers", h.step, m.JobsRunning, live, h.workers)
	}
	if m.QueueDepth < 0 || m.QueueDepth > queued {
		h.t.Errorf("%s: Metrics counts %d queued, with %d jobs listed queued", h.step, m.QueueDepth, queued)
	}
	if m.JobsShed != uint64(h.shed) || m.JobsDeduped != 0 {
		h.t.Errorf("%s: Metrics counts %d shed and %d deduped, want %d and 0", h.step, m.JobsShed, m.JobsDeduped, h.shed)
	}
	if m.JobsRestored != uint64(len(h.restored)) {
		h.t.Errorf("%s: Metrics counts %d restored, want %d", h.step, m.JobsRestored, len(h.restored))
	}

	for id, k := range announced {
		h.checkStep(id, k, recs[id])
	}
}
