package engine

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/blasys-go/blasys/internal/blif"
	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/qor"
	"github.com/blasys-go/blasys/internal/store"
	"github.com/blasys-go/blasys/internal/telemetry"
)

// State is a job's lifecycle stage. Transitions are linear:
// queued -> running -> {done, failed, cancelled, timeout}, with the shortcut
// queued -> cancelled for jobs cancelled before a worker picks them up.
type State string

// Job states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	// StateTimeout marks a job whose run-time deadline expired mid-walk. Its
	// best-so-far frontier and checkpoint are preserved — a timed-out job is
	// a partial answer, not a failure.
	StateTimeout State = "timeout"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled || s == StateTimeout
}

// Request is one unit of work for the engine: a circuit, its output
// interpretation, and the flow configuration. The engine overrides the
// Config's Cache, Checkpoint, Resume and Span fields to wire in the shared
// factorization cache, the job's walk and its timeline.
type Request struct {
	Circuit *logic.Circuit
	Spec    qor.OutputSpec
	Config  core.Config

	// SourceBenchmark and SourceBLIF record the circuit's provenance for
	// the durable store (at most one set): a restarted process then rebuilds
	// the identical circuit — same node order, same decomposition, same
	// exploration walk — rather than an equivalent re-serialization. The
	// HTTP server fills these from the submission; programmatic callers may
	// leave both empty, in which case Circuit is serialized to BLIF when
	// journaling.
	SourceBenchmark string
	SourceBLIF      string

	// Deadline bounds the job's run time (not its queue wait): the worker
	// wraps the run context with this budget and an expired job finishes as
	// StateTimeout with its best-so-far frontier preserved. Zero = no bound.
	// A resumed job gets a fresh budget for the remaining work.
	Deadline time.Duration
}

// Job tracks one submitted approximation run.
type Job struct {
	ID string

	mu sync.Mutex
	// outcome is the job's visible state; Engine.apply alone changes it.
	outcome
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc

	// userCancel marks an explicit Cancel of a running job, distinguishing
	// it from an engine-shutdown cancellation for the durable store.
	userCancel bool

	// subs holds live event subscribers (see Subscribe).
	subs    map[int]chan Event
	nextSub int

	req  Request
	done chan struct{}

	// jnl is the job's store journal (nil without a store).
	jnl *store.Journal
	// resume is the exploration checkpoint a replayed job continues from.
	resume *core.ExplorerState
	// restored carries a finished job's outcome as replayed from the store
	// after a restart, standing in for result.
	restored      *restoredResult
	restoredTrace []core.TracePoint // replayed with a terminal job

	// lastCheckpoint tracks the latest exploration snapshot the run handed
	// to the Checkpoint hook (always kept, store or not): the job's trace
	// derives from it, a timed-out job serves its frontier from it, and
	// reconciliation re-persists it after degraded mode ends. cpFrontier
	// caches the frontier lazily rebuilt from it.
	lastCheckpoint *core.ExplorerState
	cpFrontier     *core.Frontier
	// durable is the position of the job's last durable checkpoint, the
	// base its next step-log record extends. It starts at the resumed
	// checkpoint's position and advances only after a successful append,
	// so a failed append just makes the next record longer.
	durable store.Position
	// transMu serializes the job's transitions (see Engine.apply), the
	// reconciliation of its records included. It makes queued->running and
	// a queued cancel one check-and-set, and keeps a reconcile from writing
	// the state a transition is replacing, or appending to the journal it
	// is closing. Disk I/O happens under transMu, never under mu.
	transMu sync.Mutex
	// persistDirty marks that a write of the job's records failed (degraded
	// store or plain I/O error), so reconciliation must re-journal the job
	// from memory once the store recovers.
	persistDirty bool
	// dedupKey is the job's content address when submission dedup is on;
	// the engine's dedup index entry is removed on eviction via this key.
	dedupKey string

	// timeline holds the job's stage spans; span is the root "job" span and
	// queueSpan its first child, covering time spent waiting for a worker.
	// All three are set before the job is published (Submit / replay) and
	// never reassigned, so they are read without j.mu; a restored terminal
	// job has a timeline (replayed spans) but no live span handles.
	timeline  *telemetry.Timeline
	span      *telemetry.Span
	queueSpan *telemetry.Span
	// restoredSpans carries a requeued job's prior-run spans from the store
	// until the engine attaches its timeline.
	restoredSpans []telemetry.SpanRecord
}

// outcome is a job's state and, once it is terminal, how it ended: the
// result of a done job, the error of a failed, cancelled or timed-out one,
// and the run's factorization cache hits and misses.
type outcome struct {
	state                  State
	result                 *core.Result
	err                    error
	cacheHits, cacheMisses uint64
}

// errText renders the outcome's error for the journal ("" when none).
func (o outcome) errText() string {
	if o.err == nil {
		return ""
	}
	return o.err.Error()
}

// restoredResult is a done job's persisted outcome, rebuilt from the store:
// enough to serve status, trace, frontier, and netlist downloads without
// re-running the flow.
type restoredResult struct {
	rec      *store.ResultRecord
	circuit  *logic.Circuit // parsed lazily from rec.BestBLIF
	frontier *core.Frontier // rebuilt lazily from rec.Frontier
}

func newJob(req Request) (*Job, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return nil, fmt.Errorf("engine: job id: %w", err)
	}
	return &Job{
		ID:      "job-" + hex.EncodeToString(b[:]),
		outcome: outcome{state: StateQueued},
		created: time.Now(),
		req:     req,
		done:    make(chan struct{}),
	}, nil
}

// Timeline snapshots the job's stage spans (completed first, then open ones
// with a zero End). Nil-safe: an engine always attaches a timeline, but a
// job constructed outside one simply has no spans.
func (j *Job) Timeline() []telemetry.SpanRecord {
	return j.timeline.Records()
}

// wasUserCancelled reports whether a running job's cancellation came from an
// explicit Cancel call (vs engine shutdown).
func (j *Job) wasUserCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.userCancel
}

// checkpoint returns the latest recorded exploration snapshot.
func (j *Job) checkpoint() *core.ExplorerState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastCheckpoint
}

// durableBase returns the position of the job's last durable checkpoint.
func (j *Job) durableBase() store.Position {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.durable
}

// markDurable records that the state at p reached the step log. The
// position only moves forward: the worker and reconciliation may both
// append, in either order.
func (j *Job) markDurable(p store.Position) {
	j.mu.Lock()
	if p.Step > j.durable.Step {
		j.durable = p
	}
	j.mu.Unlock()
}

// markDirty flags the job for post-recovery reconciliation.
func (j *Job) markDirty() {
	j.mu.Lock()
	j.persistDirty = true
	j.mu.Unlock()
}

// dirty reports whether a persist call failed for this job.
func (j *Job) dirty() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.persistDirty
}

// clearDirty resets the reconciliation flag after a successful re-journal.
func (j *Job) clearDirty() {
	j.mu.Lock()
	j.persistDirty = false
	j.mu.Unlock()
}

// Wait blocks until the job reaches a terminal state or ctx expires. The
// terminal state is durable by the time Wait returns: its record has landed
// in the store, or the job is marked for reconciliation because the store
// is degraded (an engine shutdown is the one terminal state the store never
// records: the journal stays at running, so that a restart resumes the job).
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Result returns the flow result once the job is done (nil otherwise).
func (j *Job) Result() *core.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Err returns the terminal error of a failed or cancelled job.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// State returns the current lifecycle stage.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// ResultSummary condenses a finished job's outcome for status responses.
type ResultSummary struct {
	BestStep          int         `json:"best_step"`
	Steps             int         `json:"steps"`
	AccurateModelArea float64     `json:"accurate_model_area"`
	BestNormArea      float64     `json:"best_norm_area"`
	BestReport        *qor.Report `json:"best_report,omitempty"`
	// EvaluatedPoints counts every (error, area) point the exploration
	// evaluated; ParetoPoints is the non-dominated subset. The points
	// themselves are served by GET /v1/jobs/{id}/frontier.
	EvaluatedPoints int `json:"evaluated_points,omitempty"`
	ParetoPoints    int `json:"pareto_points,omitempty"`
}

// Status is a point-in-time JSON-ready snapshot of a job.
type Status struct {
	ID          string            `json:"id"`
	State       State             `json:"state"`
	Created     time.Time         `json:"created"`
	Started     *time.Time        `json:"started,omitempty"`
	Finished    *time.Time        `json:"finished,omitempty"`
	Error       string            `json:"error,omitempty"`
	CacheHits   uint64            `json:"cache_hits"`
	CacheMisses uint64            `json:"cache_misses"`
	Trace       []core.TracePoint `json:"trace,omitempty"`
	Result      *ResultSummary    `json:"result,omitempty"`
}

// Snapshot captures the job's current status. withTrace controls whether the
// (possibly long) exploration trace is included.
func (j *Job) Snapshot(withTrace bool) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.ID,
		State:       j.state,
		Created:     j.created,
		CacheHits:   j.cacheHits,
		CacheMisses: j.cacheMisses,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if withTrace {
		st.Trace = j.traceLocked()
	}
	st.Result = j.resultSummaryLocked()
	return st
}

// traceLocked derives the job's trace from the record of its walk: its
// result, latest or resumed exploration state, or replayed trace. Callers
// hold j.mu.
func (j *Job) traceLocked() []core.TracePoint {
	switch {
	case j.result != nil:
		return j.result.Trace()[1:] // without the accurate circuit's point
	case j.lastCheckpoint != nil:
		return j.lastCheckpoint.TracePoints()
	case j.resume != nil:
		return j.resume.TracePoints()
	}
	return append([]core.TracePoint(nil), j.restoredTrace...)
}

// resultSummaryLocked condenses the job's outcome — live result or restored
// record — into a summary; nil unless the job finished successfully. Callers
// hold j.mu.
func (j *Job) resultSummaryLocked() *ResultSummary {
	if j.state != StateDone {
		return nil
	}
	var (
		bestStep int
		steps    []core.Step
		accArea  float64
		frontier *core.Frontier
	)
	switch {
	case j.result != nil:
		bestStep, steps, accArea = j.result.BestStep, j.result.Steps, j.result.AccurateModelArea
		frontier = j.result.Frontier
	case j.restored != nil:
		rec := j.restored.rec
		bestStep, steps, accArea = rec.BestStep, rec.Steps, rec.AccurateModelArea
		frontier = j.restored.frontierLocked()
	default:
		return nil
	}
	sum := &ResultSummary{
		BestStep:          bestStep,
		Steps:             len(steps),
		AccurateModelArea: accArea,
		BestNormArea:      1,
	}
	if bestStep >= 0 && bestStep < len(steps) {
		s := steps[bestStep]
		if accArea > 0 {
			sum.BestNormArea = s.ModelArea / accArea
		}
		rep := s.Report
		sum.BestReport = &rep
	}
	if frontier != nil {
		sum.EvaluatedPoints = frontier.Size()
		sum.ParetoPoints = len(frontier.Front())
	}
	return sum
}

// frontierLocked lazily rebuilds the restored frontier. Callers hold the
// owning job's mutex.
func (r *restoredResult) frontierLocked() *core.Frontier {
	if r.frontier == nil {
		r.frontier = r.rec.RestoreFrontier()
	}
	return r.frontier
}

// BestCircuit returns the chosen approximate netlist of a done job, whether
// computed in this process or restored from the durable store.
func (j *Job) BestCircuit() (*logic.Circuit, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.result != nil:
		return j.result.BestCircuit()
	case j.restored != nil:
		if j.restored.circuit == nil {
			c, err := j.restored.rec.BestCircuit()
			if err != nil {
				return nil, err
			}
			j.restored.circuit = c
		}
		return j.restored.circuit, nil
	}
	return nil, fmt.Errorf("engine: job %s has no result", j.ID)
}

// ResultBLIF returns the chosen approximate netlist as BLIF text. This is
// the restart-stable artifact: for a job restored from the store it is the
// journaled text verbatim, and for a live job it is a fresh render of the
// same circuit — so the bytes a client downloads do not change across
// process restarts.
func (j *Job) ResultBLIF() (string, error) {
	j.mu.Lock()
	restored := j.restored
	j.mu.Unlock()
	if restored != nil {
		return restored.rec.BestBLIF, nil
	}
	circ, err := j.BestCircuit()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if err := blif.Write(&sb, circ); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// Frontier returns the job's recorded accuracy/area frontier (nil while the
// job is unfinished or when none was recorded). A timed-out job serves the
// best-so-far frontier out of its last checkpoint — the partial answer the
// deadline bought.
func (j *Job) Frontier() *core.Frontier {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.result != nil:
		return j.result.Frontier
	case j.restored != nil:
		return j.restored.frontierLocked()
	case j.state == StateTimeout && j.lastCheckpoint != nil:
		if j.cpFrontier == nil && len(j.lastCheckpoint.Frontier) > 0 {
			j.cpFrontier = core.RestoreFrontier(
				j.lastCheckpoint.AccurateModelArea, j.lastCheckpoint.Frontier)
		}
		return j.cpFrontier
	}
	return nil
}

// countingCache wraps the engine's shared cache with per-job hit/miss
// counters, so each job can report exactly how much factorization work its
// run reused; the same events feed the engine-wide registry counters.
type countingCache struct {
	inner        bmf.Cache
	met          *engineMetrics
	hits, misses atomic.Uint64
}

func (c *countingCache) Get(k bmf.Key) (any, bool) {
	v, ok := c.inner.Get(k)
	if ok {
		c.hits.Add(1)
		if c.met != nil {
			c.met.cacheHits.Inc()
		}
	} else {
		c.misses.Add(1)
		if c.met != nil {
			c.met.cacheMisses.Inc()
		}
	}
	return v, ok
}

func (c *countingCache) Put(k bmf.Key, v any) { c.inner.Put(k, v) }

func (c *countingCache) Stats() bmf.CacheStats {
	return bmf.CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}
