// Package engine is the concurrent approximation service layer on top of the
// BLASYS flow (internal/core): a bounded job queue drained by a worker pool,
// a content-addressed Boolean-matrix-factorization cache shared across jobs
// (internal/bmf), per-job progress streaming via the core Checkpoint hook,
// and cooperative cancellation through core.ApproximateCtx.
//
// The design-space search BLASYS performs is embarrassingly parallel in two
// dimensions — across candidate blocks within one run (core.Config
// Parallelism) and across independent runs (this package's worker pool) —
// and heavily repetitive across runs: resubmitting a benchmark, or two
// circuits sharing subcircuit structure, re-derives identical truth tables.
// The shared cache turns those repeats into lookups.
//
// The HTTP front end for this engine lives in server.go; the binary is
// cmd/blasys-serve.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"

	"github.com/blasys-go/blasys/internal/blif"
	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/sched"
	"github.com/blasys-go/blasys/internal/store"
	"github.com/blasys-go/blasys/internal/telemetry"
)

// Errors returned by the engine's job-manager surface.
var (
	ErrQueueFull  = errors.New("engine: job queue full")
	ErrClosed     = errors.New("engine: engine closed")
	ErrNoSuchJob  = errors.New("engine: no such job")
	ErrNotRunning = errors.New("engine: job not cancellable")
	// ErrOverloaded marks deadline-aware load shedding: the submission was
	// rejected because its estimated queue wait already exceeds its run-time
	// deadline, so queueing it would only let it die waiting. Match with
	// errors.Is; the concrete *OverloadError carries the retry hint.
	ErrOverloaded = errors.New("engine: overloaded")
)

// OverloadError is the concrete rejection returned when admission control
// sheds a deadlined submission: the estimated queue wait (from the engine's
// observed queue-wait/run-time histograms, inflated by the machine-wide
// sched token pressure) exceeds the job's deadline. RetryAfter is the
// suggested back-off — the estimated wait itself, which the HTTP layer
// surfaces as a Retry-After header.
type OverloadError struct {
	EstimatedWait time.Duration
	Deadline      time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("engine: overloaded: estimated queue wait %s exceeds deadline %s",
		e.EstimatedWait.Round(time.Millisecond), e.Deadline)
}

// Is makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// RetryAfter is the suggested client back-off before resubmitting.
func (e *OverloadError) RetryAfter() time.Duration { return e.EstimatedWait }

// Options configures an Engine. The zero value is completed by defaults:
// 2 workers, a queue of 64, a fresh shared MemoryCache, and per-job
// parallelism left to core's default (GOMAXPROCS).
type Options struct {
	// Workers is the number of jobs run concurrently.
	Workers int
	// QueueSize bounds the number of jobs waiting for a worker; Submit
	// fails fast with ErrQueueFull beyond it (backpressure instead of
	// unbounded memory growth under heavy traffic).
	QueueSize int
	// JobParallelism overrides core.Config.Parallelism for every job whose
	// config leaves it unset. With several workers sharing the machine,
	// GOMAXPROCS per job oversubscribes; a serve deployment typically sets
	// this to GOMAXPROCS / Workers.
	JobParallelism int
	// Cache is the shared factorization cache (nil = new MemoryCache).
	Cache bmf.Cache
	// RetainJobs bounds how many terminal jobs (and their results) stay
	// resident for status queries; the oldest terminal jobs are evicted
	// beyond it. Queued and running jobs are never evicted. Default 1024.
	RetainJobs int
	// Store, when non-nil, makes the engine durable: submissions, state
	// transitions, exploration steps, results and each run's spans are
	// journaled, and New replays the store so completed jobs are served
	// immediately after a restart. When Cache is nil, the store's
	// tiered (memory over disk) factorization cache is used, so warm
	// factorizations survive restarts too.
	Store *store.Store
	// Dedup enables content-addressed request dedup: a submission identical
	// to a retained one (same circuit provenance, spec, config, and deadline)
	// attaches to the existing execution instead of starting a second — the
	// flow is deterministic, so one run's bytes answer every identical
	// request. Cancelled, failed, and timed-out jobs never satisfy a dedup
	// hit (a resubmission after those deserves a fresh run).
	Dedup bool
	// Resume controls whether New re-enqueues jobs the store recorded as
	// queued or running (each continues from its last exploration checkpoint,
	// or step 0 without one). With Resume false such jobs are left on disk
	// untouched; terminal jobs are always restored for serving.
	Resume bool
	// Logger sinks the engine's structured warnings (durability, replay,
	// span journaling). Nil means slog.Default().
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 64
	}
	if o.Cache == nil {
		if o.Store != nil {
			o.Cache = o.Store.TieredCache()
		} else {
			o.Cache = bmf.NewMemoryCache()
		}
	}
	if o.RetainJobs <= 0 {
		o.RetainJobs = 1024
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// Metrics is a snapshot of the engine's service counters.
type Metrics struct {
	JobsCompleted uint64 `json:"jobs_completed"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsCancelled uint64 `json:"jobs_cancelled"`
	JobsRunning   int64  `json:"jobs_running"`
	QueueDepth    int    `json:"queue_depth"`
	// JobsTimeout counts jobs whose run-time deadline expired; JobsDeduped
	// counts submissions attached to an identical retained execution;
	// JobsShed counts deadlined submissions rejected at admission because
	// their estimated queue wait exceeded their deadline.
	JobsTimeout uint64 `json:"jobs_timeout,omitempty"`
	JobsDeduped uint64 `json:"jobs_deduped,omitempty"`
	JobsShed    uint64 `json:"jobs_shed,omitempty"`
	// Degraded reports whether the engine is running memory-only because the
	// store's write circuit breaker is open.
	Degraded bool `json:"degraded,omitempty"`
	// JobsRestored counts terminal jobs loaded from the store at startup;
	// JobsResumed counts interrupted jobs re-enqueued from the store.
	JobsRestored uint64         `json:"jobs_restored,omitempty"`
	JobsResumed  uint64         `json:"jobs_resumed,omitempty"`
	Cache        bmf.CacheStats `json:"cache"`
}

// Engine runs BLASYS approximation jobs on a worker pool with a shared
// factorization cache. All methods are safe for concurrent use.
type Engine struct {
	opts  Options
	cache bmf.Cache

	baseCtx context.Context
	stop    context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for List
	closed bool
	// dedup is the content-address index (request digest -> job ID) behind
	// Options.Dedup; entries die with their jobs (eviction, cancel/fail).
	dedup map[string]string

	queue chan *Job
	wg    sync.WaitGroup

	// met is this engine's metric registry (see metrics.go); Metrics()
	// reads its lifecycle counters.
	met *engineMetrics
}

// New starts an engine with opts.Workers worker goroutines. With a durable
// store configured, the store is replayed first: terminal jobs are restored
// for immediate serving and (with opts.Resume) interrupted jobs are
// re-enqueued ahead of new submissions, each carrying its last exploration
// checkpoint. Replay is best-effort — damaged jobs are skipped with a logged
// warning, never failing engine startup.
func New(opts Options) *Engine {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	replayed, requeueCount := replayStore(opts)
	e := &Engine{
		opts:    opts,
		cache:   opts.Cache,
		baseCtx: ctx,
		stop:    cancel,
		jobs:    make(map[string]*Job),
		dedup:   make(map[string]string),
		// Room for every re-enqueued job on top of the configured bound, so
		// a full recovered backlog cannot deadlock startup.
		queue: make(chan *Job, opts.QueueSize+requeueCount),
		met:   newEngineMetrics(),
	}
	for _, job := range replayed {
		e.jobs[job.ID] = job
		e.order = append(e.order, job.ID)
		if job.State() == StateQueued {
			e.attachTimeline(job)
			e.met.queueDepth.Add(1)
			e.queue <- job
			e.met.resumed.Inc()
		} else {
			e.met.restored.Inc()
		}
	}
	// Degraded-mode wiring: when the store's write circuit breaker opens the
	// engine keeps running memory-only (subscribers hear about it); when a
	// half-open probe succeeds the engine reconciles — re-journaling from
	// memory everything the degraded window failed to persist — so restart
	// invariants hold again.
	if opts.Store != nil {
		opts.Store.OnStateChange(e.onDegraded, e.onRecover)
	}
	for i := 0; i < opts.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Submit enqueues a job, returning it immediately; the run happens on a
// worker. Fails fast with ErrQueueFull when the bounded queue is at capacity
// and ErrClosed after Close.
func (e *Engine) Submit(req Request) (*Job, error) {
	j, _, err := e.SubmitAttach(req)
	return j, err
}

// SubmitAttach is Submit plus the dedup signal: with Options.Dedup on, a
// submission content-identical to a retained job returns that job with
// deduped true — the caller attached to an existing execution and shares its
// result bytes — instead of enqueueing a second run. Deadlined submissions
// may also be rejected at admission with an *OverloadError (load shedding)
// when their estimated queue wait already exceeds their deadline.
func (e *Engine) SubmitAttach(req Request) (job *Job, deduped bool, err error) {
	if req.Circuit == nil {
		return nil, false, fmt.Errorf("engine: nil circuit")
	}
	// Durable engines canonicalize provenance-free circuits through BLIF:
	// the journal stores BLIF text and a resumed job re-parses it, and a
	// BLIF round trip is equivalence- but not identity-preserving (node
	// order shifts), which would change the decomposition and hence the
	// walk. Running the canonical (parsed) form from the start makes the
	// pre-restart and post-restart walks the same walk.
	if e.opts.Store != nil && req.SourceBenchmark == "" && req.SourceBLIF == "" {
		var sb strings.Builder
		if err := blif.Write(&sb, req.Circuit); err != nil {
			return nil, false, fmt.Errorf("engine: canonicalize circuit: %w", err)
		}
		circ, err := blif.Read(strings.NewReader(sb.String()))
		if err != nil {
			return nil, false, fmt.Errorf("engine: canonicalize circuit: %w", err)
		}
		req.Circuit = circ
		req.SourceBLIF = sb.String()
	}
	// Resolve the per-job parallelism NOW, not at run time: for durable
	// engines the resolved value lands in the journal, so a restarted
	// server with a different -workers flag (hence different
	// JobParallelism) resumes the job under its original parallelism — a
	// lazy walk's trajectory depends on it (see core.Config digest).
	if req.Config.Parallelism <= 0 && e.opts.JobParallelism > 0 {
		req.Config.Parallelism = e.opts.JobParallelism
	}
	// Content-addressed dedup: an identical retained submission (post-
	// canonicalization, post-resolution, deadline included) answers this one.
	var dedupKey string
	if e.opts.Dedup {
		dedupKey, err = digestRequest(req)
		if err != nil {
			return nil, false, err
		}
		if existing := e.dedupLookup(dedupKey); existing != nil {
			e.met.deduped.Inc()
			return existing, true, nil
		}
	}
	// Deadline-aware load shedding: when the estimated queue wait already
	// exceeds the job's run-time deadline, queueing it would only let it die
	// waiting — reject now with a retry hint instead.
	if req.Deadline > 0 {
		if est := e.EstimateQueueWait(); est > req.Deadline {
			e.met.shed.Inc()
			return nil, false, &OverloadError{EstimatedWait: est, Deadline: req.Deadline}
		}
	}
	job, err = newJob(req)
	if err != nil {
		return nil, false, err
	}
	job.dedupKey = dedupKey
	e.attachTimeline(job)
	// Cheap rejection pre-check so the overload path stays disk-free: a
	// submission bound for ErrQueueFull/ErrClosed should not pay journal
	// create+fsync+unlink — that would amplify exactly the overload the
	// bounded queue exists to shed. The authoritative check repeats under
	// the lock below.
	e.mu.Lock()
	closed, full := e.closed, len(e.queue) >= e.opts.QueueSize
	e.mu.Unlock()
	if closed {
		return nil, false, ErrClosed
	}
	if full {
		return nil, false, ErrQueueFull
	}
	// Journal the request and queued state BEFORE the job becomes runnable:
	// once it is on the queue a worker may pick it up (and even finish it)
	// immediately, and every later write needs the journal to already exist
	// or the job would replay as never-run after a restart.
	if e.opts.Store != nil && req.Config.Lib != nil {
		// ConfigRecord cannot journal a library; a restarted run would use
		// the default one. The ConfigDigest hashes library content, so a
		// checkpointed resume fails loudly rather than diverging silently —
		// warn at submit time so the operator knows why.
		e.opts.Logger.Warn("engine: job uses a custom technology library, which the store cannot journal; the job will not resume across a restart", "job", job.ID)
	}
	e.write(job, job.outcome, true)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.persistDiscard(job)
		return nil, false, ErrClosed
	}
	// Dedup re-check under the authoritative lock: a content-identical
	// submission may have been enqueued between the early lookup and here.
	if dedupKey != "" {
		if existing := e.dedupLookupLocked(dedupKey); existing != nil {
			e.mu.Unlock()
			e.persistDiscard(job)
			e.met.deduped.Inc()
			return existing, true, nil
		}
	}
	// Admission is bounded by QueueSize, not channel capacity: the channel
	// gets extra headroom for a replayed backlog at startup, but that
	// headroom must not let NEW submissions exceed the configured bound
	// (nor compound across crash/restart cycles). Under e.mu the send
	// cannot block: len < QueueSize <= cap, and all senders hold the lock.
	if len(e.queue) >= e.opts.QueueSize {
		e.mu.Unlock()
		e.persistDiscard(job)
		return nil, false, ErrQueueFull
	}
	e.met.queueDepth.Add(1)
	e.queue <- job
	e.jobs[job.ID] = job
	e.order = append(e.order, job.ID)
	if dedupKey != "" {
		e.dedup[dedupKey] = job.ID
	}
	evicted := e.pruneLocked()
	e.mu.Unlock()
	e.persistRemove(evicted)
	// A failed journal write trips the breaker, and the recovery reconciles
	// every job it finds; but one failing while a probe is in flight trips
	// nothing, and that probe's recovery may have run before the job was
	// listed. Reconcile it here once the store is healthy.
	if job.dirty() && e.opts.Store.Degraded() == nil {
		e.apply(job, transition{reconcile: true})
	}
	return job, false, nil
}

// digestRequest computes a submission's content address: the SHA-256 of its
// journal-form request record (circuit provenance, spec, full config, and
// deadline). Two submissions with the same digest run the same deterministic
// walk and produce the same bytes.
func digestRequest(req Request) (string, error) {
	rec, err := req.record()
	if err != nil {
		return "", fmt.Errorf("engine: dedup digest: %w", err)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return "", fmt.Errorf("engine: dedup digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// record is the request's journal form.
func (r Request) record() (*store.RequestRecord, error) {
	return store.NewRequestRecord(r.Circuit, r.Spec, r.Config, r.SourceBenchmark, r.SourceBLIF, r.Deadline)
}

// dedupLookup resolves a content address to an attachable retained job.
func (e *Engine) dedupLookup(key string) *Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dedupLookupLocked(key)
}

// dedupLookupLocked is dedupLookup under an already-held e.mu. A hit must be
// attachable: queued, running, or done. Cancelled/failed/timed-out jobs are
// dropped from the index here (lazily) so a resubmission gets a fresh run.
func (e *Engine) dedupLookupLocked(key string) *Job {
	id, ok := e.dedup[key]
	if !ok {
		return nil
	}
	job, ok := e.jobs[id]
	if !ok {
		delete(e.dedup, key)
		return nil
	}
	switch job.State() {
	case StateQueued, StateRunning, StateDone:
		return job
	default:
		delete(e.dedup, key)
		return nil
	}
}

// EstimateQueueWait predicts how long a submission entering the queue now
// would wait for a worker: the depth ahead of it spread across the worker
// pool, paced by the observed mean run time (falling back to the observed
// mean queue wait when no run has finished yet), and inflated by the
// machine-wide sched token pressure — a saturated goroutine budget means
// every running job is executing below its configured parallelism, so
// dispatch waves drain slower than the per-job history suggests.
func (e *Engine) EstimateQueueWait() time.Duration {
	depth := int(e.met.queueDepth.Value())
	busy := e.met.running.Value() >= float64(e.opts.Workers)
	if depth == 0 && !busy {
		return 0 // a worker is idle: dispatch is immediate
	}
	meanRun := e.met.runSeconds.Mean()
	if meanRun == 0 {
		meanRun = e.met.queueWait.Mean()
	}
	if meanRun == 0 {
		return 0 // no history yet: admit optimistically
	}
	// Dispatch waves ahead of a new arrival: the queued depth plus this
	// submission, drained opts.Workers at a time.
	waves := (depth + e.opts.Workers) / e.opts.Workers
	est := time.Duration(meanRun * float64(waves) * float64(time.Second))
	return est + time.Duration(float64(est)*sched.Pressure())
}

// Get returns a job by ID.
func (e *Engine) Get(id string) (*Job, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	job, ok := e.jobs[id]
	if !ok {
		return nil, ErrNoSuchJob
	}
	return job, nil
}

// List snapshots every known job in submission order.
func (e *Engine) List(withTrace bool) []Status {
	e.mu.Lock()
	ids := append([]string(nil), e.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, e.jobs[id])
	}
	e.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Snapshot(withTrace))
	}
	return out
}

// Cancel stops a queued or running job and returns the job's state as of
// this call: StateCancelled for a job caught in the queue, StateRunning for
// a running job whose cancellation was signalled (it transitions to
// cancelled once the flow observes the context, typically within one
// factorization or one Monte-Carlo comparison — poll the job for the
// terminal state), and the unchanged terminal state for finished jobs.
func (e *Engine) Cancel(id string) (State, error) {
	job, err := e.Get(id)
	if err != nil {
		return "", err
	}
	// A job that has left the queue never returns to it, so only a queued
	// one waits for the transition lock, which a running job's writes hold.
	if job.State() == StateQueued && e.apply(job, transition{from: StateQueued, to: outcome{state: StateCancelled}}) {
		return StateCancelled, nil
	}
	job.mu.Lock()
	state, cancel := job.state, job.cancel
	if state == StateRunning {
		// Remember this was an explicit cancellation: the worker journals it
		// as terminal, unlike an engine-shutdown cancellation (which leaves
		// the journal at "running" so a restart resumes the job).
		job.userCancel = true
	}
	job.mu.Unlock()
	if state == StateRunning {
		cancel() // the worker will record the cancelled state
	}
	return state, nil
}

// pruneLocked evicts the oldest terminal jobs beyond the retention bound and
// returns their IDs so the caller can drop their store records too (outside
// the lock — RetainJobs is the durable retention bound as well, or journals
// would accumulate forever and evicted jobs would resurrect on restart).
// Callers hold e.mu.
func (e *Engine) pruneLocked() []string {
	terminal := 0
	for _, id := range e.order {
		if e.jobs[id].State().Terminal() {
			terminal++
		}
	}
	if terminal <= e.opts.RetainJobs {
		return nil
	}
	var evicted []string
	kept := e.order[:0]
	for _, id := range e.order {
		if terminal > e.opts.RetainJobs && e.jobs[id].State().Terminal() {
			if key := e.jobs[id].dedupKey; key != "" && e.dedup[key] == id {
				delete(e.dedup, key)
			}
			delete(e.jobs, id)
			evicted = append(evicted, id)
			terminal--
			continue
		}
		kept = append(kept, id)
	}
	e.order = kept
	return evicted
}

// Metrics snapshots the service counters.
func (e *Engine) Metrics() Metrics {
	m := e.met
	return Metrics{
		JobsCompleted: uint64(m.completed.Value()),
		JobsFailed:    uint64(m.failed.Value()),
		JobsCancelled: uint64(m.cancelled.Value()),
		JobsRunning:   int64(m.running.Value()),
		QueueDepth:    int(m.queueDepth.Value()),
		JobsTimeout:   uint64(m.timedOut.Value()),
		JobsDeduped:   uint64(m.deduped.Value()),
		JobsShed:      uint64(m.shed.Value()),
		Degraded:      m.degraded.Value() != 0,
		JobsRestored:  uint64(m.restored.Value()),
		JobsResumed:   uint64(m.resumed.Value()),
		Cache:         e.cache.Stats(),
	}
}

// Store exposes the engine's durable store (nil for a memory-only engine) —
// used by the serving layer for readiness detail and the fault-admin
// surface.
func (e *Engine) Store() *store.Store { return e.opts.Store }

// Ready reports whether the engine can accept and durably record work: nil
// for an open engine whose store (if any) is writable, the reason otherwise.
// While the store's circuit breaker is open the *store.DegradedError is
// returned without touching the disk — the breaker owns recovery probing,
// and a readiness check must stay cheap under exactly the conditions that
// made the disk slow. This is the readiness half of the health surface;
// liveness is just the process answering at all.
func (e *Engine) Ready() error {
	if e.isClosed() {
		return ErrClosed
	}
	if e.opts.Store != nil {
		if err := e.opts.Store.Degraded(); err != nil {
			return err
		}
		return e.opts.Store.Writable()
	}
	return nil
}

// onDegraded runs once when the store's circuit breaker opens: the engine
// flips to memory-only operation (jobs keep running; writes short-circuit
// and mark their jobs for reconciliation) and live subscribers hear about it.
func (e *Engine) onDegraded(cause error) {
	e.met.degraded.Set(1)
	e.opts.Logger.Warn("engine: store degraded, running memory-only", "cause", cause)
	for _, job := range e.allJobs() {
		e.apply(job, transition{notice: &Event{Type: EventDegraded, Reason: cause.Error()}})
	}
}

// onRecover runs once when a half-open probe closes the breaker again: the
// engine reconciles — re-journaling from memory, whole, every job a write
// failed for while the store was degraded, so that a restart serves exactly
// what this process served — and tells live subscribers durability is back.
// A job whose re-journaling fails again stays dirty for the next recovery.
func (e *Engine) onRecover() {
	e.met.degraded.Set(0)
	reconciled := 0
	for _, job := range e.allJobs() {
		if e.apply(job, transition{reconcile: true, notice: &Event{Type: EventRecovered}}) {
			reconciled++
		}
	}
	e.opts.Logger.Info("engine: store recovered, reconciled", "jobs", reconciled)
}

// allJobs snapshots every retained job in submission order.
func (e *Engine) allJobs() []*Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Job, 0, len(e.order))
	for _, id := range e.order {
		out = append(out, e.jobs[id])
	}
	return out
}

func (e *Engine) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// Close stops accepting submissions, cancels running jobs, and waits for the
// workers to drain. Queued jobs finish as cancelled.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	close(e.queue)
	e.mu.Unlock()
	e.stop()
	e.wg.Wait()
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for job := range e.queue {
		e.run(job)
	}
}

// attachTimeline gives a queued job its span timeline: prior-run spans are
// imported (for a resumed job), the stage-event hook is installed, and the
// root "job" span with its "queue" child is opened. Must run before the job
// can reach a worker — spans end on the worker goroutine and the hook must
// already be in place by then.
func (e *Engine) attachTimeline(job *Job) {
	tl := telemetry.NewTimeline(0)
	tl.Import(job.restoredSpans)
	job.restoredSpans = nil
	tl.SetOnEnd(func(rec telemetry.SpanRecord) { // called with no lock held
		job.mu.Lock()
		job.publishLocked(Event{Type: EventStage, Span: &rec})
		job.mu.Unlock()
	})
	job.timeline = tl
	job.span = tl.Start("job")
	job.queueSpan = job.span.Child("queue")
}

// run executes one job on the calling worker goroutine.
func (e *Engine) run(job *Job) {
	ctx, cancel := context.WithCancel(e.baseCtx)
	defer cancel()
	if !e.apply(job, transition{from: StateQueued, to: outcome{state: StateRunning}, cancel: cancel}) {
		return // cancelled while queued
	}
	job.queueSpan.End()

	// The deadline bounds run time, not queue wait: the budget starts now.
	// A resumed job gets a fresh budget for its remaining work.
	runCtx := ctx
	if d := job.req.Deadline; d > 0 {
		var cancelDeadline context.CancelFunc
		runCtx, cancelDeadline = context.WithTimeout(ctx, d)
		defer cancelDeadline()
	}

	cc := &countingCache{inner: e.cache, met: e.met}
	cfg := job.req.Config
	cfg.Cache = cc
	cfg.Resume = job.resume
	// The checkpoint hook runs store or not: the in-memory snapshot is what
	// the job's trace derives from, a timed-out job's best-so-far frontier,
	// and what reconciliation re-persists after a degraded window.
	cfg.Checkpoint = func(st core.ExplorerState) {
		e.apply(job, transition{cp: &st})
	}
	if cfg.Parallelism <= 0 && e.opts.JobParallelism > 0 {
		cfg.Parallelism = e.opts.JobParallelism
	}
	runSpan := job.span.Child("run")
	cfg.Span = runSpan

	runStart := time.Now()
	res, err := core.ApproximateCtx(runCtx, job.req.Circuit, job.req.Spec, cfg)
	e.met.runSeconds.Observe(time.Since(runStart).Seconds())
	// Close the spans before the terminal transition, which journals them,
	// so that their stage events stream while subscribers are still
	// attached.
	runSpan.End()
	job.span.End()
	out := outcome{err: err, cacheHits: cc.hits.Load(), cacheMisses: cc.misses.Load()}
	shutdown := false
	switch {
	case err == nil:
		out.state, out.result = StateDone, res
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Cancel-vs-deadline determinism: both signals can land in the same
		// exploration step, and which ctx error the flow observes first is a
		// race — so the terminal state must not depend on it. An explicit
		// user cancel wins unconditionally (the flag is set before the
		// cancellation is signalled); otherwise an expired deadline is a
		// timeout; what remains is an engine-shutdown cancellation, which
		// the journal does not record.
		switch {
		case job.wasUserCancelled():
			out.state, out.err = StateCancelled, context.Canceled
		case errors.Is(err, context.DeadlineExceeded):
			out.state = StateTimeout
			out.err = fmt.Errorf("engine: deadline %s exceeded: %w", job.req.Deadline, context.DeadlineExceeded)
		default:
			out.state, shutdown = StateCancelled, true
		}
	default:
		out.state = StateFailed
	}
	e.apply(job, transition{to: out, keepJournal: shutdown})
}
