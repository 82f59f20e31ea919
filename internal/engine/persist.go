package engine

import (
	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/store"
	"github.com/blasys-go/blasys/internal/telemetry"
)

// This file is the engine's durability glue: journaling job facts into the
// store as they happen and replaying the store into live jobs at startup.
// Every persist helper is a no-op without a store and degrades to a logged
// warning on I/O errors — the in-memory service keeps working when the disk
// misbehaves; durability is best-effort, correctness is not. Every failed
// persist marks its job dirty, which is the reconciliation work-list: once
// the store's circuit breaker closes again, the engine re-journals dirty
// jobs from memory (see Engine.reconcile).

// persistSubmit journals a new job's request and queued state.
func (e *Engine) persistSubmit(job *Job) {
	if e.opts.Store == nil {
		return
	}
	if job.req.Config.Lib != nil {
		// ConfigRecord cannot journal a library; a restarted run would use
		// the default one. The ConfigDigest hashes library content, so a
		// checkpointed resume fails loudly rather than diverging silently —
		// warn at submit time so the operator knows why.
		e.opts.Logger.Warn("engine: job uses a custom technology library, which the store cannot journal; the job will not resume across a restart", "job", job.ID)
	}
	req, err := store.NewRequestRecord(job.req.Circuit, job.req.Spec, job.req.Config,
		job.req.SourceBenchmark, job.req.SourceBLIF, job.req.Deadline)
	if err != nil {
		e.opts.Logger.Warn("engine: journal request failed; job will not survive a restart", "job", job.ID, "err", err)
		return
	}
	jnl, err := e.opts.Store.Journal(job.ID)
	if err != nil {
		job.markDirty()
		e.opts.Logger.Warn("engine: open journal failed; job will not survive a restart", "job", job.ID, "err", err)
		return
	}
	job.mu.Lock()
	job.jnl = jnl
	job.mu.Unlock()
	if err := jnl.Request(req); err != nil {
		job.markDirty()
		e.opts.Logger.Warn("engine: journal request", "job", job.ID, "err", err)
	}
	if err := jnl.State(string(StateQueued), ""); err != nil {
		job.markDirty()
		e.opts.Logger.Warn("engine: journal state", "job", job.ID, "err", err)
	}
}

// persistDiscard undoes persistSubmit for a submission rejected after its
// request was journaled (queue full, engine closed): without this the
// rejected job would replay as queued on the next restart.
func (e *Engine) persistDiscard(job *Job) {
	if e.opts.Store == nil {
		return
	}
	job.mu.Lock()
	job.jnl = nil
	job.mu.Unlock()
	if err := e.opts.Store.Remove(job.ID); err != nil {
		e.opts.Logger.Warn("engine: discard rejected submission", "job", job.ID, "err", err)
	}
}

// persistRemove drops the store records of jobs evicted past the retention
// bound.
func (e *Engine) persistRemove(ids []string) {
	if e.opts.Store == nil {
		return
	}
	for _, id := range ids {
		if err := e.opts.Store.Remove(id); err != nil {
			e.opts.Logger.Warn("engine: evict job record", "job", id, "err", err)
		}
	}
}

func (j *Job) journal() *store.Journal {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.jnl
}

// persistState journals a lifecycle transition.
func (e *Engine) persistState(job *Job, state State, jobErr string) {
	jnl := job.journal()
	if jnl == nil {
		return
	}
	if err := jnl.State(string(state), jobErr); err != nil {
		job.markDirty()
		e.opts.Logger.Warn("engine: journal state", "job", job.ID, "state", string(state), "err", err)
	}
}

// persistTrace journals one committed trace point. A dropped trace line does
// NOT dirty the job: the trace is progress telemetry, superseded by the
// checkpoint and result, and reconciliation deliberately does not replay it.
func (e *Engine) persistTrace(job *Job, p core.TracePoint) {
	jnl := job.journal()
	if jnl == nil {
		return
	}
	if err := jnl.Trace(p); err != nil {
		e.opts.Logger.Warn("engine: journal trace", "job", job.ID, "step", p.Step, "err", err)
	}
}

// persistCheckpoint makes the job's exploration state durable with one
// fsynced step-log record holding what st adds past the last durable
// checkpoint, and reports whether it did.
func (e *Engine) persistCheckpoint(job *Job, st *core.ExplorerState) bool {
	jnl := job.journal()
	if jnl == nil {
		return false
	}
	if err := jnl.Checkpoint(st, job.durableBase()); err != nil {
		job.markDirty()
		e.opts.Logger.Warn("engine: write checkpoint", "job", job.ID, "err", err)
		return false
	}
	job.markDurable(store.PositionOf(st))
	return true
}

// rewriteCheckpoint appends the job's latest exploration state whole, based
// at step 0: reconciliation cannot tell what the step log kept through the
// degraded window.
func rewriteCheckpoint(job *Job, jnl *store.Journal) error {
	cp := job.checkpoint()
	if cp == nil {
		return nil
	}
	if err := jnl.Checkpoint(cp, store.Position{}); err != nil {
		return err
	}
	job.markDurable(store.PositionOf(cp))
	return nil
}

// persistResult journals a finished job's result and done state.
func (e *Engine) persistResult(job *Job, res *core.Result, hits, misses uint64) {
	jnl := job.journal()
	if jnl == nil {
		return
	}
	rec, err := store.NewResultRecord(res)
	if err != nil {
		e.opts.Logger.Warn("engine: encode result failed; result will not survive a restart", "job", job.ID, "err", err)
		return
	}
	if err := jnl.Result(rec, hits, misses); err != nil {
		job.markDirty()
		e.opts.Logger.Warn("engine: journal result", "job", job.ID, "err", err)
	}
	if err := jnl.State(string(StateDone), ""); err != nil {
		job.markDirty()
		e.opts.Logger.Warn("engine: journal state", "job", job.ID, "state", string(StateDone), "err", err)
	}
}

// persistClose closes a terminal job's journal and step log, releasing
// their descriptors, and — unless keepCheckpoint — drops the now-superseded
// exploration state (every terminal path ends here; the journal's terminal
// record is what survives). Timed-out jobs keep their step log: it is the
// durable record of the best-so-far frontier the deadline bought, and
// restarts serve the frontier from it. A dirty job keeps it too: its
// terminal record may not be on disk, so the step log stays the durable
// resume point until reconciliation lands the record and closes the job
// again.
func (e *Engine) persistClose(job *Job, keepCheckpoint bool) {
	jnl := job.journal()
	if jnl == nil {
		return
	}
	job.mu.Lock()
	job.jnl = nil
	job.mu.Unlock()
	if err := jnl.Close(); err != nil {
		e.opts.Logger.Warn("engine: close journal", "job", job.ID, "err", err)
	}
	if keepCheckpoint || job.dirty() {
		return
	}
	if err := e.opts.Store.RemoveCheckpoint(job.ID); err != nil {
		e.opts.Logger.Warn("engine: remove checkpoint", "job", job.ID, "err", err)
	}
}

// replayStore folds the store into live jobs: terminal jobs become
// immediately-servable restored jobs; queued/running jobs become queued jobs
// carrying their last exploration checkpoint (with opts.Resume; otherwise
// they are left on disk untouched). The returned slice is in creation order;
// requeueCount is the number of jobs in StateQueued.
func replayStore(opts Options) (jobs []*Job, requeueCount int) {
	if opts.Store == nil {
		return nil, 0
	}
	recs, err := opts.Store.Replay()
	if err != nil {
		opts.Logger.Warn("engine: store replay failed; starting empty", "err", err)
		return nil, 0
	}
	for _, rec := range recs {
		switch {
		case rec.Terminal():
			jobs = append(jobs, restoreTerminalJob(rec))
		case opts.Resume:
			job, err := requeueJob(opts, rec)
			if err != nil {
				opts.Logger.Warn("engine: resume failed; leaving job on disk", "job", rec.ID, "err", err)
				continue
			}
			jobs = append(jobs, job)
			requeueCount++
		}
	}
	return jobs, requeueCount
}

// restoreTerminalJob rebuilds a finished job for serving: status, trace, and
// (for done jobs) the persisted result record.
func restoreTerminalJob(rec *store.JobRecord) *Job {
	j := &Job{
		ID:       rec.ID,
		state:    State(rec.State),
		created:  rec.Created,
		started:  rec.Started,
		finished: rec.Finished,
		trace:    rec.Trace,
		done:     make(chan struct{}),
	}
	j.cacheHits, j.cacheMisses = rec.CacheHits, rec.CacheMisses
	if rec.Error != "" {
		j.err = errRestored(rec.Error)
	}
	if rec.Result != nil {
		j.restored = &restoredResult{rec: rec.Result}
	}
	if j.state == StateTimeout && rec.Checkpoint != nil {
		// A timed-out job's checkpoint is its surviving partial answer: the
		// frontier endpoint serves the best-so-far set rebuilt from it.
		j.lastCheckpoint = rec.Checkpoint
	}
	if len(rec.Spans) > 0 {
		// A terminal job's timeline is read-only: replayed spans are served
		// by the timeline endpoint, and no further spans will ever start.
		j.timeline = telemetry.NewTimeline(0)
		j.timeline.Import(rec.Spans)
	}
	close(j.done)
	return j
}

// errRestored wraps a journaled error message back into an error.
type errRestored string

func (e errRestored) Error() string { return string(e) }

// requeueJob rebuilds an interrupted job and prepares it to run again under
// its original ID, resuming from its checkpoint when one survived (a job
// journaled as running with no checkpoint simply restarts from step 0 — the
// journal's trace points are superseded by the rerun, so they are dropped).
func requeueJob(opts Options, rec *store.JobRecord) (*Job, error) {
	circ, spec, cfg, err := rec.Request.Materialize()
	if err != nil {
		return nil, err
	}
	j := &Job{
		ID:      rec.ID,
		state:   StateQueued,
		created: rec.Created,
		req: Request{
			Circuit:         circ,
			Spec:            spec,
			Config:          cfg,
			SourceBenchmark: rec.Request.Benchmark,
			SourceBLIF:      rec.Request.CircuitBLIF,
			// A fresh budget for the remaining work: the deadline bounds one
			// process's run, not the job's cumulative lifetime.
			Deadline: rec.Request.Deadline(),
		},
		done:    make(chan struct{}),
		resume:  rec.Checkpoint,
		durable: store.PositionOf(rec.Checkpoint),
		// The prior run's completed spans; the engine imports them when it
		// attaches the fresh timeline, so the resumed job's timeline spans
		// both lives.
		restoredSpans: rec.Spans,
	}
	if rec.Checkpoint != nil {
		// Rebuild the trace the original process had streamed; the resumed
		// run's Progress hook appends from the checkpointed step onward.
		j.trace = rec.Checkpoint.TracePoints()
	}
	jnl, err := opts.Store.Journal(rec.ID)
	if err != nil {
		return nil, err
	}
	j.jnl = jnl
	return j, nil
}
