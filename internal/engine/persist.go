package engine

import (
	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/store"
	"github.com/blasys-go/blasys/internal/telemetry"
)

// This file is the engine's durability glue: journaling job facts into the
// store as they happen and replaying the store into live jobs at startup.
// Every writer is a no-op without a store and degrades to a logged warning
// on I/O errors — the in-memory service keeps working when the disk
// misbehaves; durability is best-effort, correctness is not. Every failed
// write of a job's state or step marks the job dirty, which is the
// reconciliation work-list: once the store's circuit breaker closes again,
// the engine re-journals dirty jobs from memory (see Engine.onRecover).

// persistDiscard undoes a submission's journaling when the submission is
// rejected after its request was journaled (queue full, engine closed):
// without this the rejected job would replay as queued on the next restart.
func (e *Engine) persistDiscard(job *Job) {
	if e.opts.Store == nil {
		return
	}
	job.setJournal(nil)
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

func (j *Job) setJournal(jnl *store.Journal) {
	j.mu.Lock()
	j.jnl = jnl
	j.mu.Unlock()
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

// write is the one writer of the records that make a job's state o
// durable. A whole write (a new submission, or reconciliation after a
// degraded window) serves a journal that may lack every earlier record: it
// opens the journal if the job has none and writes the request first and,
// for a queued, running or timed-out job, its whole exploration state as
// one step-log record based at step 0. Then come a done job's result and
// the state record. A terminal job's journal is then closed and its step
// log dropped; a timed-out job keeps the step log as the durable record of
// its best-so-far frontier, and a dirty job keeps it as its resume point
// until reconciliation lands its terminal record. A failed write marks the
// job dirty; a whole write that lands clears the mark. Reports whether the
// records landed. Callers hold job.transMu, or own a job not yet published.
func (e *Engine) write(job *Job, o outcome, whole bool) bool {
	if e.opts.Store == nil || (job.journal() == nil && !whole) {
		return false // memory-only, or a job left dirty without a journal
	}
	err := e.writeRecords(job, o, whole)
	switch {
	case err != nil:
		job.markDirty()
		e.opts.Logger.Warn("engine: journal write failed; job is dirty until the store recovers",
			"job", job.ID, "state", string(o.state), "err", err)
	case whole:
		job.clearDirty()
	}
	if o.state.Terminal() {
		e.closeJournal(job, o.state == StateTimeout)
	}
	return err == nil
}

func (e *Engine) writeRecords(job *Job, o outcome, whole bool) error {
	jnl := job.journal()
	if whole {
		if jnl == nil {
			var err error
			if jnl, err = e.opts.Store.Journal(job.ID); err != nil {
				return err
			}
			job.setJournal(jnl)
		}
		req, err := job.req.record()
		if err != nil {
			return err
		}
		if err := jnl.Request(req); err != nil {
			return err
		}
		if cp := job.checkpoint(); cp != nil && (!o.state.Terminal() || o.state == StateTimeout) {
			if err := jnl.Checkpoint(cp, store.Position{}); err != nil {
				return err
			}
			job.markDurable(store.PositionOf(cp))
		}
	}
	if o.state == StateDone && o.result != nil {
		rec, err := store.NewResultRecord(o.result)
		if err != nil {
			return err
		}
		if err := jnl.Result(rec, o.cacheHits, o.cacheMisses); err != nil {
			return err
		}
	}
	return jnl.State(string(o.state), o.errText())
}

// writeStep makes a committed step durable with one fsynced step-log record
// holding what st adds past the job's last durable checkpoint, and reports
// whether it landed; a failed append marks the job dirty. Callers hold
// job.transMu.
func (e *Engine) writeStep(job *Job, st *core.ExplorerState) bool {
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

// closeJournal closes a terminal job's journal and step log, releasing their
// descriptors, and drops the step log unless keepSteps or the job is dirty.
func (e *Engine) closeJournal(job *Job, keepSteps bool) {
	jnl := job.journal()
	if jnl == nil {
		return
	}
	job.setJournal(nil)
	if err := jnl.Close(); err != nil {
		e.opts.Logger.Warn("engine: close journal", "job", job.ID, "err", err)
	}
	if keepSteps || job.dirty() {
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
		ID: rec.ID,
		outcome: outcome{
			state:     State(rec.State),
			cacheHits: rec.CacheHits, cacheMisses: rec.CacheMisses,
		},
		created:  rec.Created,
		started:  rec.Started,
		finished: rec.Finished,
		trace:    rec.Trace,
		done:     make(chan struct{}),
	}
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
		outcome: outcome{state: StateQueued},
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
