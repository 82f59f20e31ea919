package engine

import (
	"context"
	"time"

	"github.com/blasys-go/blasys/internal/core"
)

// A transition is one step in a job's life, made by Engine.apply. The steps
// are: queued->running, a landed checkpoint, a terminal outcome (done,
// failed, user cancel, timeout, shutdown), queued->cancelled, and the store
// notices — degraded, and reconciled once it recovers.
type transition struct {
	// from, when set, is the state the job must be in, or apply does nothing
	// and reports false: it makes queued->running and a queued cancel one
	// check-and-set.
	from State
	// to is the state the job moves to and how it got there; a zero to
	// keeps the job's state.
	to outcome
	// cancel stops the run a queued->running transition starts.
	cancel context.CancelFunc
	// cp is the exploration state of a step the run just committed.
	cp *core.ExplorerState
	// notice is a store event for the job's subscribers.
	notice *Event
	// reconcile re-writes the records of a dirty job's current state whole;
	// its notice is published unless that write fails.
	reconcile bool
	// keepJournal journals only the run's spans: a shutdown keeps the
	// journal at running, so that the next start resumes the job.
	keepJournal bool
}

// apply makes one transition of job, with its effects in one fixed order:
// write the new state's records (or mark the job dirty), count it, record
// it in memory and publish it, then release waiters. So nothing tells a
// client about a state before its record landed or the job was marked for
// reconciliation. Transitions of one job, its reconciliation included, are
// serialized by job.transMu; disk I/O happens under it, never under job.mu,
// which status reads and event fan-out take.
func (e *Engine) apply(job *Job, t transition) bool {
	// A notice alone writes and changes nothing, so it takes no lock: the
	// write whose failure tripped the breaker may be holding transMu.
	if t.to.state != "" || t.cp != nil || t.reconcile {
		job.transMu.Lock()
		defer job.transMu.Unlock()
	}
	job.mu.Lock()
	cur := job.outcome
	job.mu.Unlock()
	if t.from != "" && cur.state != t.from {
		return false
	}
	now := time.Now()

	landed, dirty := false, job.dirty()
	switch {
	case t.reconcile:
		// After Close a shutdown job reads cancelled in memory while its
		// journal rightly says running; it is not re-written.
		landed = dirty && !e.isClosed() && e.write(job, cur, true)
	case t.cp != nil:
		// A dirty job's journal may lack what a restart needs to resume it,
		// so its steps are not announced until it is reconciled.
		landed = e.writeStep(job, t.cp) && !dirty
	case t.keepJournal:
		e.writeSpans(job)
	case t.to.state != "":
		e.write(job, t.to, false)
	}

	if t.to.state != "" {
		e.count(cur.state, t.to.state, now.Sub(job.created))
	}

	job.mu.Lock()
	switch {
	case t.to.state == StateRunning:
		job.outcome = t.to
		job.started, job.cancel = now, t.cancel
		job.publishLocked(Event{Type: EventState, State: StateRunning})
	case t.to.state.Terminal():
		job.outcome = t.to
		job.finished = now
		job.publishTerminalLocked(job.stateEventLocked())
		job.closeSubsLocked()
	}
	if t.cp != nil {
		job.lastCheckpoint, job.cpFrontier = t.cp, nil
		trace := t.cp.TracePoints()
		job.publishLocked(Event{Type: EventTrace, Trace: &trace[len(trace)-1]})
		if landed {
			job.publishLocked(Event{Type: EventCheckpoint, Step: t.cp.Step})
		}
	}
	if t.notice != nil && (!t.reconcile || landed || !dirty) {
		job.publishLocked(*t.notice)
	}
	job.mu.Unlock()

	if t.to.state.Terminal() {
		close(job.done)
	}
	return !t.reconcile || landed
}

// count moves the engine's lifecycle counters for a job going from one
// state to another; queued is how long it waited for a worker. A job leaves
// the queue depth and the running gauge before its waiters are released, so
// a client that submits again at once is not shed on its account.
func (e *Engine) count(from, to State, queued time.Duration) {
	m := e.met
	switch from {
	case StateQueued:
		m.queueDepth.Add(-1)
	case StateRunning:
		m.running.Add(-1)
	}
	switch to {
	case StateRunning:
		m.running.Add(1)
		m.queueWait.Observe(queued.Seconds())
	case StateDone:
		m.completed.Inc()
	case StateFailed:
		m.failed.Inc()
	case StateCancelled:
		m.cancelled.Inc()
	case StateTimeout:
		m.timedOut.Inc()
	}
}
