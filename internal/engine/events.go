package engine

import (
	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/telemetry"
)

// Event types streamed by GET /v1/jobs/{id}/events and Job.Subscribe.
const (
	// EventState announces a lifecycle transition; terminal states carry the
	// result summary (or the error) and end the stream.
	EventState = "state"
	// EventTrace carries one committed exploration step, published once the
	// step's record is written or the job is marked for reconciliation.
	EventTrace = "trace"
	// EventCheckpoint announces that the exploration state through the given
	// step is durable: its step-log record was appended and fsynced. It is
	// emitted only on engines with a store, and only after a write that
	// landed — a step whose append failed (degraded store) announces none,
	// and neither does a job marked for reconciliation, whose journal may
	// lack what a restart needs to resume it.
	EventCheckpoint = "checkpoint"
	// EventStage carries one completed timeline span (queue, run, profile,
	// explore, step), summarizing where the job just spent its time.
	EventStage = "stage"
	// EventDegraded announces that the store's circuit breaker opened while
	// this job is live: the run continues memory-only, but progress recorded
	// from here until the matching EventRecovered is not yet durable.
	EventDegraded = "degraded"
	// EventRecovered announces that the store recovered and the engine
	// reconciled — everything the degraded window dropped has been
	// re-journaled from memory.
	EventRecovered = "recovered"
)

// Event is one entry of a job's live progress stream.
type Event struct {
	Type  string           `json:"type"`
	State State            `json:"state,omitempty"`
	Error string           `json:"error,omitempty"`
	Trace *core.TracePoint `json:"trace,omitempty"`
	// Step is the committed-step count covered by a checkpoint event.
	Step   int            `json:"step,omitempty"`
	Result *ResultSummary `json:"result,omitempty"`
	// Reason carries the cause of an EventDegraded.
	Reason string `json:"reason,omitempty"`
	// Span is the completed stage of an EventStage event.
	Span *telemetry.SpanRecord `json:"span,omitempty"`
}

// eventBuffer is the per-subscriber channel slack on top of the replayed
// backlog. A subscriber that stalls longer than this many events misses the
// dropped ones (the stream is progress telemetry, not the source of truth —
// status and result endpoints always serve the full picture).
const eventBuffer = 256

// Subscribe returns a channel replaying the job's history so far (every
// committed step's trace point, current state) and then streaming live
// events until the job reaches a terminal state, at which point the channel
// is closed. As with Job.Wait, a state or step it reports is already durable
// (or the job is marked for reconciliation); a checkpoint event's step is
// durable. The returned cancel function detaches the subscriber early; it is
// safe to call after the channel closed.
func (j *Job) Subscribe() (<-chan Event, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	// Replay order: the trace so far first, current state last — so a
	// terminal state event is always the final event a subscriber sees,
	// whether it arrived live or from the backlog.
	trace := j.traceLocked()
	backlog := make([]Event, 0, len(trace)+1)
	for i := range trace {
		backlog = append(backlog, Event{Type: EventTrace, Trace: &trace[i]})
	}
	if j.state != StateQueued {
		// Queued jobs emit their first event on the queued->running flip;
		// replaying "queued" here would duplicate it for most subscribers.
		backlog = append(backlog, j.stateEventLocked())
	}
	ch := make(chan Event, len(backlog)+eventBuffer)
	for _, ev := range backlog {
		ch <- ev
	}
	if j.state.Terminal() {
		close(ch)
		return ch, func() {}
	}
	if j.subs == nil {
		j.subs = make(map[int]chan Event)
	}
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	cancel := func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if c, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(c)
		}
	}
	return ch, cancel
}

// stateEventLocked renders the job's current state as an event, with the
// result summary (or error) attached for terminal states. Callers hold j.mu.
func (j *Job) stateEventLocked() Event {
	ev := Event{Type: EventState, State: j.state}
	if j.err != nil {
		ev.Error = j.err.Error()
	}
	ev.Result = j.resultSummaryLocked()
	return ev
}

// publishLocked fans an event out to every live subscriber, dropping it for
// subscribers whose buffer is full. Callers hold j.mu.
func (j *Job) publishLocked(ev Event) {
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop rather than stall the flow
		}
	}
}

// publishTerminalLocked delivers a terminal event even to subscribers whose
// buffer is full, discarding their oldest buffered events to make room:
// trace points are droppable telemetry, but Subscribe promises the stream
// ends with the terminal state. Callers hold j.mu.
func (j *Job) publishTerminalLocked(ev Event) {
	for _, ch := range j.subs {
		for {
			select {
			case ch <- ev:
			default:
				select {
				case <-ch: // evict the oldest buffered event
				default:
				}
				continue
			}
			break
		}
	}
}

// closeSubsLocked ends every subscription (after the terminal event was
// published). Callers hold j.mu.
func (j *Job) closeSubsLocked() {
	for id, ch := range j.subs {
		delete(j.subs, id)
		close(ch)
	}
}
