package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/blasys-go/blasys/internal/telemetry"
)

// Circuit-breaker states. The numeric values are exported on the
// blasys_store_breaker_state gauge.
const (
	breakerClosed   int32 = 0 // store healthy, writes flow
	breakerOpen     int32 = 1 // writes short-circuit, waiting to probe
	breakerHalfOpen int32 = 2 // one probe in flight
)

func breakerStateName(st int32) string {
	switch st {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// ErrDegraded marks errors returned while the store's circuit breaker is
// open: the write was short-circuited, not attempted. Match with errors.Is.
var ErrDegraded = errors.New("store degraded")

// DegradedError is the concrete error carried by degraded-mode rejections
// and by a degraded store's Writable/Degraded methods; /readyz unwraps it
// (errors.As) to report the reason and onset to operators.
type DegradedError struct {
	Reason string    // the failure that tripped the breaker
	Since  time.Time // when the breaker opened
	State  string    // "open" or "half-open"
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("store: degraded (%s since %s): %s",
		e.State, e.Since.Format(time.RFC3339), e.Reason)
}

// Is makes errors.Is(err, ErrDegraded) match.
func (e *DegradedError) Is(target error) bool { return target == ErrDegraded }

// breaker is the store's write circuit: journal/checkpoint retry exhaustion
// trips it open, a background timer probes writability half-open, and a
// successful probe closes it again (letting the engine reconcile what it
// buffered in memory meanwhile).
type breaker struct {
	s     *Store
	state atomic.Int32

	mu         sync.Mutex
	probeEvery time.Duration
	reason     string
	since      time.Time
	timer      *time.Timer
	stopped    bool
	// failedProbe is the cause of a trip while a half-open probe is in
	// flight: that probe's check came before the failure, so it fails too.
	failedProbe error
	onDegraded  func(error)
	onRecover   func()

	// tl records one span per half-open probe, so chaos tests and the
	// timeline surface can see when recovery was attempted and how it went.
	tl *telemetry.Timeline
}

// defaultProbeInterval balances recovery latency against probe I/O load.
const defaultProbeInterval = time.Second

func newBreaker(s *Store) *breaker {
	return &breaker{s: s, probeEvery: defaultProbeInterval, tl: telemetry.NewTimeline(0)}
}

// trip opens the breaker (idempotent while already open). A trip while a
// probe is in flight fails that probe: it re-opens the breaker instead of
// closing it.
func (b *breaker) trip(cause error) {
	b.mu.Lock()
	if b.state.Load() == breakerHalfOpen {
		b.failedProbe = cause
	}
	if b.stopped || b.state.Load() != breakerClosed {
		b.mu.Unlock()
		return
	}
	b.state.Store(breakerOpen)
	mBreakerState.Set(float64(breakerOpen))
	b.reason = cause.Error()
	b.since = time.Now().UTC()
	b.timer = time.AfterFunc(b.probeEvery, b.probe)
	cb := b.onDegraded
	b.mu.Unlock()
	b.s.log.Warn("store: circuit breaker opened, entering degraded mode", "cause", cause)
	if cb != nil {
		cb(cause)
	}
}

// probe runs one half-open writability check on the breaker's timer
// goroutine. Failure — of the check, or of a write while it ran — re-opens
// and reschedules; success closes the breaker and fires the recovery
// callback (the engine reconciles journals there).
func (b *breaker) probe() {
	b.mu.Lock()
	if b.stopped || b.state.Load() != breakerOpen {
		b.mu.Unlock()
		return
	}
	b.state.Store(breakerHalfOpen)
	mBreakerState.Set(float64(breakerHalfOpen))
	b.failedProbe = nil
	b.mu.Unlock()

	sp := b.tl.Start("store.probe")
	start := time.Now()
	err := b.s.Writable()
	mProbeSeconds.Observe(time.Since(start).Seconds())

	b.mu.Lock()
	if err == nil {
		err = b.failedProbe
	}
	// The span ends under b.mu, so a trip it covers was seen by this probe.
	if err != nil {
		sp.SetAttr("outcome", "failed")
		sp.SetAttr("error", err.Error())
	} else {
		sp.SetAttr("outcome", "recovered")
	}
	sp.End()
	if b.stopped {
		b.mu.Unlock()
		return
	}
	if err != nil {
		mProbes.With("failed").Inc()
		b.state.Store(breakerOpen)
		mBreakerState.Set(float64(breakerOpen))
		b.reason = err.Error()
		b.timer = time.AfterFunc(b.probeEvery, b.probe)
		b.mu.Unlock()
		return
	}
	mProbes.With("recovered").Inc()
	b.state.Store(breakerClosed)
	mBreakerState.Set(float64(breakerClosed))
	b.reason, b.since = "", time.Time{}
	cb := b.onRecover
	b.mu.Unlock()
	b.s.log.Info("store: circuit breaker closed, leaving degraded mode")
	if cb != nil {
		cb()
	}
}

// stop halts probing permanently (store Close).
func (b *breaker) stop() {
	b.mu.Lock()
	b.stopped = true
	if b.timer != nil {
		b.timer.Stop()
	}
	b.mu.Unlock()
}

// Degraded reports the store's breaker status: nil while closed (healthy),
// a *DegradedError while open or half-open. It never touches the disk, so
// it is safe on hot paths (readiness checks, per-append short-circuits).
func (s *Store) Degraded() error {
	if s.brk == nil {
		return nil
	}
	st := s.brk.state.Load()
	if st == breakerClosed {
		return nil
	}
	s.brk.mu.Lock()
	de := &DegradedError{Reason: s.brk.reason, Since: s.brk.since, State: breakerStateName(st)}
	s.brk.mu.Unlock()
	return de
}

// OnStateChange installs the degraded-mode callbacks: onDegraded fires once
// when the breaker opens (with the cause), onRecover once when a half-open
// probe succeeds. Both run outside store locks but must still be fast —
// they execute on writer/timer goroutines. Call before serving traffic.
func (s *Store) OnStateChange(onDegraded func(error), onRecover func()) {
	s.brk.mu.Lock()
	s.brk.onDegraded = onDegraded
	s.brk.onRecover = onRecover
	s.brk.mu.Unlock()
}

// SetProbeInterval adjusts how often an open breaker probes for recovery
// (tests shrink it to keep chaos suites fast).
func (s *Store) SetProbeInterval(d time.Duration) {
	if d <= 0 {
		return
	}
	s.brk.mu.Lock()
	s.brk.probeEvery = d
	s.brk.mu.Unlock()
}

// ProbeSpans returns the recorded half-open probe spans (one per attempt,
// with an "outcome" attribute) — the observable trace of recovery attempts.
func (s *Store) ProbeSpans() []telemetry.SpanRecord {
	return s.brk.tl.Records()
}

// TripForTest force-opens the breaker as if a write had exhausted retries.
// Exported for tests and drills only.
func (s *Store) TripForTest(cause error) { s.brk.trip(cause) }
