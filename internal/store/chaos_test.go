package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/faults"
	"github.com/blasys-go/blasys/internal/qor"
)

// fastRetry shrinks the retry delays so fault tests finish in milliseconds.
var fastRetry = RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}

// TestRetryAbsorbsTransientAppendFaults: a fault window shorter than the
// retry budget is invisible to the caller — the append lands and the journal
// replays clean.
func TestRetryAbsorbsTransientAppendFaults(t *testing.T) {
	s := openTestStore(t)
	s.SetRetryPolicy(fastRetry)
	inj := faults.New(1).Add(faults.Rule{Op: faults.OpJournalAppend, Times: 2, Err: faults.ErrInjectedIO})
	s.SetFaults(inj)

	j, err := s.Journal("retry-job")
	if err != nil {
		t.Fatalf("Journal: %v", err)
	}
	if err := j.State("running", ""); err != nil {
		t.Fatalf("append should survive 2 transient faults under a 3-attempt policy: %v", err)
	}
	if err := s.Degraded(); err != nil {
		t.Fatalf("absorbed faults must not trip the breaker: %v", err)
	}
	snap := inj.Snapshot()
	if len(snap) != 1 || snap[0].Fired != 2 {
		t.Fatalf("injector state = %+v, want 2 fired", snap)
	}
}

// TestRetryExhaustionTripsBreaker: a persistent journal fault exhausts the
// retry budget, surfaces the error, opens the breaker, and subsequent writes
// short-circuit with ErrDegraded without touching the disk.
func TestRetryExhaustionTripsBreaker(t *testing.T) {
	s := openTestStore(t)
	s.SetRetryPolicy(fastRetry)
	s.SetProbeInterval(time.Hour) // hold the breaker open for the assertions
	inj := faults.New(1).Add(faults.Rule{Op: faults.OpJournalAppend, Err: faults.ErrNoSpace})
	s.SetFaults(inj)

	j, err := s.Journal("sick-job")
	if err != nil {
		t.Fatalf("Journal: %v", err)
	}
	if err := j.State("running", ""); !errors.Is(err, faults.ErrNoSpace) {
		t.Fatalf("want the injected ErrNoSpace after exhaustion, got %v", err)
	}

	derr := s.Degraded()
	if derr == nil {
		t.Fatal("breaker should be open after retry exhaustion")
	}
	if !errors.Is(derr, ErrDegraded) {
		t.Fatalf("Degraded() = %v, want errors.Is(_, ErrDegraded)", derr)
	}
	var de *DegradedError
	if !errors.As(derr, &de) || de.State != "open" || de.Since.IsZero() || de.Reason == "" {
		t.Fatalf("DegradedError = %+v", de)
	}

	// Short-circuit: the armed injector would fail the write, but degraded
	// mode never attempts it, so the error is ErrDegraded, not the fault.
	before := inj.Snapshot()[0].Seen
	if err := j.State("running", ""); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded append = %v, want ErrDegraded", err)
	}
	if after := inj.Snapshot()[0].Seen; after != before {
		t.Fatal("degraded mode still reached the fault point (disk I/O attempted)")
	}
}

// TestBreakerRecoversThroughHalfOpenProbe: with the fault cleared, the
// background probe closes the breaker, fires the recovery callback, and
// records probe spans for both the failed and the successful attempt.
func TestBreakerRecoversThroughHalfOpenProbe(t *testing.T) {
	s := openTestStore(t)
	s.SetRetryPolicy(fastRetry)
	s.SetProbeInterval(5 * time.Millisecond)

	recovered := make(chan struct{})
	s.OnStateChange(nil, func() { close(recovered) })

	// The probe fault keeps the first half-open attempts failing so the test
	// observes open -> half-open -> open -> ... -> closed.
	inj := faults.New(1).Add(faults.Rule{Op: faults.OpProbe, Times: 2, Err: faults.ErrInjectedIO})
	s.SetFaults(inj)
	s.TripForTest(errors.New("simulated write exhaustion"))

	select {
	case <-recovered:
	case <-time.After(5 * time.Second):
		t.Fatal("breaker never recovered after the fault window closed")
	}
	if err := s.Degraded(); err != nil {
		t.Fatalf("Degraded() after recovery = %v, want nil", err)
	}

	spans := s.ProbeSpans()
	var failed, ok int
	for _, sp := range spans {
		if sp.Name != "store.probe" {
			t.Fatalf("unexpected span name %q", sp.Name)
		}
		switch sp.Attrs["outcome"] {
		case "failed":
			failed++
		case "recovered":
			ok++
		}
	}
	if failed < 2 || ok != 1 {
		t.Fatalf("probe spans: %d failed, %d recovered; want >=2 failed and exactly 1 recovered", failed, ok)
	}
}

// TestBreakerTripDuringProbeFailsIt: a write that fails while a half-open
// probe is in flight fails that probe, since its check came before the
// failure. The breaker re-opens instead of closing and firing recovery right
// after a failed write, and a later probe recovers it.
func TestBreakerTripDuringProbeFailsIt(t *testing.T) {
	s := openTestStore(t)
	s.SetProbeInterval(5 * time.Millisecond)
	recovered := make(chan struct{}, 2)
	s.OnStateChange(nil, func() { recovered <- struct{}{} })
	s.SetFaults(faults.New(1).Add(faults.Rule{Op: faults.OpProbe, Times: 1, Latency: 200 * time.Millisecond}))
	s.TripForTest(errors.New("first write failed"))

	deadline := time.Now().Add(5 * time.Second)
	for {
		var de *DegradedError
		if errors.As(s.Degraded(), &de) && de.State == "half-open" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never went half-open: %v", s.Degraded())
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.TripForTest(errors.New("write failed during the probe"))

	select {
	case <-recovered:
	case <-time.After(5 * time.Second):
		t.Fatal("breaker never recovered")
	}
	spans := s.ProbeSpans()
	if len(spans) < 2 {
		t.Fatalf("recovered after %d probes, want the failed one and a later one", len(spans))
	}
	if got := spans[0].Attrs["outcome"]; got != "failed" {
		t.Fatalf("the probe in flight when a write failed reports %v, want failed", got)
	}
	if got, _ := spans[0].Attrs["error"].(string); !strings.Contains(got, "write failed during the probe") {
		t.Fatalf("failed probe's error = %q, want the write's failure", got)
	}
	select {
	case <-recovered:
		t.Fatal("recovery fired twice")
	case <-time.After(20 * time.Millisecond):
	}
}

// TestDegradedCallbackFiresOnTrip: the onDegraded callback reports the cause.
func TestDegradedCallbackFiresOnTrip(t *testing.T) {
	s := openTestStore(t)
	s.SetProbeInterval(time.Hour)
	causes := make(chan error, 1)
	s.OnStateChange(func(err error) { causes <- err }, nil)
	s.TripForTest(errors.New("disk on fire"))
	select {
	case err := <-causes:
		if err == nil || err.Error() != "disk on fire" {
			t.Fatalf("onDegraded cause = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("onDegraded never fired")
	}
	// A second trip while open is idempotent: no second callback.
	s.TripForTest(errors.New("still on fire"))
	select {
	case err := <-causes:
		t.Fatalf("duplicate onDegraded callback: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestCacheWriteFaultDoesNotTripBreaker: cache fills retry but never open
// the circuit — losing a fill only costs recomputation.
func TestCacheWriteFaultDoesNotTripBreaker(t *testing.T) {
	s := openTestStore(t)
	s.SetRetryPolicy(fastRetry)
	s.SetFaults(faults.New(1).Add(faults.Rule{Op: faults.OpCacheWrite, Err: faults.ErrNoSpace}))

	dc := s.DiskCache()
	var k bmf.Key
	k[0] = 0xab
	dc.Put(k, &bmf.Result{Hamming: 2})
	if err := s.Degraded(); err != nil {
		t.Fatalf("cache-fill failure tripped the breaker: %v", err)
	}
	if _, ok := dc.Get(k); ok {
		t.Fatal("failed Put should not have landed an entry")
	}
}

// TestDegradedCacheFillsAreSkipped: while degraded, Put is a silent no-op
// (memory layer above still serves) and Get of existing entries still works.
func TestDegradedCacheFillsAreSkipped(t *testing.T) {
	s := openTestStore(t)
	s.SetRetryPolicy(fastRetry)
	s.SetProbeInterval(time.Hour)

	dc := s.DiskCache()
	var warm bmf.Key
	warm[0] = 1
	dc.Put(warm, &bmf.Result{Hamming: 3})
	if _, ok := dc.Get(warm); !ok {
		t.Fatal("warm entry missing before degradation")
	}

	s.TripForTest(errors.New("journal exhausted"))
	var cold bmf.Key
	cold[0] = 2
	dc.Put(cold, &bmf.Result{Hamming: 4})
	if _, ok := dc.Get(cold); ok {
		t.Fatal("degraded Put should have been dropped")
	}
	if _, ok := dc.Get(warm); !ok {
		t.Fatal("degraded mode must not break reads of existing entries")
	}
}

// TestWritableSplitsJobsAndCache: the probe distinguishes which directory is
// sick, so /readyz detail can report jobs vs cache separately.
func TestWritableSplitsJobsAndCache(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Writable(); err != nil {
		t.Fatalf("fresh store not writable: %v", err)
	}

	// Replace the cache dir with a regular file: probes there must fail while
	// the jobs dir stays healthy. (Works regardless of uid, unlike chmod.)
	cacheDir := filepath.Join(dir, cacheSubdir)
	if err := os.RemoveAll(cacheDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cacheDir, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = s.Writable()
	var pe *ProbeError
	if !errors.As(err, &pe) {
		t.Fatalf("Writable = %v, want *ProbeError", err)
	}
	if pe.Jobs != nil || pe.Cache == nil {
		t.Fatalf("ProbeError jobs=%v cache=%v, want only cache sick", pe.Jobs, pe.Cache)
	}
}

// TestWritableReportsInjectedProbeFault: an armed probe rule fails Writable
// outright (the hook the chaos drill and -faults flag use).
func TestWritableReportsInjectedProbeFault(t *testing.T) {
	s := openTestStore(t)
	s.SetFaults(faults.New(1).Add(faults.Rule{Op: faults.OpProbe, Err: faults.ErrInjectedIO}))
	if err := s.Writable(); !faults.IsInjected(err) {
		t.Fatalf("Writable = %v, want injected fault", err)
	}
}

// TestTornWriteHealsOnRetry: an injected torn append leaves a partial line;
// the retry poisons the tail with a newline and relands the record, and
// replay recovers every record while counting exactly the torn fragment.
func TestTornWriteHealsOnRetry(t *testing.T) {
	s := openTestStore(t)
	s.SetRetryPolicy(fastRetry)
	s.SetFaults(faults.New(1).Add(faults.Rule{Op: faults.OpJournalAppend, After: 1, Times: 1, Torn: true}))

	circ := smallCircuit()
	req, err := NewRequestRecord(circ, qor.Unsigned("s", len(circ.Outputs)), core.Config{K: 4, M: 3}, "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Journal("torn-job")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Request(req); err != nil {
		t.Fatalf("Request: %v", err)
	}
	// This append tears mid-write, then heals on retry.
	if err := j.State("running", ""); err != nil {
		t.Fatalf("torn append did not heal: %v", err)
	}
	if err := j.State("done", ""); err != nil {
		t.Fatalf("State: %v", err)
	}

	recs, err := s.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.State != "done" || rec.Request == nil {
		t.Fatalf("record = state %q, request %v", rec.State, rec.Request != nil)
	}
	if rec.CorruptLines != 1 {
		t.Fatalf("CorruptLines = %d, want exactly the torn fragment (1)", rec.CorruptLines)
	}
}

// TestBackoffDelayBounds: delays grow exponentially, cap at MaxDelay, and
// jitter keeps them within [d/2, d).
func TestBackoffDelayBounds(t *testing.T) {
	p := RetryPolicy{Attempts: 10, BaseDelay: 4 * time.Millisecond, MaxDelay: 16 * time.Millisecond}
	expected := []time.Duration{4, 8, 16, 16, 16} // ms, pre-jitter, for retries 1..5
	for i, wantMS := range expected {
		want := wantMS * time.Millisecond
		for trial := 0; trial < 32; trial++ {
			d := backoffDelay(p, i+1)
			if d < want/2 || d >= want {
				t.Fatalf("retry %d: delay %v outside [%v, %v)", i+1, d, want/2, want)
			}
		}
	}
}

// TestSetRetryPolicyNormalizes: degenerate policies are clamped sane.
func TestSetRetryPolicyNormalizes(t *testing.T) {
	s := openTestStore(t)
	s.SetRetryPolicy(RetryPolicy{Attempts: 0, BaseDelay: -1, MaxDelay: -1})
	if s.retry.Attempts != 1 {
		t.Fatalf("Attempts = %d, want 1", s.retry.Attempts)
	}
	if s.retry.BaseDelay != DefaultRetryPolicy.BaseDelay || s.retry.MaxDelay < s.retry.BaseDelay {
		t.Fatalf("normalized policy = %+v", s.retry)
	}
}
