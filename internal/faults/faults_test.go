package faults

import (
	"errors"
	"testing"
	"time"
)

// TestNilInjectorIsInert pins the production clean path: Fire on a nil
// receiver returns nil for every op, and Snapshot is nil.
func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	for op := range knownOps {
		if err := in.Fire(op); err != nil {
			t.Fatalf("nil injector Fire(%s) = %v, want nil", op, err)
		}
	}
	if s := in.Snapshot(); s != nil {
		t.Fatalf("nil injector Snapshot() = %v, want nil", s)
	}
}

// TestEmptyInjectorIsInert pins the second half of the passivity contract:
// an armed-but-empty injector injects nothing.
func TestEmptyInjectorIsInert(t *testing.T) {
	in := New(1)
	for i := 0; i < 100; i++ {
		if err := in.Fire(OpJournalAppend); err != nil {
			t.Fatalf("empty injector fired: %v", err)
		}
	}
}

func TestAfterTimesWindow(t *testing.T) {
	in := New(1).Add(Rule{Op: OpJournalAppend, After: 2, Times: 3})
	var got []bool
	for i := 0; i < 8; i++ {
		got = append(got, in.Fire(OpJournalAppend) != nil)
	}
	want := []bool{false, false, true, true, true, false, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d: fired=%v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
	// Other ops are untouched by the rule.
	if err := in.Fire(OpCheckpointWrite); err != nil {
		t.Fatalf("unrelated op fired: %v", err)
	}
}

// TestProbDeterminism: the same seed and the same call sequence reproduce
// the same fault schedule exactly.
func TestProbDeterminism(t *testing.T) {
	fire := func(seed int64) []bool {
		in := New(seed).Add(Rule{Op: OpCacheWrite, Prob: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.Fire(OpCacheWrite) != nil
		}
		return out
	}
	a, b := fire(42), fire(42)
	var fired int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d diverged between identical seeds", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("prob=0.5 fired %d/%d times; want a mix", fired, len(a))
	}
	c := fire(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 64-call schedules (suspicious)")
	}
}

func TestErrorKinds(t *testing.T) {
	in := New(1).Add(
		Rule{Op: OpJournalAppend, Err: ErrNoSpace},
		Rule{Op: OpCheckpointWrite, Torn: true},
		Rule{Op: OpJournalSync},
	)
	if err := in.Fire(OpJournalAppend); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	err := in.Fire(OpCheckpointWrite)
	if !IsTorn(err) {
		t.Fatalf("want torn error, got %v", err)
	}
	if !IsInjected(err) {
		t.Fatalf("torn error should register as injected: %v", err)
	}
	if err := in.Fire(OpJournalSync); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("default error should be ErrInjectedIO, got %v", err)
	}
	if IsInjected(errors.New("organic")) {
		t.Fatal("organic error misclassified as injected")
	}
}

// TestLatencyOnlyRule: a Latency rule with no Err delays but succeeds.
func TestLatencyOnlyRule(t *testing.T) {
	in := New(1).Add(Rule{Op: OpCacheRead, Latency: 20 * time.Millisecond})
	start := time.Now()
	if err := in.Fire(OpCacheRead); err != nil {
		t.Fatalf("latency-only rule returned error: %v", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("latency rule slept %v, want >= ~20ms", d)
	}
}

func TestSnapshotCounters(t *testing.T) {
	in := New(1).Add(Rule{Op: OpJournalAppend, After: 1, Times: 1})
	for i := 0; i < 3; i++ {
		in.Fire(OpJournalAppend)
	}
	s := in.Snapshot()
	if len(s) != 1 {
		t.Fatalf("want 1 rule, got %d", len(s))
	}
	if s[0].Seen != 3 || s[0].Fired != 1 {
		t.Fatalf("seen/fired = %d/%d, want 3/1", s[0].Seen, s[0].Fired)
	}
	in.Clear()
	if len(in.Snapshot()) != 0 {
		t.Fatal("Clear left rules armed")
	}
	if err := in.Fire(OpJournalAppend); err != nil {
		t.Fatalf("cleared injector fired: %v", err)
	}
}

func TestParseSchedule(t *testing.T) {
	rules, err := ParseSchedule("journal.append:after=2,times=3,err=eio;checkpoint.write:err=enospc;cache.write:latency=5ms;journal.sync:torn;probe:prob=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 5 {
		t.Fatalf("want 5 rules, got %d", len(rules))
	}
	if r := rules[0]; r.Op != OpJournalAppend || r.After != 2 || r.Times != 3 || !errors.Is(r.Err, ErrInjectedIO) {
		t.Fatalf("rule 0 = %+v", r)
	}
	if r := rules[1]; r.Op != OpCheckpointWrite || !errors.Is(r.Err, ErrNoSpace) {
		t.Fatalf("rule 1 = %+v", r)
	}
	if r := rules[2]; r.Op != OpCacheWrite || r.Latency != 5*time.Millisecond || r.Err != nil {
		t.Fatalf("rule 2 = %+v", r)
	}
	if r := rules[3]; r.Op != OpJournalSync || !r.Torn {
		t.Fatalf("rule 3 = %+v", r)
	}
	if r := rules[4]; r.Op != OpProbe || r.Prob != 0.25 {
		t.Fatalf("rule 4 = %+v", r)
	}

	// A bare op fails every call.
	rules, err = ParseSchedule("journal.open")
	if err != nil || len(rules) != 1 || rules[0].Op != OpJournalOpen {
		t.Fatalf("bare op: rules=%v err=%v", rules, err)
	}

	for _, bad := range []string{
		"",
		"  ;  ",
		"disk.levitate",
		"journal.append:err=ebadf",
		"journal.append:after=two",
		"journal.append:torn=banana",
		"journal.append:volume=11",
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted, want error", bad)
		}
	}
}

// TestParseScheduleRoundTrip: a parsed schedule armed on an injector behaves
// as specified (the -faults flag path).
func TestParseScheduleRoundTrip(t *testing.T) {
	rules, err := ParseSchedule("journal.append:after=1,times=1,err=enospc")
	if err != nil {
		t.Fatal(err)
	}
	in := New(7).Add(rules...)
	if err := in.Fire(OpJournalAppend); err != nil {
		t.Fatalf("call 1 fired early: %v", err)
	}
	if err := in.Fire(OpJournalAppend); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("call 2: want ErrNoSpace, got %v", err)
	}
	if err := in.Fire(OpJournalAppend); err != nil {
		t.Fatalf("call 3 fired after window: %v", err)
	}
}
