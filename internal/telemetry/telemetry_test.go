package telemetry

import (
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	if again := r.Counter("c_total", "help"); again != c {
		t.Fatal("GetOrCreate returned a different counter for the same name")
	}
	g := r.Gauge("g", "help")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}

	// nil receivers are the "telemetry off" handles and must not panic.
	var nc *Counter
	var ng *Gauge
	var nh *Histogram
	nc.Inc()
	ng.Set(1)
	nh.Observe(1)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 56.05; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, line := range []string{
		"# HELP h_seconds help",
		"# TYPE h_seconds histogram",
		`h_seconds_bucket{le="0.1"} 1`,
		`h_seconds_bucket{le="1"} 3`,
		`h_seconds_bucket{le="10"} 4`,
		`h_seconds_bucket{le="+Inf"} 5`,
		"h_seconds_sum 56.05",
		"h_seconds_count 5",
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("req_total", "help", "tier", "result")
	cv.With("memory", "hit").Add(3)
	cv.With("disk", "miss").Inc()
	hv := r.HistogramVec("lat_seconds", "help", []float64{1}, "tier")
	hv.With("disk").Observe(0.5)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, line := range []string{
		`req_total{tier="memory",result="hit"} 3`,
		`req_total{tier="disk",result="miss"} 1`,
		`lat_seconds_bucket{tier="disk",le="1"} 1`,
		`lat_seconds_sum{tier="disk"} 0.5`,
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("exposition missing %q:\n%s", line, out)
		}
	}
	// HELP/TYPE appear once per family even with several children.
	if n := strings.Count(out, "# TYPE req_total"); n != 1 {
		t.Fatalf("TYPE req_total appears %d times, want 1", n)
	}
}

// TestExpositionFormat validates the whole rendered page the way the
// server-side test validates /metrics: unique families, HELP+TYPE before
// samples, monotone cumulative buckets.
func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a").Add(1)
	r.Gauge("b", "b").Set(2)
	h := r.HistogramVec("c_seconds", "c", DurationBuckets, "k")
	h.With("x").Observe(0.001)
	h.With("y").Observe(3)

	var b strings.Builder
	r.WritePrometheus(&b)
	if err := ValidateExposition(b.String()); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, b.String())
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("cc_total", "h").Inc()
				r.Gauge("gg", "h").Add(1)
				r.Histogram("hh", "h", CountBuckets).Observe(float64(j % 7))
				r.CounterVec("vv_total", "h", "l").With(fmt.Sprint(j % 3)).Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("cc_total", "h").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %v, want 8000", got)
	}
	if got := r.Histogram("hh", "h", CountBuckets).Count(); got != 8000 {
		t.Fatalf("concurrent histogram count = %v, want 8000", got)
	}
}

func TestTimelineSpans(t *testing.T) {
	tl := NewTimeline(0)
	var ended []string
	tl.SetOnEnd(func(r SpanRecord) { ended = append(ended, r.Name) })

	job := tl.Start("job")
	run := job.Child("run")
	run.SetAttr("step", 3)
	step := run.Child("step")
	time.Sleep(time.Millisecond)
	step.End()
	step.End() // double-End is a no-op

	recs := tl.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3 (2 open + 1 done)", len(recs))
	}
	if !recs[0].End.IsZero() || !recs[1].End.IsZero() {
		t.Fatal("open spans should have zero End")
	}
	if recs[2].End.IsZero() || recs[2].Duration() <= 0 {
		t.Fatalf("completed span has no duration: %+v", recs[2])
	}
	run.End()
	job.End()
	if want := []string{"step", "run", "job"}; strings.Join(ended, ",") != strings.Join(want, ",") {
		t.Fatalf("OnEnd order = %v, want %v", ended, want)
	}

	roots := BuildTree(tl.Records())
	if len(roots) != 1 || roots[0].Name != "job" {
		t.Fatalf("tree roots = %+v", roots)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Name != "run" {
		t.Fatalf("job children = %+v", roots[0].Children)
	}
	if got := roots[0].Children[0].Attrs["step"]; got != 3 {
		t.Fatalf("run attr step = %v, want 3", got)
	}

	var folded strings.Builder
	WriteFolded(&folded, tl.Records())
	if !strings.Contains(folded.String(), "job;run;step ") {
		t.Fatalf("folded output missing stack:\n%s", folded.String())
	}

	// nil-span handles must be inert.
	var ns *Span
	ns.SetAttr("k", 1)
	if c := ns.Child("x"); c != nil {
		t.Fatal("nil span Child should be nil")
	}
	ns.End()
	var ntl *Timeline
	if s := ntl.Start("x"); s != nil {
		t.Fatal("nil timeline Start should be nil")
	}
}

func TestTimelineBoundAndImport(t *testing.T) {
	tl := NewTimeline(2)
	for i := 0; i < 4; i++ {
		tl.Start(fmt.Sprintf("s%d", i)).End()
	}
	if got := len(tl.Records()); got != 2 {
		t.Fatalf("bounded timeline kept %d records, want 2", got)
	}
	if tl.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tl.Dropped())
	}

	tl2 := NewTimeline(0)
	now := time.Now()
	tl2.Import([]SpanRecord{
		{ID: 5, Name: "job", Start: now, End: now.Add(time.Second)},
		{ID: 6, Parent: 5, Name: "run", Start: now, End: now.Add(time.Second)},
	})
	s := tl2.Start("post-restore")
	if s.id <= 6 {
		t.Fatalf("imported IDs not advanced: new span id %d", s.id)
	}
	if len(tl2.Records()) != 3 {
		t.Fatalf("records after import = %d, want 3", len(tl2.Records()))
	}
}

func TestParseLevelAndNewLogger(t *testing.T) {
	for s, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "error": slog.LevelError, "": slog.LevelInfo,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel should reject unknown levels")
	}
	var b strings.Builder
	lg, err := NewLogger(&b, "json", slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hello", "k", "v")
	if !strings.Contains(b.String(), `"k":"v"`) {
		t.Fatalf("json logger output: %s", b.String())
	}
	if _, err := NewLogger(&b, "xml", slog.LevelInfo); err == nil {
		t.Fatal("NewLogger should reject unknown formats")
	}
}
