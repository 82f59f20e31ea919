// Package telemetry is the repo's dependency-free observability substrate:
// a concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms, with and without labels) that renders in the Prometheus text
// exposition format, plus lightweight per-job spans (span.go) that record
// stage timings into a bounded timeline.
//
// Everything here is passive: instrumented code only reads clocks and bumps
// atomics, never branches on a metric value, so enabling telemetry cannot
// change exploration results (the repo's determinism invariant). All types
// are safe for concurrent use and allocation-free on the hot paths
// (Counter.Add, Gauge.Set, Histogram.Observe are a handful of atomic ops).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// A Registry holds named metric families. Families are created on first use
// (GetOrCreate semantics) so instrumentation sites need no init ordering;
// registering the same name with a different type or help string panics,
// since that is always a programming error.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family is one named metric: either a single unlabeled series or a set of
// labeled children.
type family struct {
	name   string
	help   string
	typ    string   // "counter" | "gauge" | "histogram"
	labels []string // empty for unlabeled families

	bounds []float64 // histogram bucket upper bounds (nil otherwise)

	mu       sync.RWMutex
	children map[string]series // label-values key -> series; "" for unlabeled
}

// series is the common interface of Counter, Gauge and Histogram.
type series interface {
	writeProm(w io.Writer, name, labels string)
	snapshot() any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry shared by all instrumented
// packages.
func Default() *Registry {
	defaultOnce.Do(func() { defaultReg = NewRegistry() })
	return defaultReg
}

// getOrCreate returns the family named name, creating it on first use and
// validating that the type/help/labels/bounds match on every later use.
func (r *Registry) getOrCreate(name, help, typ string, labels []string, bounds []float64) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = r.families[name]; f == nil {
			f = &family{
				name: name, help: help, typ: typ,
				labels: labels, bounds: bounds,
				children: make(map[string]series),
			}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.typ != typ || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s/%d labels (was %s/%d)",
			name, typ, len(labels), f.typ, len(f.labels)))
	}
	return f
}

// child returns the series for the given label values, creating it lazily.
func (f *family) child(values []string) series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.RLock()
	s := f.children[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.children[key]; s != nil {
		return s
	}
	switch f.typ {
	case "counter":
		s = &Counter{}
	case "gauge":
		s = &Gauge{}
	case "histogram":
		s = newHistogram(f.bounds)
	}
	f.children[key] = s
	return s
}

// promLabels renders {k="v",...} for a child, or "" when unlabeled.
func (f *family) promLabels(key string) string {
	if len(f.labels) == 0 {
		return ""
	}
	values := strings.Split(key, "\x00")
	parts := make([]string, len(f.labels))
	for i, l := range f.labels {
		parts[i] = fmt.Sprintf("%s=%q", l, values[i])
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Counter is a monotonically increasing float64.
type Counter struct{ bits atomic.Uint64 }

// Add increments the counter by v (v < 0 is ignored).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

func (c *Counter) writeProm(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(c.Value()))
}
func (c *Counter) snapshot() any { return c.Value() }

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments (or, negative v, decrements) the gauge.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) writeProm(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(g.Value()))
}
func (g *Gauge) snapshot() any { return g.Value() }

// Histogram counts observations into fixed buckets with ascending upper
// bounds (an implicit +Inf bucket is always present). Observe is a binary
// search plus three atomic adds.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, excluding +Inf
	counts  []atomic.Uint64
	inf     atomic.Uint64
	sumBits atomic.Uint64
	total   atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			break
		}
	}
	h.total.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Mean returns the average observed value (0 before any observation) —
// the cheap point estimate admission control reads from latency histograms.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

func (h *Histogram) writeProm(w io.Writer, name, labels string) {
	// Prometheus buckets are cumulative; splice le into existing labels.
	le := func(bound string) string {
		if labels == "" {
			return fmt.Sprintf("{le=%q}", bound)
		}
		return labels[:len(labels)-1] + fmt.Sprintf(",le=%q}", bound)
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, le(formatFloat(b)), cum)
	}
	cum += h.inf.Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, le("+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.total.Load())
}

func (h *Histogram) snapshot() any {
	buckets := make(map[string]uint64, len(h.bounds)+1)
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		buckets[formatFloat(b)] = cum
	}
	cum += h.inf.Load()
	buckets["+Inf"] = cum
	return map[string]any{"count": h.total.Load(), "sum": h.Sum(), "buckets": buckets}
}

// formatFloat renders a value the way Prometheus expects (shortest
// round-trip representation; integral values without an exponent).
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	s := fmt.Sprintf("%g", v)
	return s
}

// --- typed accessors ------------------------------------------------------

// Counter returns (creating if needed) the unlabeled counter named name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.getOrCreate(name, help, "counter", nil, nil).child(nil).(*Counter)
}

// Gauge returns the unlabeled gauge named name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.getOrCreate(name, help, "gauge", nil, nil).child(nil).(*Gauge)
}

// Histogram returns the unlabeled histogram named name with the given
// ascending bucket upper bounds (+Inf is implicit). Bounds are fixed by the
// first registration.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.getOrCreate(name, help, "histogram", nil, bounds).child(nil).(*Histogram)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family named name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.getOrCreate(name, help, "counter", labels, nil)}
}

// With returns the child counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).(*Counter) }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family named name.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.getOrCreate(name, help, "histogram", labels, bounds)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values).(*Histogram) }

// --- exposition -----------------------------------------------------------

// WritePrometheus renders every family in the Prometheus text exposition
// format (v0.0.4), sorted by family name with children sorted by label
// values, so output is stable across scrapes.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	for _, n := range names {
		r.mu.RLock()
		f := r.families[n]
		r.mu.RUnlock()
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		f.mu.RLock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			f.children[k].writeProm(w, f.name, f.promLabels(k))
		}
		f.mu.RUnlock()
	}
}

// Snapshot returns a JSON-marshalable map of every series, for a
// /debug/vars-style dump. Labeled children appear as "name{k=v,...}" keys.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	r.mu.RLock()
	families := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		families = append(families, f)
	}
	r.mu.RUnlock()
	for _, f := range families {
		f.mu.RLock()
		for k, s := range f.children {
			out[f.name+f.promLabels(k)] = s.snapshot()
		}
		f.mu.RUnlock()
	}
	return out
}

// --- bucket helpers -------------------------------------------------------

// ExponentialBuckets returns n ascending upper bounds starting at start and
// multiplying by factor, e.g. ExponentialBuckets(1e-6, 4, 10) spans 1µs to
// ~262ms. Panics on invalid arguments.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: invalid exponential bucket spec")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start
		start *= factor
	}
	return b
}

// DurationBuckets is the shared latency bucket layout (seconds): 10µs up to
// ~83s in ×4 steps. One layout for every latency histogram keeps /metrics
// compact and cross-metric comparison easy.
var DurationBuckets = ExponentialBuckets(10e-6, 4, 12)

// CountBuckets is the shared layout for size-ish histograms (sweep widths,
// batch counts): 1, 2, 4, ... 2048.
var CountBuckets = ExponentialBuckets(1, 2, 12)
