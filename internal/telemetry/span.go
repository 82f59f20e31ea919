package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// A SpanRecord is the serializable form of one completed (or still-open)
// stage: a named interval with parent linkage and free-form attributes.
// Records are what the engine journals through the job store, so the shape
// is wire-stable JSON.
type SpanRecord struct {
	ID     uint64         `json:"id"`
	Parent uint64         `json:"parent,omitempty"` // 0 = root
	Name   string         `json:"name"`
	Start  time.Time      `json:"start"`
	End    time.Time      `json:"end,omitempty"` // zero = still running
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// Duration returns End-Start, or 0 while the span is still open.
func (r SpanRecord) Duration() time.Duration {
	if r.End.IsZero() {
		return 0
	}
	return r.End.Sub(r.Start)
}

// A Timeline collects the spans of one job into bounded in-memory storage.
// Completed spans are appended to a fixed-capacity list (newest dropped and
// counted once full, so the structural early spans survive); open spans are
// tracked separately and appear in Records with a zero End, which lets a
// live timeline query show where a running job currently is.
type Timeline struct {
	mu      sync.Mutex
	done    []SpanRecord
	open    map[uint64]*Span
	nextID  uint64
	limit   int
	dropped uint64
	onEnd   func(SpanRecord)
}

// DefaultTimelineLimit bounds completed spans per job. Explorations run
// tens to hundreds of steps, so 4096 leaves ample headroom while capping a
// pathological job's memory.
const DefaultTimelineLimit = 4096

// NewTimeline returns a timeline bounded to limit completed spans
// (limit <= 0 selects DefaultTimelineLimit).
func NewTimeline(limit int) *Timeline {
	if limit <= 0 {
		limit = DefaultTimelineLimit
	}
	return &Timeline{open: make(map[uint64]*Span), limit: limit}
}

// SetOnEnd installs a hook called synchronously with each span's record as
// it ends (the engine uses this to journal spans and publish SSE stage
// events). Call before spans start; the hook must not call back into the
// timeline's span it was invoked for.
func (t *Timeline) SetOnEnd(fn func(SpanRecord)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.onEnd = fn
	t.mu.Unlock()
}

// Dropped reports how many completed spans were discarded because the
// timeline was full.
func (t *Timeline) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Start opens a root span. All methods on the returned *Span (and on nil
// *Span, so instrumented code needs no nil checks when telemetry is off)
// are safe for concurrent use.
func (t *Timeline) Start(name string) *Span {
	return t.start(name, 0)
}

func (t *Timeline) start(name string, parent uint64) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	s := &Span{tl: t, id: t.nextID, parent: parent, name: name, start: time.Now()}
	t.open[s.id] = s
	t.mu.Unlock()
	return s
}

// Import appends restored records (from a replayed journal) and advances
// the ID counter past them, so spans started later cannot collide.
func (t *Timeline) Import(recs []SpanRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range recs {
		if len(t.done) >= t.limit {
			t.dropped++
			continue
		}
		t.done = append(t.done, r)
		if r.ID > t.nextID {
			t.nextID = r.ID
		}
	}
}

// Records snapshots every span: completed ones first, then open ones (zero
// End), both in ID order.
func (t *Timeline) Records() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanRecord, 0, len(t.done)+len(t.open))
	out = append(out, t.done...)
	for _, s := range t.open {
		out = append(out, s.record())
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// A Span is a handle on one live stage. The zero of the type is never used;
// a nil *Span is the "telemetry off" handle and every method no-ops on it.
type Span struct {
	tl     *Timeline
	id     uint64
	parent uint64
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs map[string]any
	ended bool
	endT  time.Time
}

// Child opens a sub-span under s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tl.start(name, s.id)
}

// SetAttr attaches a key/value to the span (values must be JSON-friendly:
// strings, numbers, bools).
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// record snapshots the span's current state (End zero while open).
// Timeline.Records calls this while holding t.mu; lock order is always
// t.mu before s.mu, never the reverse.
func (s *Span) record() SpanRecord {
	s.mu.Lock()
	var attrs map[string]any
	if len(s.attrs) > 0 {
		attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			attrs[k] = v
		}
	}
	r := SpanRecord{ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, Attrs: attrs}
	if s.ended {
		r.End = s.endT
	}
	s.mu.Unlock()
	return r
}

// End closes the span, moves its record into the timeline's completed list
// and fires the OnEnd hook. Ending twice is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.endT = time.Now()
	s.mu.Unlock()

	rec := s.record()

	t := s.tl
	t.mu.Lock()
	delete(t.open, s.id)
	if len(t.done) >= t.limit {
		t.dropped++
	} else {
		t.done = append(t.done, rec)
	}
	hook := t.onEnd
	t.mu.Unlock()
	if hook != nil {
		hook(rec)
	}
}

// --- rendering ------------------------------------------------------------

// A SpanNode is one node of the reconstructed span tree.
type SpanNode struct {
	SpanRecord
	DurationSeconds float64     `json:"duration_seconds"`
	Children        []*SpanNode `json:"children,omitempty"`
}

// BuildTree reconstructs the parent/child forest from a flat record list.
// Orphans (parent never recorded, e.g. dropped) are promoted to roots.
// Siblings are ordered by start time, ties by ID.
func BuildTree(recs []SpanRecord) []*SpanNode {
	nodes := make(map[uint64]*SpanNode, len(recs))
	for _, r := range recs {
		nodes[r.ID] = &SpanNode{SpanRecord: r, DurationSeconds: r.Duration().Seconds()}
	}
	var roots []*SpanNode
	for _, r := range recs {
		n := nodes[r.ID]
		if p := nodes[r.Parent]; r.Parent != 0 && p != nil {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	order := func(ns []*SpanNode) {
		sort.Slice(ns, func(i, j int) bool {
			if !ns[i].Start.Equal(ns[j].Start) {
				return ns[i].Start.Before(ns[j].Start)
			}
			return ns[i].ID < ns[j].ID
		})
	}
	var walk func(ns []*SpanNode)
	walk = func(ns []*SpanNode) {
		order(ns)
		for _, n := range ns {
			walk(n.Children)
		}
	}
	walk(roots)
	return roots
}

// WriteFolded renders completed spans as flamegraph-friendly folded stacks:
// one "root;child;leaf <self-µs>" line per span with positive self time
// (its duration minus its completed children's), suitable for
// speedscope/flamegraph.pl. Open spans are skipped.
func WriteFolded(w io.Writer, recs []SpanRecord) {
	roots := BuildTree(recs)
	var walk func(prefix string, n *SpanNode)
	walk = func(prefix string, n *SpanNode) {
		if n.End.IsZero() {
			return
		}
		stack := n.Name
		if prefix != "" {
			stack = prefix + ";" + n.Name
		}
		self := n.Duration()
		for _, c := range n.Children {
			if !c.End.IsZero() {
				self -= c.Duration()
			}
			walk(stack, c)
		}
		if self < 0 {
			self = 0
		}
		fmt.Fprintf(w, "%s %d\n", stack, self.Microseconds())
	}
	for _, r := range roots {
		walk("", r)
	}
}
