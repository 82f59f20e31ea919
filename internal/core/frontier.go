package core

import (
	"fmt"
	"io"
	"sort"
)

// FrontierPoint is one evaluated (error, area) point of the design space:
// a candidate the explorer measured (committed or not), or the accurate
// starting point (Step -1, zero error).
type FrontierPoint struct {
	// Error is the candidate's whole-circuit QoR under the configured
	// exploration metric.
	Error float64 `json:"error"`
	// ModelArea is the paper's exploration-time area model after
	// (hypothetically) committing the candidate: the sum of block areas.
	ModelArea float64 `json:"model_area"`
	// NormModelArea is ModelArea normalized to the accurate circuit's model
	// area.
	NormModelArea float64 `json:"norm_model_area"`
	// Step is the exploration step during whose sweep the point was
	// evaluated (-1 for the accurate starting point).
	Step int `json:"step"`
	// BlockIndex and Degree identify the candidate: block BlockIndex at
	// factorization degree Degree on top of the then-committed state.
	BlockIndex int `json:"block_index"`
	Degree     int `json:"degree"`
	// Committed marks points the explorer actually committed (the greedy
	// trajectory); the rest are measured candidates that lost but still
	// chart the trade-off space.
	Committed bool `json:"committed"`
}

// dominatedBy reports whether q is at least as good as p on both axes. Equal
// points count as dominating, so duplicates collapse onto one frontier entry.
func (p FrontierPoint) dominatedBy(q FrontierPoint) bool {
	return q.Error <= p.Error && p.ModelArea >= q.ModelArea
}

// Frontier records every (error, area) point evaluated during exploration
// and incrementally maintains the non-dominated subset — the full
// accuracy/area trade-off frontier of the search, not just the greedy
// trajectory. Points are added in a deterministic order (the order the
// explorer consumes each sweep's results in), so two runs of the same
// configuration produce identical frontiers regardless of the sweep's
// worker count.
//
// Frontier methods are not safe for concurrent use; the explorer adds points
// serially, as it consumes sweep results.
type Frontier struct {
	accurateArea float64
	points       []FrontierPoint
	// front indexes points, sorted by Error ascending with strictly
	// decreasing ModelArea (the invariant of a 2-D non-dominated set).
	front []int
}

// newFrontier starts a frontier normalizing areas against accurateArea.
func newFrontier(accurateArea float64) *Frontier {
	return &Frontier{accurateArea: accurateArea}
}

// RestoreFrontier rebuilds a frontier from previously recorded points (an
// ExplorerState or a persisted result): points are replayed through the
// incremental non-dominated-set maintenance in their stored order, which is
// the deterministic evaluation order, so the restored frontier is identical
// to the one that recorded the points.
func RestoreFrontier(accurateArea float64, points []FrontierPoint) *Frontier {
	f := newFrontier(accurateArea)
	for _, p := range points {
		f.add(p)
	}
	return f
}

// add records an evaluated point, maintaining the non-dominated subset, and
// returns the point's index (for markCommitted).
func (f *Frontier) add(p FrontierPoint) int {
	if f.accurateArea > 0 {
		p.NormModelArea = p.ModelArea / f.accurateArea
	}
	idx := len(f.points)
	f.points = append(f.points, p)
	mFrontierPoints.Inc()

	// pos = first frontier entry with Error > p.Error; the entry before it
	// (if any) has Error <= p.Error and the smallest area among those.
	pos := sort.Search(len(f.front), func(i int) bool {
		return f.points[f.front[i]].Error > p.Error
	})
	if pos > 0 && p.dominatedBy(f.points[f.front[pos-1]]) {
		return idx
	}
	// p survives, so any equal-error entry (at most one, right before pos)
	// has a larger area and is dominated by p.
	if pos > 0 && f.points[f.front[pos-1]].Error == p.Error {
		pos--
	}
	// Insert p and drop the following entries it dominates (those with
	// area >= p's).
	keep := f.front[:pos:pos]
	keep = append(keep, idx)
	for _, fi := range f.front[pos:] {
		if !f.points[fi].dominatedBy(p) {
			keep = append(keep, fi)
		}
	}
	f.front = keep
	return idx
}

// markCommitted flags the point at index idx as a committed trajectory step.
func (f *Frontier) markCommitted(idx int) {
	if idx >= 0 && idx < len(f.points) {
		f.points[idx].Committed = true
	}
}

// Size returns the number of evaluated points.
func (f *Frontier) Size() int { return len(f.points) }

// Points returns every evaluated point, in evaluation order.
func (f *Frontier) Points() []FrontierPoint {
	return append([]FrontierPoint(nil), f.points...)
}

// Front returns the non-dominated subset, sorted by error ascending (area
// strictly descending).
func (f *Frontier) Front() []FrontierPoint {
	out := make([]FrontierPoint, 0, len(f.front))
	for _, fi := range f.front {
		out = append(out, f.points[fi])
	}
	return out
}

// frontierCSVHeader is the column order of WriteCSV.
const frontierCSVHeader = "error,model_area,norm_model_area,step,block,degree,committed,on_front"

// WriteCSV dumps the frontier as CSV: the non-dominated set by default, or
// every evaluated point when all is true. The on_front column marks
// non-dominated rows, so the full dump still identifies the frontier.
func (f *Frontier) WriteCSV(w io.Writer, all bool) error {
	if _, err := fmt.Fprintln(w, frontierCSVHeader); err != nil {
		return err
	}
	onFront := make(map[int]bool, len(f.front))
	for _, fi := range f.front {
		onFront[fi] = true
	}
	write := func(i int) error {
		p := f.points[i]
		_, err := fmt.Fprintf(w, "%.9g,%.6f,%.6f,%d,%d,%d,%t,%t\n",
			p.Error, p.ModelArea, p.NormModelArea, p.Step, p.BlockIndex, p.Degree,
			p.Committed, onFront[i])
		return err
	}
	if all {
		for i := range f.points {
			if err := write(i); err != nil {
				return err
			}
		}
		return nil
	}
	for _, fi := range f.front {
		if err := write(fi); err != nil {
			return err
		}
	}
	return nil
}
