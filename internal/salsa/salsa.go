// Package salsa implements the per-output approximate-synthesis baseline
// BLASYS is compared against in the paper's Table 3 (SALSA, Venkataramani et
// al., DAC'12).
//
// SALSA's defining property — the one the BLASYS paper's comparison hinges
// on — is that each output bit is approximated *individually*: the quality
// function exposes don't-cares for one output at a time, and conventional
// don't-care-based synthesis shrinks that output's cone. This package
// reproduces that behaviour with two transform families applied greedily,
// least-significant outputs first, each accepted only if the whole-circuit
// QoR stays within the error threshold:
//
//   - constant substitution: an output is tied to 0 or 1 (the limiting case
//     of external don't-cares covering the full input space);
//   - cone resynthesis under injected don't-cares: a bounded-input window of
//     the output's cone is extracted, a fraction of its most "isolated"
//     minterms (those blocking cube merging) is declared don't-care, and the
//     window is re-synthesized with two-level minimization.
//
// The original SALSA derives its don't-cares from a quality-constraint
// circuit instead of an isolation heuristic, but the structural limitation
// the paper measures — no cross-output sharing of approximation — is
// faithfully preserved, which is what makes this a meaningful baseline.
package salsa

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/qor"
	"github.com/blasys-go/blasys/internal/sched"
	"github.com/blasys-go/blasys/internal/synth"
	"github.com/blasys-go/blasys/internal/tt"
)

// Config controls the baseline.
type Config struct {
	// Metric and Threshold define the QoR budget (same semantics as the
	// BLASYS core).
	Metric    qor.Metric
	Threshold float64
	// Samples is the Monte-Carlo sample count for QoR checks.
	Samples int
	Seed    int64
	// Sequence, when non-nil, evaluates QoR with accumulator feedback.
	Sequence *qor.Sequence
}

const (
	// maxConeInputs bounds the resynthesis window, mirroring the BLASYS k.
	maxConeInputs = 10
	// maxPasses bounds the greedy sweeps over all outputs.
	maxPasses = 3
)

func (c Config) withDefaults() Config {
	if c.Threshold == 0 {
		c.Threshold = 0.05
	}
	if c.Samples == 0 {
		c.Samples = 1 << 16
	}
	return c
}

// Result is the outcome of the baseline run.
type Result struct {
	Circuit  *logic.Circuit
	Report   qor.Report
	Accepted int // transforms applied
}

// dcFractions are the don't-care budgets tried per cone, strongest first.
var dcFractions = []float64{0.5, 0.25, 0.125, 0.0625}

// Approximate runs the per-output greedy baseline.
func Approximate(c *logic.Circuit, spec qor.OutputSpec, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	cur := logic.ReorderDFS(c)
	eval, err := qor.NewComparer(cur, spec, cfg.Sequence, cfg.Samples, cfg.Seed)
	if err != nil {
		return nil, err
	}

	// Visit outputs in increasing significance so cheap bits go first.
	order := outputOrder(cur, spec)
	accepted := 0
	lastReport := qor.Report{Samples: eval.Samples()}

	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for _, o := range order {
			cands := candidates(cur, o)
			if len(cands) == 0 {
				continue
			}
			// Each candidate's report lands in its own slot; the sweep's
			// extra workers draw on the machine-wide goroutine budget.
			reports := make([]qor.Report, len(cands))
			errs := make([]error, len(cands))
			sched.Claim(runtime.GOMAXPROCS(0), len(cands), func(_, i int) bool {
				reports[i], errs[i] = eval.Compare(cands[i])
				return true
			})
			// Accept the smallest candidate within threshold.
			bestIdx, bestGates := -1, cur.NumGates()
			for i, cand := range cands {
				if errs[i] != nil {
					continue
				}
				if reports[i].Value(cfg.Metric) > cfg.Threshold {
					continue
				}
				if g := cand.NumGates(); g < bestGates {
					bestGates, bestIdx = g, i
				}
			}
			if bestIdx >= 0 {
				cur = cands[bestIdx]
				lastReport = reports[bestIdx]
				accepted++
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return &Result{Circuit: cur, Report: lastReport, Accepted: accepted}, nil
}

// outputOrder lists output indices least-significant first within each
// group, groups interleaved by relative significance.
func outputOrder(c *logic.Circuit, spec qor.OutputSpec) []int {
	type ranked struct {
		bit int
		sig float64
	}
	var rs []ranked
	seen := make(map[int]bool)
	for _, g := range spec.Groups {
		for j, bit := range g.Bits {
			rs = append(rs, ranked{bit, float64(j) / float64(len(g.Bits))})
			seen[bit] = true
		}
	}
	for o := 0; o < len(c.Outputs); o++ {
		if !seen[o] {
			rs = append(rs, ranked{o, 0})
		}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].sig < rs[j].sig })
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.bit
	}
	return out
}

// candidates builds the transform candidates for output o on the current
// circuit. Every candidate is a complete swept circuit.
func candidates(cur *logic.Circuit, o int) []*logic.Circuit {
	var out []*logic.Circuit
	driver := cur.Outputs[o]
	if cur.Nodes[driver].Op == logic.Const0 || cur.Nodes[driver].Op == logic.Const1 {
		return nil // already constant
	}
	// Constant substitutions.
	for _, v := range []bool{false, true} {
		cc := cur.Clone()
		cc.Outputs[o] = cc.ConstNode(v)
		out = append(out, logic.Sweep(cc))
	}
	// Cone resynthesis under don't-cares.
	leaves, ok := coneWindow(cur, driver, maxConeInputs)
	if !ok {
		return out
	}
	table := coneTable(cur, driver, leaves)
	for _, frac := range dcFractions {
		dc := isolationDC(table, frac)
		if dc.CountOnes() == 0 {
			continue
		}
		cc := cur.Clone()
		b := logic.WrapBuilder(cc)
		newOut := synth.FromTable(b, table, dc, leaves, synth.Options{})
		b.C.Outputs[o] = newOut
		out = append(out, logic.Sweep(b.C))
	}
	return out
}

// coneWindow grows a bounded-input window of the cone rooted at driver:
// starting from the root, gate leaves are expanded into their fanins while
// the leaf count stays within maxInputs. Returns ok=false for degenerate
// windows (root is a PI or the window never expands).
func coneWindow(c *logic.Circuit, driver logic.NodeID, maxInputs int) ([]logic.NodeID, bool) {
	isExpandable := func(id logic.NodeID) bool {
		switch c.Nodes[id].Op {
		case logic.Input, logic.Const0, logic.Const1:
			return false
		}
		return true
	}
	if !isExpandable(driver) {
		return nil, false
	}
	leaves := []logic.NodeID{driver}
	expanded := true
	for expanded {
		expanded = false
		// Expand the deepest expandable leaf first (largest node id —
		// closest to the root, keeping the window balanced).
		sort.Slice(leaves, func(i, j int) bool { return leaves[i] > leaves[j] })
		for li, l := range leaves {
			if !isExpandable(l) {
				continue
			}
			fan := c.Nodes[l].Fanins()
			// Unique new leaves after expansion.
			next := make(map[logic.NodeID]bool, len(leaves)+2)
			for lj, x := range leaves {
				if lj != li {
					next[x] = true
				}
			}
			for _, f := range fan {
				switch c.Nodes[f].Op {
				case logic.Const0, logic.Const1:
				default:
					next[f] = true
				}
			}
			if len(next) > maxInputs {
				continue
			}
			leaves = leaves[:0]
			for x := range next {
				leaves = append(leaves, x)
			}
			expanded = true
			break
		}
	}
	if len(leaves) == 1 && leaves[0] == driver {
		return nil, false
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i] < leaves[j] })
	return leaves, true
}

// coneTable computes the root's function over the window leaves by
// simulating the cone with counting patterns (logic.CountingWords) on the
// leaves.
func coneTable(c *logic.Circuit, root logic.NodeID, leaves []logic.NodeID) *tt.Table {
	k := len(leaves)
	table := tt.NewTable(k)
	// Evaluate the cone only: nodes between leaves and root.
	leafPos := make(map[logic.NodeID]int, k)
	for i, l := range leaves {
		leafPos[l] = i
	}
	leafWords := make([]uint64, k)
	words := make(map[logic.NodeID]uint64, 64)
	var eval func(id logic.NodeID) uint64
	eval = func(id logic.NodeID) uint64 {
		if p, ok := leafPos[id]; ok {
			return leafWords[p]
		}
		if w, ok := words[id]; ok {
			return w
		}
		n := &c.Nodes[id]
		var a, bb, s uint64
		switch n.Op {
		case logic.Const0:
			return 0
		case logic.Const1:
			return ^uint64(0)
		case logic.Input:
			// An input that is not a leaf cannot be reached: the window
			// stops at inputs.
			panic(fmt.Sprintf("salsa: cone evaluation reached non-leaf input %d", id))
		}
		a = eval(n.Fanin[0])
		if n.Nfanin > 1 {
			bb = eval(n.Fanin[1])
		}
		if n.Nfanin > 2 {
			s = eval(n.Fanin[2])
		}
		w := n.Op.Eval(a, bb, s)
		words[id] = w
		return w
	}
	rows := 1 << uint(k)
	for base := 0; base < rows; base += 64 {
		for id := range words {
			delete(words, id)
		}
		logic.CountingWords(base, leafWords)
		w := eval(root)
		limit := rows - base
		if limit > 64 {
			limit = 64
		}
		for j := 0; j < limit; j++ {
			if w&(1<<uint(j)) != 0 {
				table.Set(base+j, true)
			}
		}
	}
	return table
}

// isolationDC selects up to frac*2^k minterms as don't-cares, preferring
// minterms whose value disagrees with most of their distance-1 neighbours —
// exactly the minterms that block cube merging in two-level covers.
func isolationDC(table *tt.Table, frac float64) *tt.Table {
	k := table.NumVars()
	rows := table.Len()
	budget := int(math.Ceil(frac * float64(rows)))
	type scored struct {
		r     int
		score int
	}
	var sc []scored
	for r := 0; r < rows; r++ {
		v := table.Get(r)
		disagree := 0
		for i := 0; i < k; i++ {
			if table.Get(r^(1<<uint(i))) != v {
				disagree++
			}
		}
		if disagree*2 > k {
			sc = append(sc, scored{r, disagree})
		}
	}
	sort.Slice(sc, func(i, j int) bool { return sc[i].score > sc[j].score })
	dc := tt.NewTable(k)
	for i := 0; i < len(sc) && i < budget; i++ {
		dc.Set(sc[i].r, true)
	}
	return dc
}
