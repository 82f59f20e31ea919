// Package partition decomposes a combinational netlist into subcircuits
// ("blocks") with bounded input and output counts — the k×m-cut
// decomposition of the BLASYS paper (Section 3.3).
//
// Blocks are contiguous intervals of a topological order of the gates. This
// makes every block convex by construction: any path between two gates of a
// block has strictly increasing topological positions, so it cannot leave
// and re-enter the block. Convexity is exactly what block substitution
// needs — replacing a convex block with a re-synthesized (approximate)
// implementation can never create a combinational cycle.
//
// The initial decomposition greedily grows each interval until adding the
// next gate would exceed k boundary inputs or m boundary outputs. A
// KL-flavoured refinement pass then slides the boundaries between adjacent
// blocks to reduce the total number of boundary nets while respecting the
// (k, m) limits.
package partition

import (
	"fmt"
	"sort"

	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/tt"
)

// Block is one subcircuit of a decomposition.
type Block struct {
	// Gates lists the member gate nodes in ascending node order.
	Gates []logic.NodeID
	// Inputs lists the boundary nets feeding the block (primary inputs or
	// gates of other blocks), ascending.
	Inputs []logic.NodeID
	// Outputs lists the block gates whose values are consumed outside the
	// block (by other blocks or primary outputs), ascending.
	Outputs []logic.NodeID
}

// Options configures Decompose.
type Options struct {
	// MaxInputs (k) and MaxOutputs (m) bound each block's boundary.
	// The paper uses k = m = 10.
	MaxInputs, MaxOutputs int
}

// Decompose splits the circuit's gates into convex blocks with at most
// MaxInputs boundary inputs and MaxOutputs boundary outputs each.
// Every gate with a path to a primary output belongs to exactly one block;
// dead gates are ignored (run logic.Sweep first to drop them).
func Decompose(c *logic.Circuit, opt Options) ([]Block, error) {
	k, m := opt.MaxInputs, opt.MaxOutputs
	if k < 3 {
		return nil, fmt.Errorf("partition: MaxInputs=%d too small (gates have up to 3 fanins)", k)
	}
	if m < 1 {
		return nil, fmt.Errorf("partition: MaxOutputs=%d too small", m)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}

	d := newDecomposer(c, opt)
	if len(d.order) == 0 {
		return nil, nil
	}
	return d.blocks(d.refine(d.greedyIntervals())), nil
}

// blocks builds the blocks of the intervals that end at bounds.
func (d *decomposer) blocks(bounds []int) []Block {
	blocks := make([]Block, 0, len(bounds))
	for i := 0; i < len(bounds); i++ {
		lo := 0
		if i > 0 {
			lo = bounds[i-1]
		}
		blocks = append(blocks, d.makeBlock(lo, bounds[i]))
	}
	return blocks
}

type decomposer struct {
	c   *logic.Circuit
	opt Options
	// order[p] = node id of the gate at topological position p.
	order []logic.NodeID
	// pos[node] = topological position, or -1 for non-gates/dead gates.
	pos []int
	// lastUse[p] = highest position consuming gate order[p], or infinity
	// (len(order)) if a primary output consumes it.
	lastUse []int
	// isPO[p] marks gates driving primary outputs.
	isPO []bool
}

const inf = int(^uint(0) >> 1)

func newDecomposer(c *logic.Circuit, opt Options) *decomposer {
	d := &decomposer{c: c, opt: opt}
	d.buildOrder()
	d.buildUses()
	return d
}

// buildOrder lists the live gates in node-index order. Blocks are intervals
// of this order; because node indices already form a topological order and
// logic.ReplaceBlocks instantiates implementations by node index, interval
// blocks compose with substitution without any re-sequencing. For cuts that
// follow the logic structure (each output cone contiguous), rebuild the
// circuit with logic.ReorderDFS before decomposing — the BLASYS core does.
func (d *decomposer) buildOrder() {
	c := d.c
	d.pos = make([]int, len(c.Nodes))
	for i := range d.pos {
		d.pos[i] = -1
	}
	live := c.TransitiveFanin(c.Outputs...)
	for i := range c.Nodes {
		switch c.Nodes[i].Op {
		case logic.Const0, logic.Const1, logic.Input:
			continue
		}
		if live[i] {
			d.pos[i] = len(d.order)
			d.order = append(d.order, logic.NodeID(i))
		}
	}
}

// buildUses computes, per position, the last position using the gate and
// whether a primary output consumes it.
func (d *decomposer) buildUses() {
	n := len(d.order)
	d.lastUse = make([]int, n)
	d.isPO = make([]bool, n)
	for p, id := range d.order {
		_ = p
		for _, f := range d.c.Nodes[id].Fanins() {
			if fp := d.pos[f]; fp >= 0 && d.pos[id] > fp {
				if d.pos[id] > d.lastUse[fp] {
					d.lastUse[fp] = d.pos[id]
				}
			}
		}
	}
	for _, o := range d.c.Outputs {
		if p := d.pos[o]; p >= 0 {
			d.isPO[p] = true
			d.lastUse[p] = inf
		}
	}
}

// costOf computes (inputs, outputs) of the interval [lo, hi).
func (d *decomposer) costOf(lo, hi int) (nin, nout int) {
	ins := make(map[logic.NodeID]bool)
	for p := lo; p < hi; p++ {
		id := d.order[p]
		for _, f := range d.c.Nodes[id].Fanins() {
			if d.isBoundaryInput(f, lo) {
				ins[f] = true
			}
		}
		if d.isPO[p] || d.lastUse[p] >= hi {
			nout++
		}
	}
	return len(ins), nout
}

// isBoundaryInput reports whether net f is an input to an interval starting
// at lo: a primary input or a gate placed before lo. Constants are free.
func (d *decomposer) isBoundaryInput(f logic.NodeID, lo int) bool {
	op := d.c.Nodes[f].Op
	if op == logic.Const0 || op == logic.Const1 {
		return false
	}
	if op == logic.Input {
		return true
	}
	fp := d.pos[f]
	return fp >= 0 && fp < lo
}

// greedyIntervals returns the exclusive end positions of each interval.
func (d *decomposer) greedyIntervals() []int {
	k, m := d.opt.MaxInputs, d.opt.MaxOutputs
	var bounds []int
	lo := 0
	ins := make(map[logic.NodeID]bool)
	// outsAt[p] for p in [lo,hi): whether gate p currently counts as output.
	nout := 0
	// usesWithin[q] = positions p < q in the block with lastUse == q.
	usesWithin := make(map[int][]int)

	reset := func(at int) {
		lo = at
		ins = make(map[logic.NodeID]bool)
		nout = 0
		usesWithin = make(map[int][]int)
	}
	reset(0)

	for p := 0; p < len(d.order); p++ {
		id := d.order[p]
		// Tentative additions.
		added := []logic.NodeID{}
		for _, f := range d.c.Nodes[id].Fanins() {
			if d.isBoundaryInput(f, lo) && !ins[f] {
				ins[f] = true
				added = append(added, f)
			}
		}
		newNout := nout + 1 // the new gate counts as an output for now
		// Gates whose last consumer is this gate become internal.
		becameInternal := 0
		for _, q := range usesWithin[p] {
			if !d.isPO[q] && d.lastUse[q] == p {
				becameInternal++
			}
		}
		newNout -= becameInternal

		if len(ins) > k || newNout > m {
			// Close the block before this gate and retry it in a new one.
			bounds = append(bounds, p)
			for _, f := range added {
				delete(ins, f)
			}
			reset(p)
			p--
			continue
		}
		nout = newNout
		if lu := d.lastUse[p]; lu != inf && lu < len(d.order) {
			usesWithin[lu] = append(usesWithin[lu], p)
		}
	}
	if lo < len(d.order) {
		bounds = append(bounds, len(d.order))
	}
	return bounds
}

// refine slides each boundary between adjacent intervals to the position
// minimizing the pair's total boundary nets, KL-style, for a few passes.
func (d *decomposer) refine(bounds []int) []int {
	if len(bounds) < 2 {
		return bounds
	}
	k, m := d.opt.MaxInputs, d.opt.MaxOutputs
	const passes = 3
	for pass := 0; pass < passes; pass++ {
		improved := false
		for i := 0; i+1 < len(bounds); i++ {
			lo := 0
			if i > 0 {
				lo = bounds[i-1]
			}
			mid := bounds[i]
			hi := bounds[i+1]
			bestMid, bestCost := mid, d.pairCost(lo, mid, hi)
			// Try sliding the boundary within a window.
			for cand := lo + 1; cand < hi; cand++ {
				if cand == mid {
					continue
				}
				in1, out1 := d.costOf(lo, cand)
				if in1 > k || out1 > m {
					continue
				}
				in2, out2 := d.costOf(cand, hi)
				if in2 > k || out2 > m {
					continue
				}
				cost := in1 + out1 + in2 + out2
				if cost < bestCost {
					bestCost, bestMid = cost, cand
				}
			}
			if bestMid != mid {
				bounds[i] = bestMid
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return bounds
}

func (d *decomposer) pairCost(lo, mid, hi int) int {
	in1, out1 := d.costOf(lo, mid)
	in2, out2 := d.costOf(mid, hi)
	return in1 + out1 + in2 + out2
}

// makeBlock materializes the interval [lo, hi) as a Block.
func (d *decomposer) makeBlock(lo, hi int) Block {
	var b Block
	ins := make(map[logic.NodeID]bool)
	for p := lo; p < hi; p++ {
		id := d.order[p]
		b.Gates = append(b.Gates, id)
		for _, f := range d.c.Nodes[id].Fanins() {
			if d.isBoundaryInput(f, lo) {
				ins[f] = true
			}
		}
		if d.isPO[p] || d.lastUse[p] >= hi {
			b.Outputs = append(b.Outputs, id)
		}
	}
	for f := range ins {
		b.Inputs = append(b.Inputs, f)
	}
	sort.Slice(b.Gates, func(i, j int) bool { return b.Gates[i] < b.Gates[j] })
	sort.Slice(b.Inputs, func(i, j int) bool { return b.Inputs[i] < b.Inputs[j] })
	sort.Slice(b.Outputs, func(i, j int) bool { return b.Outputs[i] < b.Outputs[j] })
	return b
}

// Extract builds a standalone circuit computing the block's outputs from its
// inputs. Input i of the result corresponds to Block.Inputs[i] and output j
// to Block.Outputs[j].
func Extract(c *logic.Circuit, b Block) (*logic.Circuit, error) {
	bld := logic.NewBuilder("block")
	remap := make(map[logic.NodeID]logic.NodeID, len(b.Gates)+len(b.Inputs))
	remap[0], remap[1] = 0, 1
	for _, in := range b.Inputs {
		remap[in] = bld.Input(fmt.Sprintf("x%d", in))
	}
	inBlock := make(map[logic.NodeID]bool, len(b.Gates))
	for _, g := range b.Gates {
		inBlock[g] = true
	}
	for _, g := range b.Gates {
		n := &c.Nodes[g]
		fan := n.Fanins()
		mapped := make([]logic.NodeID, len(fan))
		for i, f := range fan {
			nf, ok := remap[f]
			if !ok {
				return nil, fmt.Errorf("partition: block gate %d consumes net %d that is neither a block input nor a block gate", g, f)
			}
			mapped[i] = nf
		}
		remap[g] = bld.Gate(n.Op, mapped...)
	}
	for _, o := range b.Outputs {
		no, ok := remap[o]
		if !ok || !inBlock[o] {
			return nil, fmt.Errorf("partition: block output %d is not a block gate", o)
		}
		bld.Output(fmt.Sprintf("y%d", o), no)
	}
	return bld.C, nil
}

// TruthMatrix computes the block's truth table as a 2^k x m Boolean matrix
// by exhaustively simulating the extracted block circuit.
func TruthMatrix(c *logic.Circuit, b Block) (*tt.Matrix, error) {
	sub, err := Extract(c, b)
	if err != nil {
		return nil, err
	}
	if len(sub.Inputs) > 20 {
		return nil, fmt.Errorf("partition: block has %d inputs, too many for truth table", len(sub.Inputs))
	}
	return sub.TruthMatrix(), nil
}

// Validate checks that blocks exactly cover the live gates, respect the
// (k, m) bounds, and are convex (every external consumer of a block output
// appears after the block's last gate).
func Validate(c *logic.Circuit, blocks []Block, opt Options) error {
	owner := make(map[logic.NodeID]int)
	for bi, b := range blocks {
		if len(b.Inputs) > opt.MaxInputs {
			return fmt.Errorf("partition: block %d has %d inputs > %d", bi, len(b.Inputs), opt.MaxInputs)
		}
		if len(b.Outputs) > opt.MaxOutputs {
			return fmt.Errorf("partition: block %d has %d outputs > %d", bi, len(b.Outputs), opt.MaxOutputs)
		}
		for _, g := range b.Gates {
			if prev, dup := owner[g]; dup {
				return fmt.Errorf("partition: gate %d in blocks %d and %d", g, prev, bi)
			}
			owner[g] = bi
		}
	}
	live := c.TransitiveFanin(c.Outputs...)
	for i := range c.Nodes {
		op := c.Nodes[i].Op
		if op == logic.Const0 || op == logic.Const1 || op == logic.Input {
			continue
		}
		if live[i] {
			if _, ok := owner[logic.NodeID(i)]; !ok {
				return fmt.Errorf("partition: live gate %d not covered by any block", i)
			}
		}
	}
	// Convexity: no block may (transitively) feed itself through external
	// logic. Check per block: from each output's external consumers, no
	// path may reach a block input that depends on that output. Interval
	// construction guarantees this; verify cheaply via the substitution
	// machinery's own ordering check by asserting each block's outputs
	// precede all external consumers.
	for bi, b := range blocks {
		inBlock := make(map[logic.NodeID]bool, len(b.Gates))
		maxGate := logic.NodeID(-1)
		for _, g := range b.Gates {
			inBlock[g] = true
			if g > maxGate {
				maxGate = g
			}
		}
		for i := range c.Nodes {
			if !live[i] {
				continue
			}
			for _, f := range c.Nodes[i].Fanins() {
				if inBlock[f] && !inBlock[logic.NodeID(i)] && logic.NodeID(i) < maxGate {
					return fmt.Errorf("partition: block %d output %d consumed by node %d before block end %d (not convex in node order)",
						bi, f, i, maxGate)
				}
			}
		}
	}
	return nil
}

// Substitutions converts blocks plus implementations into the substitution
// list accepted by logic.ReplaceBlocks.
func Substitutions(blocks []Block, impls map[int]*logic.Circuit) []logic.Substitution {
	subs := make([]logic.Substitution, 0, len(impls))
	for bi, impl := range impls {
		b := blocks[bi]
		subs = append(subs, logic.Substitution{
			Gates:   b.Gates,
			Inputs:  b.Inputs,
			Outputs: b.Outputs,
			Impl:    impl,
		})
	}
	return subs
}
