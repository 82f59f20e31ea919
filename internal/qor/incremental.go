package qor

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"time"

	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/partition"
	"github.com/blasys-go/blasys/internal/sched"
)

// IncrementalComparer evaluates block-substitution candidates against the
// accurate reference without materializing or fully resimulating the
// substituted circuit. It is the exploration-time fast path of Algorithm 1:
// every candidate differs from the committed circuit in exactly one block, so
// only that block's implementation and its transitive fanout cone need new
// simulation — everything upstream and sideways is read from a per-batch
// cache of the committed circuit's node words.
//
// A candidate evaluation compiles a small straight-line program: the
// substituted implementation's gates followed by the statically-dirty fanout
// cone, with every operand pre-resolved to either a scratch slot (recomputed
// this batch) or a committed-cache read. Each 64-sample batch then runs the
// implementation segment, compares the block's output words against the
// cache, and — when they match, which is the common case for low-error
// variants — skips the cone and the whole metric loop by folding the batch's
// cached metric partial. Only batches whose block outputs genuinely change
// simulate the cone and re-score outputs, and the scoring itself is relative
// to the committed circuit: it decodes again only the sample lanes where the
// candidate's outputs differ from the committed outputs, and reuses the
// committed circuit's cached lane errors everywhere else (committedLanes).
//
// The committed state starts at the accurate circuit (every block accurate)
// and advances via Commit as the exploration decrements block degrees. A
// candidate is the pair (block index, implementation circuit); its evaluation
// is bit-identical to rebuilding the whole substituted circuit with
// logic.ReplaceBlocks and comparing it through Evaluator.Compare, because
// both paths compute the same Boolean function on the same input stream
// (skipping recomputation only of values proven equal), score every lane with
// the same expression (laneError), and fold per-batch partials in batch order
// through the same accumulator (reportAccum).
//
// Algorithm 1 evaluates every candidate again after each commit, and most
// candidates are the same (block, implementation) pairs as one step before.
// Each block keeps a memo of its latest evaluation (blockMemo): one outcome
// per batch — clean, died in the cone, or scored with its packed partial.
// When the same implementation is evaluated again right after the next
// commit, every batch that commit could not have changed carries its outcome
// over, and only the other batches run (see compareWith for the rule). Commit
// records which batches it changed, and runs its batches on the sweep's
// shards when it is given them.
//
// Memory: one word per reference node per 64-sample batch (the node-word
// cache), plus 32 bytes per sample per output group — the reference
// integer and the committed lane's value, absolute and relative error — and
// one mask word per group per batch. The memo costs each evaluated block one
// byte per batch plus, once some commit has left a batch unchanged
// (keepParts), 8·(3·groups+4) bytes (one packed partial) per batch its
// latest evaluation scored, and each scratch one more such partial buffer.
//
// CompareCandidate is safe for concurrent use; Commit must not run
// concurrently with CompareCandidate or with another Commit.
type IncrementalComparer struct {
	eval   *Evaluator
	blocks []partition.Block

	// impls[bi] is the committed implementation substituted for block bi,
	// or nil while the block is still accurate.
	impls []*logic.Circuit
	// base[b][node] is the committed circuit's word for every node of the
	// reference, batch b. Nodes interior to an approximated block hold stale
	// values; by the definition of block outputs nothing outside the block
	// reads them.
	base [][]uint64
	// committedRep is the committed circuit's report — the fold of stats —
	// returned without any simulation when a candidate's dirty cone reaches
	// no primary output.
	committedRep Report
	// stats[b] is batch b's metric contribution for the committed circuit.
	// Candidate batches whose outputs match the committed state fold this
	// cached partial instead of re-decoding the batch.
	stats []batchStats
	// lanes is the committed circuit's per-lane decode that candidates are
	// scored against.
	lanes committedLanes

	// epoch counts the commits so far. lastBlock is the block of the latest
	// commit (-1 before any), and changed[b] records whether that commit
	// re-ran batch b, i.e. its block outputs changed there: only those
	// batches had their node words, partial and committed lanes rewritten.
	epoch     int
	lastBlock int
	changed   []bool
	// keepParts records that some commit so far left a batch unchanged. A
	// memo's scored partial can be read only on a batch the next commit
	// leaves unchanged, so evaluations keep partials only once a commit has
	// done that: a circuit whose every commit changes every batch (Adder32
	// at 2^16 samples) stores none.
	keepParts bool
	// memo[bi] is block bi's record of its latest evaluation.
	memo []blockMemo

	scratchPool sync.Pool
}

// Batch outcomes of a candidate evaluation, as a blockMemo records them.
// outcomeRedo is the zero value, so an outcome never written carries nothing.
const (
	// outcomeRedo: scored, but the partial was not kept; run it again.
	outcomeRedo uint8 = iota
	// outcomeClean: the block's outputs matched the committed outputs.
	outcomeClean
	// outcomeDied: the outputs equal the committed outputs after the cone.
	outcomeDied
	// outcomeScored: scored; the packed partial is kept.
	outcomeScored
)

// blockMemo is one block's record of its latest candidate evaluation: the
// implementation evaluated, the epoch it was evaluated at, one outcome per
// batch, and the packed partials (batchStats.pack) of the scored batches in
// batch order (those of scored batches marked outcomeRedo were not kept).
// mu is held for a whole evaluation; an evaluation that finds it held runs
// without the memo and leaves it alone.
type blockMemo struct {
	mu      sync.Mutex
	impl    *logic.Circuit
	epoch   int
	outcome []uint8
	parts   []float64
}

// committedLanes is the committed circuit's per-lane decode. For every
// (batch, group, sample lane) it keeps the committed group integer and its
// absolute and relative error against the reference; for every (batch,
// group), the mask of valid lanes where the committed value differs from the
// reference. It starts at the reference — every value the reference's, every
// error zero, every mask empty — and Commit advances it with score in update
// mode. Candidates only read it, under the same contract as the node-word
// cache: Commit never runs while they do.
type committedLanes struct {
	spec *OutputSpec
	ref  *refLanes // reference integers; no floats
	// val, abs and rel are indexed (batch*nGroups+gi)*64+lane.
	val      []uint64
	abs, rel []float64
	// wrong is indexed batch*nGroups+gi.
	wrong []uint64
}

func newCommittedLanes(spec *OutputSpec, ref *refLanes) committedLanes {
	n := len(ref.vals) * len(spec.Groups) * 64
	cl := committedLanes{
		spec:  spec,
		ref:   ref,
		val:   make([]uint64, 0, n),
		abs:   make([]float64, n),
		rel:   make([]float64, n),
		wrong: make([]uint64, len(ref.vals)*len(spec.Groups)),
	}
	for _, v := range ref.vals {
		cl.val = append(cl.val, v...)
	}
	return cl
}

// laneTally counts, over one evaluation, the lanes the decode scored again
// (the candidate changed them) and the committed circuit's erroneous lanes
// whose cached errors it reused.
type laneTally struct{ rescored, reused int }

// score decodes batch b of a candidate with outputs out against the
// committed outputs com and the reference outputs refOut, over the valid
// lanes in mask; diff is scratch of len(out) words. When out equals com on
// every valid lane it returns false and leaves p alone: the batch's
// statistics are the committed partial. Otherwise it fills p and returns
// true.
//
// Only the lanes where a group's value differs from the committed value (D)
// are decoded again. Per group, the lanes where the committed value is
// wrong are walked together with D in ascending lane order — the order in
// which the reference decode (computeBatchStats) walks the lanes where the
// candidate differs from the reference — so every sum has its bits: a lane
// outside D takes the errors laneError computed from the same value when it
// was committed, and a lane of D back at the reference adds +0, which leaves
// a sum of non-negative terms starting at +0 unchanged. Hamming and
// error-sample counts are integers and the worst cases maxima, so the walk
// order does not touch them.
//
// In update mode the candidate becomes batch b's committed state: its lane
// values, errors and masks are written to the cache (Commit).
func (cl *committedLanes) score(b int, out, com, refOut []uint64, mask uint64, diff []uint64, p *batchStats, update bool, t *laneTally) bool {
	var changedAny, errLanes uint64
	var hamming int
	for o := range out {
		d := (out[o] ^ com[o]) & mask
		diff[o] = d
		changedAny |= d
		e := (out[o] ^ refOut[o]) & mask
		hamming += bits.OnesCount64(e)
		errLanes |= e
	}
	if changedAny == 0 {
		return false
	}
	nGroups := len(cl.spec.Groups)
	p.reset(nGroups)
	p.hamming = int64(hamming)
	p.errSamples = int64(bits.OnesCount64(errLanes))
	n := nGroups * 64
	off := b * n
	refVals := cl.ref.vals[b][:n]
	vals, absErr, relErr := cl.val[off:off+n], cl.abs[off:off+n], cl.rel[off:off+n]
	wrong := cl.wrong[b*nGroups : (b+1)*nGroups]
	var worstRel, worstAbs float64
	// flips[lane] collects the group bits that differ from the committed
	// value in that lane; each changed lane consumes and zeroes its entry.
	var flips [64]uint64
	for gi := range cl.spec.Groups {
		g := &cl.spec.Groups[gi]
		var changed uint64
		for j, bit := range g.Bits {
			d := diff[bit]
			changed |= d
			for ; d != 0; d &= d - 1 {
				flips[bits.TrailingZeros64(d)] |= 1 << uint(j)
			}
		}
		was := wrong[gi]
		t.rescored += bits.OnesCount64(changed)
		t.reused += bits.OnesCount64(was &^ changed)
		var sumAbs, sumSq, sumRel float64
		for lanes := was | changed; lanes != 0; lanes &= lanes - 1 {
			lane := bits.TrailingZeros64(lanes)
			idx := gi*64 + lane
			var abs, rel float64
			if changed&(1<<uint(lane)) != 0 {
				v := vals[idx] ^ flips[lane]
				flips[lane] = 0
				ref, den := refDecode(g, refVals[idx])
				abs, rel = laneError(g, v, ref, den)
				if update {
					vals[idx], absErr[idx], relErr[idx] = v, abs, rel
					if v != refVals[idx] {
						wrong[gi] |= 1 << uint(lane)
					} else {
						wrong[gi] &^= 1 << uint(lane)
					}
				}
			} else {
				abs, rel = absErr[idx], relErr[idx]
			}
			sumAbs += abs
			sumSq += abs * abs
			sumRel += rel
			if rel > worstRel {
				worstRel = rel
			}
			if abs > worstAbs {
				worstAbs = abs
			}
		}
		p.sumAbs[gi] = sumAbs
		p.sumSq[gi] = sumSq
		p.sumRel[gi] = sumRel
	}
	p.worstRel, p.worstAbs = worstRel, worstAbs
	return true
}

// NewIncrementalComparer prepares the incremental evaluation engine for the
// reference circuit decomposed into the given blocks. Sampling (exhaustive
// vs Monte-Carlo, batch count, masks) follows NewEvaluator exactly; see
// IncrementalComparer for the memory cost.
func NewIncrementalComparer(ref *logic.Circuit, spec OutputSpec, blocks []partition.Block, samples int, seed int64) (*IncrementalComparer, error) {
	eval, err := newEvaluator(ref, spec, samples, seed)
	if err != nil {
		return nil, err
	}
	// Blocks must be disjoint ascending intervals of the node order (the
	// partition package's contract); the dirty-cone walk depends on it.
	prevMax := logic.NodeID(-1)
	for bi, b := range blocks {
		if len(b.Gates) == 0 {
			return nil, fmt.Errorf("qor: incremental: block %d has no gates", bi)
		}
		if b.Gates[0] <= prevMax {
			return nil, fmt.Errorf("qor: incremental: block %d overlaps or precedes block %d in node order", bi, bi-1)
		}
		prevMax = b.Gates[len(b.Gates)-1]
	}

	ic := &IncrementalComparer{
		eval:      eval,
		blocks:    blocks,
		impls:     make([]*logic.Circuit, len(blocks)),
		stats:     make([]batchStats, eval.nBatches),
		lanes:     newCommittedLanes(&eval.spec, eval.refLanes),
		lastBlock: -1,
		changed:   make([]bool, eval.nBatches),
		memo:      make([]blockMemo, len(blocks)),
	}
	// Cache the accurate circuit's full node-word state per batch. It
	// matches the reference everywhere, so every partial starts at zero.
	sim := logic.NewSimulator(ref)
	out := make([]uint64, len(ref.Outputs))
	ic.base = make([][]uint64, eval.nBatches)
	for b := 0; b < eval.nBatches; b++ {
		sim.Run(eval.inWords[b], out)
		ic.base[b] = append([]uint64(nil), sim.NodeWords()...)
		ic.stats[b].reset(len(spec.Groups))
	}
	ic.committedRep = ic.foldCommitted()
	return ic, nil
}

// Samples returns the effective sample count (see Evaluator.Samples).
func (ic *IncrementalComparer) Samples() int { return ic.eval.samples }

// CommittedReport returns the report of the committed circuit.
func (ic *IncrementalComparer) CommittedReport() Report { return ic.committedRep }

// progOp is one compiled instruction over the slot array: dst and the
// operands a/b/c are all direct slot indices. Committed-cache values the
// program needs are staged into their shadow slots by per-batch frontier
// copies, so the execution loop performs no per-operand source dispatch.
type progOp struct {
	op      logic.Op
	dst     int32
	a, b, c int32
}

// coneUnit is one stretch of the compiled cone. An empty checkIns means an
// unconditional run of accurate gates. Otherwise the unit is a committed
// block implementation: per batch its boundary inputs (checkIns, whose slots
// are always valid at this point) are compared against the cache; when none
// changed the whole unit is skipped and its outputs (outNodes) are staged
// from the cache instead. Committed-region units always carry at least one
// checkIn — regions with no dirty boundary input are never compiled at all.
type coneUnit struct {
	ops      []progOp
	checkIns []logic.NodeID
	outNodes []logic.NodeID
}

// icScratch is the pooled per-evaluation compile + execution state.
type icScratch struct {
	// slots is the word store: slots [0, len(ref.Nodes)) shadow reference
	// nodes, the tail holds implementation-internal values.
	slots []uint64
	// dirty marks the static cone (nodes the program writes) during
	// compilation; dirtyList records them for O(cone) clearing.
	dirty     []bool
	dirtyList []logic.NodeID

	implOps []progOp // segment 1: candidate impl gates + output copies
	// cone is segment 2: the downstream cone as a sequence of units.
	// Accurate-gate runs execute unconditionally; committed-region units
	// check their boundary inputs per batch and are skipped (outputs staged
	// from the cache) when the change wave did not reach them.
	cone []coneUnit
	// outSlots[j] holds the candidate implementation's output j; blockOuts
	// are the corresponding reference nodes.
	outSlots  []int32
	blockOuts []logic.NodeID
	// implFrontier / coneFrontier list the committed-cache nodes each
	// segment reads; their words are copied into the shadow slots before the
	// segment runs. coneFrontier also includes every primary-output node the
	// cone does not recompute, so output assembly reads slots uniformly.
	implFrontier []logic.NodeID
	coneFrontier []logic.NodeID
	// inFrontier marks nodes already on a frontier list.
	inFrontier []bool
	// outSrc[i] is the slot of primary output i.
	outSrc []int32
	nSlots int

	// Compile-time work buffers, reused across evaluations so compilation
	// performs no steady-state allocation: slotOfBuf/implOutBuf back
	// compileImpl's node→slot map and output-operand list, inOpsBuf holds the
	// candidate block's input operands, rInBuf a committed region's.
	slotOfBuf  []int32
	implOutBuf []int32
	inOpsBuf   []int32
	rInBuf     []int32

	// out, com and diff hold one batch's candidate outputs, committed
	// outputs and their per-output difference words.
	out, com, diff []uint64
	acc            reportAccum
	// parts collects an evaluation's packed partials for the block's memo.
	parts []float64
}

// grow32 returns buf resized to n, reallocating only on growth.
func grow32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n+n/2+8)
	}
	return buf[:n]
}

// prepScratch sizes a scratch for the reference circuit and resets the
// per-evaluation compile state. Marker arrays (dirty, inFrontier) are assumed
// clear — clearMarks restores that invariant after each compilation.
func (ic *IncrementalComparer) prepScratch(sc *icScratch) {
	n := len(ic.eval.ref.Nodes)
	if len(sc.dirty) < n {
		sc.dirty = make([]bool, n)
		sc.inFrontier = make([]bool, n)
	}
	if nOut := len(ic.eval.ref.Outputs); len(sc.out) < nOut {
		sc.out = make([]uint64, nOut)
		sc.com = make([]uint64, nOut)
		sc.diff = make([]uint64, nOut)
	}
	sc.dirtyList = sc.dirtyList[:0]
	sc.implOps = sc.implOps[:0]
	sc.cone = sc.cone[:0]
	sc.outSlots = sc.outSlots[:0]
	sc.blockOuts = sc.blockOuts[:0]
	sc.implFrontier = sc.implFrontier[:0]
	sc.coneFrontier = sc.coneFrontier[:0]
	sc.outSrc = sc.outSrc[:0]
	sc.nSlots = n
}

// clearMarks resets the static-cone and frontier markers after a
// compilation, in O(cone) time.
func (sc *icScratch) clearMarks() {
	for _, n := range sc.dirtyList {
		sc.dirty[n] = false
	}
	for _, n := range sc.implFrontier {
		sc.inFrontier[n] = false
	}
	for _, n := range sc.coneFrontier {
		sc.inFrontier[n] = false
	}
}

func (ic *IncrementalComparer) getScratch() *icScratch {
	sc, _ := ic.scratchPool.Get().(*icScratch)
	if sc == nil {
		sc = &icScratch{}
	}
	ic.prepScratch(sc)
	return sc
}

// putScratch clears the static-cone markers and returns the scratch to the
// pool.
func (ic *IncrementalComparer) putScratch(sc *icScratch) {
	sc.clearMarks()
	ic.scratchPool.Put(sc)
}

// markDirty records node n as written by the compiled program.
func (sc *icScratch) markDirty(n logic.NodeID) {
	if !sc.dirty[n] {
		sc.dirty[n] = true
		sc.dirtyList = append(sc.dirtyList, n)
	}
}

// pushUnit appends a cone unit, reusing a previous compilation's op and
// checkIn storage when available, and returns its index.
func (sc *icScratch) pushUnit() int {
	if len(sc.cone) < cap(sc.cone) {
		sc.cone = sc.cone[:len(sc.cone)+1]
		u := &sc.cone[len(sc.cone)-1]
		u.ops = u.ops[:0]
		u.checkIns = u.checkIns[:0]
		u.outNodes = nil
	} else {
		sc.cone = append(sc.cone, coneUnit{})
	}
	return len(sc.cone) - 1
}

// operand resolves a reference-node read at compile time: dirty nodes are
// recomputed into their shadow slots by the program; clean nodes are staged
// into those slots by the given segment frontier.
func (sc *icScratch) operand(n logic.NodeID, frontier *[]logic.NodeID) int32 {
	if !sc.dirty[n] && !sc.inFrontier[n] {
		sc.inFrontier[n] = true
		*frontier = append(*frontier, n)
	}
	return int32(n)
}

// compileImpl appends an implementation's gates to ops, with the impl's
// primary inputs bound to the given operands and internal values assigned
// fresh slots from *next. It returns ops and the operand of every impl output
// (valid until the next compileImpl call on this scratch — both are backed by
// reused buffers). Impl constants read the committed cache's constant nodes
// (slot 0 = 0, slot 1 = all-ones), staged via the segment frontier.
func (sc *icScratch) compileImpl(ops []progOp, impl *logic.Circuit, inOps []int32, frontier *[]logic.NodeID, next *int) ([]progOp, []int32) {
	sc.slotOfBuf = grow32(sc.slotOfBuf, len(impl.Nodes))
	slotOf := sc.slotOfBuf[:len(impl.Nodes)]
	c0 := sc.operand(0, frontier)
	c1 := sc.operand(1, frontier)
	for i := range slotOf {
		slotOf[i] = c0 // const0 by default
	}
	slotOf[1] = c1
	for i, in := range impl.Inputs {
		slotOf[in] = inOps[i]
	}
	for i := range impl.Nodes {
		n := &impl.Nodes[i]
		switch n.Op {
		case logic.Const0, logic.Const1, logic.Input:
			continue
		}
		dst := int32(*next)
		*next++
		op := progOp{op: n.Op, dst: dst}
		fan := n.Fanins()
		if len(fan) > 0 {
			op.a = slotOf[fan[0]]
		}
		if len(fan) > 1 {
			op.b = slotOf[fan[1]]
		}
		if len(fan) > 2 {
			op.c = slotOf[fan[2]]
		}
		ops = append(ops, op)
		slotOf[i] = dst
	}
	sc.implOutBuf = grow32(sc.implOutBuf, len(impl.Outputs))
	outs := sc.implOutBuf[:len(impl.Outputs)]
	for j, o := range impl.Outputs {
		outs[j] = slotOf[o]
	}
	return ops, outs
}

// compile builds the candidate program: the impl segment (with its outputs
// staged in dedicated slots for the clean-batch check), the statically-dirty
// cone segment, and the primary-output operand table.
func (ic *IncrementalComparer) compile(bi int, impl *logic.Circuit, sc *icScratch) {
	c := ic.eval.ref
	b := &ic.blocks[bi]

	// Segment 1: the candidate implementation. Its inputs are upstream of
	// the block and therefore always read the committed cache.
	sc.inOpsBuf = grow32(sc.inOpsBuf, len(b.Inputs))
	inOps := sc.inOpsBuf[:len(b.Inputs)]
	for i, in := range b.Inputs {
		inOps[i] = sc.operand(in, &sc.implFrontier)
	}
	var outOps []int32
	sc.implOps, outOps = sc.compileImpl(sc.implOps, impl, inOps, &sc.implFrontier, &sc.nSlots)
	// Stage outputs in contiguous slots (a Buf per output) so the runner can
	// compare them against the cache without an operand indirection.
	for j, o := range outOps {
		dst := int32(sc.nSlots)
		sc.nSlots++
		sc.implOps = append(sc.implOps, progOp{op: logic.Buf, dst: dst, a: o})
		sc.outSlots = append(sc.outSlots, dst)
		sc.blockOuts = append(sc.blockOuts, b.Outputs[j])
		sc.markDirty(b.Outputs[j])
	}

	ic.compileCone(bi, sc)

	// Output assembly reads slots uniformly: stage every output node the
	// cone does not recompute.
	for _, o := range c.Outputs {
		sc.outSrc = append(sc.outSrc, sc.operand(o, &sc.coneFrontier))
	}
	if len(sc.slots) < sc.nSlots {
		sc.slots = make([]uint64, sc.nSlots+sc.nSlots/2)
	}
}

// compileCone builds segment 2 — the transitive fanout cone downstream of
// block bi, region by region — from the dirty marks left by segment 1 (the
// candidate block's outputs). Consecutive accurate gates merge into one
// unconditional unit; each committed region becomes a conditional unit that
// is skipped per batch when the wave has not reached its boundary inputs.
func (ic *IncrementalComparer) compileCone(bi int, sc *icScratch) {
	c := ic.eval.ref
	gateUnit := -1
	for rj := bi + 1; rj < len(ic.blocks); rj++ {
		rb := &ic.blocks[rj]
		if rimpl := ic.impls[rj]; rimpl != nil {
			// Approximated downstream block: re-simulate the whole
			// implementation when any boundary input is dirty.
			nDirty := 0
			for _, in := range rb.Inputs {
				if sc.dirty[in] {
					nDirty++
				}
			}
			if nDirty == 0 {
				continue
			}
			sc.rInBuf = grow32(sc.rInBuf, len(rb.Inputs))
			rIn := sc.rInBuf[:len(rb.Inputs)]
			for i, in := range rb.Inputs {
				rIn[i] = sc.operand(in, &sc.coneFrontier)
			}
			ui := sc.pushUnit()
			for _, in := range rb.Inputs {
				if sc.dirty[in] {
					sc.cone[ui].checkIns = append(sc.cone[ui].checkIns, in)
				}
			}
			ops, rOut := sc.compileImpl(sc.cone[ui].ops, rimpl, rIn, &sc.coneFrontier, &sc.nSlots)
			for j, o := range rOut {
				ops = append(ops, progOp{op: logic.Buf, dst: int32(rb.Outputs[j]), a: o})
				sc.markDirty(rb.Outputs[j])
			}
			sc.cone[ui].ops = ops
			sc.cone[ui].outNodes = rb.Outputs
			gateUnit = -1
		} else {
			// Accurate downstream block: propagate dirtiness gate by gate.
			for _, g := range rb.Gates {
				n := &c.Nodes[g]
				fan := n.Fanins()
				affected := false
				for _, f := range fan {
					if sc.dirty[f] {
						affected = true
						break
					}
				}
				if !affected {
					continue
				}
				op := progOp{op: n.Op, dst: int32(g)}
				if len(fan) > 0 {
					op.a = sc.operand(fan[0], &sc.coneFrontier)
				}
				if len(fan) > 1 {
					op.b = sc.operand(fan[1], &sc.coneFrontier)
				}
				if len(fan) > 2 {
					op.c = sc.operand(fan[2], &sc.coneFrontier)
				}
				if gateUnit < 0 {
					gateUnit = sc.pushUnit()
				}
				sc.cone[gateUnit].ops = append(sc.cone[gateUnit].ops, op)
				sc.markDirty(g)
			}
		}
	}
}

// execOps runs one compiled segment for a batch over the slot array.
func execOps(ops []progOp, w []uint64) {
	for i := range ops {
		op := &ops[i]
		var v uint64
		switch op.op {
		case logic.Buf:
			v = w[op.a]
		case logic.Not:
			v = ^w[op.a]
		case logic.And:
			v = w[op.a] & w[op.b]
		case logic.Or:
			v = w[op.a] | w[op.b]
		case logic.Xor:
			v = w[op.a] ^ w[op.b]
		case logic.Nand:
			v = ^(w[op.a] & w[op.b])
		case logic.Nor:
			v = ^(w[op.a] | w[op.b])
		case logic.Xnor:
			v = ^(w[op.a] ^ w[op.b])
		case logic.Mux:
			sel := w[op.a]
			v = (sel & w[op.c]) | (^sel & w[op.b])
		default:
			v = op.op.Eval(w[op.a], w[op.b], w[op.c])
		}
		w[op.dst] = v
	}
}

// runBatch executes the candidate program for one batch. It returns true
// when the block's outputs match the committed cache (the cone and metric
// can be skipped for this batch).
func (sc *icScratch) runBatch(base []uint64) (clean bool) {
	w := sc.slots
	for _, n := range sc.implFrontier {
		w[n] = base[n]
	}
	execOps(sc.implOps, w)
	clean = true
	for j, s := range sc.outSlots {
		if w[s] != base[sc.blockOuts[j]] {
			clean = false
			break
		}
	}
	if clean {
		return true
	}
	for j, s := range sc.outSlots {
		w[sc.blockOuts[j]] = w[s]
	}
	for _, n := range sc.coneFrontier {
		w[n] = base[n]
	}
	for ui := range sc.cone {
		u := &sc.cone[ui]
		if len(u.checkIns) > 0 {
			hit := false
			for _, in := range u.checkIns {
				if w[in] != base[in] {
					hit = true
					break
				}
			}
			if !hit {
				// The wave bypassed this committed region: its outputs keep
				// their cached values.
				for _, o := range u.outNodes {
					w[o] = base[o]
				}
				continue
			}
		}
		execOps(u.ops, w)
	}
	return false
}

// checkCandidate validates a (block, implementation) pair.
func (ic *IncrementalComparer) checkCandidate(bi int, impl *logic.Circuit) error {
	if bi < 0 || bi >= len(ic.blocks) {
		return fmt.Errorf("qor: incremental: block index %d out of range [0, %d)", bi, len(ic.blocks))
	}
	if impl == nil {
		return fmt.Errorf("qor: incremental: block %d: nil implementation", bi)
	}
	b := &ic.blocks[bi]
	if len(impl.Inputs) != len(b.Inputs) || len(impl.Outputs) != len(b.Outputs) {
		return fmt.Errorf("qor: incremental: block %d: impl I/O %d/%d, block %d/%d",
			bi, len(impl.Inputs), len(impl.Outputs), len(b.Inputs), len(b.Outputs))
	}
	return nil
}

// reachesOutput reports whether the compiled cone touches a primary output.
func (ic *IncrementalComparer) reachesOutput(sc *icScratch) bool {
	for _, o := range ic.eval.ref.Outputs {
		if sc.dirty[o] {
			return true
		}
	}
	return false
}

// CompareCandidate evaluates substituting impl into block bi on top of the
// committed state, without committing. The returned report is bit-identical
// to rebuilding the substituted circuit and evaluating it with
// Evaluator.Compare on the same sample stream.
func (ic *IncrementalComparer) CompareCandidate(bi int, impl *logic.Circuit) (Report, error) {
	sc := ic.getScratch()
	defer ic.putScratch(sc)
	return ic.compareWith(sc, bi, impl)
}

// compareWith is CompareCandidate over caller-owned scratch; sc must be
// prepped (prepScratch) with clear markers, and is left compiled — the
// caller clears its marks.
//
// Block bi's memo carries a batch's outcome over from the previous
// evaluation only when that evaluation was of the same implementation
// (pointer) exactly one commit ago, and that commit, at block j, was not at
// bi. Then batch b keeps its outcome when
//   - j < bi and the commit left b clean: the program is unchanged, since the
//     cone visits only blocks after bi, and so is every word, partial and
//     lane batch b reads;
//   - j > bi and the outcome was clean: blocks are disjoint ascending node
//     intervals and a block's inputs come before it, so bi's inputs and its
//     committed outputs lie before block j, where the commit writes nothing;
//   - j > bi, no input of block j is in bi's dirty cone, and the commit left
//     b clean: region j compiles to nothing before and after the commit, so
//     the program is unchanged.
//
// A kept clean or died batch folds the current committed partial, a kept
// scored batch its stored partial, in batch order like every other batch,
// so every sum keeps its bits. A scored batch whose partial was not kept
// (keepParts was false) is recorded as outcomeRedo and runs again.
func (ic *IncrementalComparer) compareWith(sc *icScratch, bi int, impl *logic.Circuit) (Report, error) {
	if err := ic.checkCandidate(bi, impl); err != nil {
		return Report{}, err
	}
	start := time.Now()
	ic.compile(bi, impl, sc)
	compiled := time.Now()
	mCompileSeconds.Add(compiled.Sub(start).Seconds())
	e := ic.eval
	if !ic.reachesOutput(sc) {
		// The cone never reaches a primary output: the candidate's outputs
		// are the committed circuit's outputs.
		mEvalBatches.Observe(0)
		return ic.committedRep, nil
	}

	m := &ic.memo[bi]
	if m.mu.TryLock() {
		defer m.mu.Unlock()
		if len(m.outcome) != e.nBatches {
			m.outcome = make([]uint8, e.nBatches)
		}
	} else {
		m = nil // another shard holds it
	}
	carry := m != nil && m.impl == impl && m.epoch == ic.epoch-1 && ic.lastBlock != bi
	after, inCone := carry && ic.lastBlock > bi, false
	if after {
		for _, in := range ic.blocks[ic.lastBlock].Inputs {
			inCone = inCone || sc.dirty[in]
		}
	}
	keep := m != nil && ic.keepParts
	stride := packedLen(len(e.spec.Groups))
	read := 0 // offset of the next recorded scored batch in m.parts

	sc.acc.reset(&e.spec)
	sc.parts = sc.parts[:0]
	var tally laneTally
	cleanBatches, memoBatches := 0, 0
	for b := 0; b < e.nBatches; b++ {
		if carry {
			k := m.outcome[b]
			kept := k != outcomeRedo && (after && k == outcomeClean || !inCone && !ic.changed[b])
			switch {
			case kept && k == outcomeScored:
				q := m.parts[read : read+stride]
				sc.acc.foldPacked(q)
				sc.parts = append(sc.parts, q...)
			case kept:
				sc.acc.fold(&ic.stats[b])
			}
			if k == outcomeScored {
				read += stride
			}
			if kept {
				memoBatches++
				continue
			}
		}
		k := outcomeClean
		if sc.runBatch(ic.base[b]) {
			// Block outputs match the committed state: the batch's metrics
			// are exactly the cached committed partial.
			sc.acc.fold(&ic.stats[b])
			cleanBatches++
		} else if ic.scoreBatch(sc, b, &sc.acc.scratch, false, &tally) {
			sc.acc.fold(&sc.acc.scratch)
			k = outcomeRedo
			if keep {
				k = outcomeScored
				sc.parts = sc.acc.scratch.pack(sc.parts)
			}
		} else {
			// The wave died in the cone: the outputs are the committed ones.
			sc.acc.fold(&ic.stats[b])
			k = outcomeDied
		}
		if m != nil {
			m.outcome[b] = k
		}
	}
	rep := sc.acc.report(e.samples, e.exhaustive)
	if m != nil {
		m.impl, m.epoch = impl, ic.epoch
		m.parts = append(m.parts[:0], sc.parts...)
	}
	mSimSeconds.Add(time.Since(compiled).Seconds())
	mEvalBatchKind.With("clean").Add(float64(cleanBatches))
	mEvalBatchKind.With("cone").Add(float64(e.nBatches - cleanBatches - memoBatches))
	mEvalBatchKind.With("memo").Add(float64(memoBatches))
	mEvalBatches.Observe(float64(e.nBatches))
	mEvalLanes.With("rescored").Add(float64(tally.rescored))
	mEvalLanes.With("reused").Add(float64(tally.reused))
	return rep, nil
}

// scoreBatch scores batch b of the program compiled in sc, which runBatch
// has just run, against the committed state (committedLanes.score). It must
// run before Commit folds the batch's new node words into the cache, since
// the committed outputs are read from there.
func (ic *IncrementalComparer) scoreBatch(sc *icScratch, b int, p *batchStats, update bool, t *laneTally) bool {
	e := ic.eval
	out, com := sc.out[:len(e.ref.Outputs)], sc.com[:len(e.ref.Outputs)]
	w, base := sc.slots, ic.base[b]
	for i, src := range sc.outSrc {
		out[i] = w[src]
	}
	for i, o := range e.ref.Outputs {
		com[i] = base[o]
	}
	mask := ^uint64(0)
	if b == e.nBatches-1 {
		mask = e.lastMask
	}
	return ic.lanes.score(b, out, com, e.refOut[b], mask, sc.diff, p, update, t)
}

// commitChunk is the number of consecutive batches a Commit worker claims at
// a time.
const commitChunk = 16

// Commit substitutes impl into block bi permanently: the committed node-word
// cache is updated along the dirty cone, every batch whose outputs change is
// re-scored in update mode — advancing its partial and the committed-lane
// cache — and subsequent candidates are evaluated on top of the new state.
// Batches the substitution leaves unchanged keep their partials and lanes,
// and Commit records which batches it changed for the block memos.
// Returns the committed circuit's report.
//
// Batches are independent here: each writes only its own node words,
// partial, committed lanes and error masks. Given distinct shards of ic,
// none of them in use, Commit spreads the batches over them like a sweep
// (sched.Claim): worker w compiles the program once into on[w]'s scratch
// and claims chunks of commitChunk batches. The committed report is folded
// serially after the join. Without shards it runs on one pooled scratch.
func (ic *IncrementalComparer) Commit(bi int, impl *logic.Circuit, on ...*Shard) (Report, error) {
	if err := ic.checkCandidate(bi, impl); err != nil {
		return Report{}, err
	}
	scs := make([]*icScratch, len(on))
	for w, s := range on {
		scs[w] = &s.sc
	}
	if len(scs) == 0 {
		sc := ic.getScratch()
		defer ic.scratchPool.Put(sc)
		scs = append(scs, sc)
	}
	compiled := make([]bool, len(scs))
	nBatches := ic.eval.nBatches
	sched.Claim(len(scs), (nBatches+commitChunk-1)/commitChunk, func(w, c int) bool {
		sc := scs[w]
		if !compiled[w] {
			ic.prepScratch(sc)
			ic.compile(bi, impl, sc)
			compiled[w] = true
		}
		var tally laneTally
		for b := c * commitChunk; b < min((c+1)*commitChunk, nBatches); b++ {
			base := ic.base[b]
			ic.changed[b] = !sc.runBatch(base)
			if !ic.changed[b] {
				continue // batch unaffected; cache already correct
			}
			ic.scoreBatch(sc, b, &ic.stats[b], true, &tally)
			// Fold every recomputed node into the cache. dirtyList holds the
			// statically-written reference nodes, all of which the program
			// computed for this batch.
			for _, n := range sc.dirtyList {
				base[n] = sc.slots[n]
			}
		}
		return true
	})
	for w, sc := range scs {
		if compiled[w] {
			sc.clearMarks()
		}
	}
	ic.impls[bi] = impl
	ic.epoch++
	ic.lastBlock = bi
	ic.keepParts = ic.keepParts || slices.Contains(ic.changed, false)
	ic.committedRep = ic.foldCommitted()
	return ic.committedRep, nil
}

// foldCommitted folds the committed per-batch partials, in batch order, into
// the committed circuit's report.
func (ic *IncrementalComparer) foldCommitted() Report {
	e := ic.eval
	var acc reportAccum
	acc.reset(&e.spec)
	for b := range ic.stats {
		acc.fold(&ic.stats[b])
	}
	return acc.report(e.samples, e.exhaustive)
}

// Shard is a worker-private evaluation handle onto an IncrementalComparer,
// built for sharded parallel candidate sweeps: each worker of a sweep owns
// one Shard outright, so candidate evaluations proceed with zero scratch-pool
// contention and zero steady-state allocation, while all shards read the same
// committed baseline cache (ic.base), per-batch metric partials and
// committed-lane cache. Commit can borrow the shards as its workers' scratch
// between sweeps.
//
// Concurrency contract: CompareCandidate may run concurrently on distinct
// Shards (and concurrently with the parent's CompareCandidate); a single
// Shard is not safe for concurrent use with itself, and no Shard may run
// concurrently with IncrementalComparer.Commit — commits mutate the shared
// baseline the shards read. Shards stay valid across commits: the next
// evaluation simply sees the new committed state. Two shards may evaluate
// the same block at once; both results are exact, and only the one that
// takes the block's memo first uses and updates it — the other evaluates
// every batch.
//
// Because every evaluation is deterministic and the memo only skips batches
// whose outcome it proves unchanged, a candidate evaluated through any Shard
// returns a report bit-identical to the parent's CompareCandidate —
// sharding affects scheduling, never results.
type Shard struct {
	ic *IncrementalComparer
	sc icScratch
}

// Shard creates a worker-private evaluation handle (see Shard).
func (ic *IncrementalComparer) Shard() *Shard {
	return &Shard{ic: ic}
}

// CompareCandidate evaluates (bi, impl) on this shard's private scratch; see
// IncrementalComparer.CompareCandidate for semantics.
func (s *Shard) CompareCandidate(bi int, impl *logic.Circuit) (Report, error) {
	s.ic.prepScratch(&s.sc)
	rep, err := s.ic.compareWith(&s.sc, bi, impl)
	s.sc.clearMarks()
	return rep, err
}
