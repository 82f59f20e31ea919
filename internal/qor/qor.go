// Package qor evaluates the quality of results of an approximate circuit
// against its accurate reference, implementing the error metrics of the
// BLASYS paper's Section 4: average relative error (Eq. 1), average absolute
// error (Eq. 2, plus the normalized variant plotted in Fig. 5), Hamming
// distance, error rate, and worst-case error.
//
// Accuracy is estimated by Monte-Carlo simulation over uniform random input
// vectors (the paper uses one million samples); circuits with at most
// ExhaustiveLimit inputs are evaluated exhaustively instead, making the
// estimate exact.
package qor

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"sync"

	"github.com/blasys-go/blasys/internal/logic"
)

// ExhaustiveLimit is the input count up to which evaluation enumerates all
// assignments instead of sampling.
const ExhaustiveLimit = 20

// MaxSamples bounds the sample count an evaluator accepts. Evaluators hold
// input and reference words plus a reference decode for every 64-sample
// batch, so the sample count sets their memory. 2^20 is the paper's
// final-report count and the largest this repository requests.
const MaxSamples = 1 << 20

// Group interprets a subset of circuit outputs as one number. Its JSON form
// is the HTTP API's output group and the job journal's spec entry.
type Group struct {
	Name string `json:"name"`
	// Bits lists output indices, least significant first.
	Bits []int `json:"bits"`
	// Signed selects two's-complement interpretation.
	Signed bool `json:"signed,omitempty"`
}

// MaxValue returns the largest magnitude representable by the group, used
// for normalizing absolute errors.
func (g Group) MaxValue() float64 {
	n := len(g.Bits)
	if g.Signed {
		return math.Ldexp(1, n-1) // 2^(n-1)
	}
	return math.Ldexp(1, n) - 1 // 2^n - 1
}

// OutputSpec describes how a circuit's outputs decompose into numbers.
type OutputSpec struct {
	Groups []Group
}

// Unsigned returns the spec interpreting outputs [0, n) as one unsigned
// number, LSB first — the common case for arithmetic circuits.
func Unsigned(name string, n int) OutputSpec {
	bits := make([]int, n)
	for i := range bits {
		bits[i] = i
	}
	return OutputSpec{Groups: []Group{{Name: name, Bits: bits}}}
}

// Metric selects a scalar from a Report, used to drive the design-space
// exploration and thresholds.
type Metric int

// Supported metrics.
const (
	// AvgRelative is Eq. 1: mean of |R - R'| / max(|R|, 1).
	AvgRelative Metric = iota
	// AvgAbsolute is Eq. 2: mean of |R - R'|.
	AvgAbsolute
	// NormAvgAbsolute is AvgAbsolute normalized to the group's maximum
	// value (the paper's Fig. 5 right-hand axis).
	NormAvgAbsolute
	// MeanHamming is the mean number of flipped output bits per sample.
	MeanHamming
	// ErrorRate is the fraction of samples with any output mismatch.
	ErrorRate
	// WorstRelative is the maximum relative error observed.
	WorstRelative
	// MSE is the mean squared numeric error.
	MSE
)

// metricNames holds each metric's short name, which ParseMetric reads (the
// CLI flag and the HTTP API), and its display name, which String returns.
var metricNames = [...]struct{ short, long string }{
	AvgRelative:     {"rel", "avg-relative-error"},
	AvgAbsolute:     {"abs", "avg-absolute-error"},
	NormAvgAbsolute: {"normabs", "normalized-avg-absolute-error"},
	MeanHamming:     {"hamming", "mean-hamming-distance"},
	ErrorRate:       {"rate", "error-rate"},
	WorstRelative:   {"worst", "worst-relative-error"},
	MSE:             {"mse", "mean-squared-error"},
}

// Valid reports whether m is one of the metrics above.
func (m Metric) Valid() bool { return m >= 0 && int(m) < len(metricNames) }

func (m Metric) String() string {
	if m.Valid() {
		return metricNames[m].long
	}
	return fmt.Sprintf("metric(%d)", int(m))
}

// ParseMetric returns the metric with the given short name (rel, abs,
// normabs, hamming, rate, worst, mse); "" means the default, AvgRelative.
func ParseMetric(name string) (Metric, error) {
	if name == "" {
		return AvgRelative, nil
	}
	known := make([]string, len(metricNames))
	for m, n := range metricNames {
		if n.short == name {
			return Metric(m), nil
		}
		known[m] = n.short
	}
	return 0, fmt.Errorf("qor: unknown metric %q (known: %s)", name, strings.Join(known, ", "))
}

// Report carries every metric from one comparison.
type Report struct {
	Samples     int
	Exact       bool // true when evaluated exhaustively
	AvgRel      float64
	AvgAbs      float64
	NormAvgAbs  float64
	MeanHam     float64
	ErrRate     float64
	WorstRel    float64
	WorstAbs    float64
	MeanSquared float64
}

// Value extracts the requested metric.
func (r Report) Value(m Metric) float64 {
	switch m {
	case AvgRelative:
		return r.AvgRel
	case AvgAbsolute:
		return r.AvgAbs
	case NormAvgAbsolute:
		return r.NormAvgAbs
	case MeanHamming:
		return r.MeanHam
	case ErrorRate:
		return r.ErrRate
	case WorstRelative:
		return r.WorstRel
	case MSE:
		return r.MeanSquared
	}
	panic(fmt.Sprintf("qor: unknown metric %d", int(m)))
}

// Evaluator compares approximate circuits against a fixed reference.
// The reference outputs for the (deterministic) input stream are computed
// once and cached, so repeated Compare calls — the inner loop of the
// design-space exploration — only simulate the approximate circuit.
// An Evaluator is safe for concurrent Compare calls.
type Evaluator struct {
	ref     *logic.Circuit
	spec    OutputSpec
	samples int
	seed    int64

	inWords    [][]uint64 // per batch, per input
	refOut     [][]uint64 // per batch, per output
	nBatches   int
	lastMask   uint64 // valid-sample mask of the final batch
	exhaustive bool
	refLanes   *refLanes // cached per-lane reference decodes

	// simPool recycles simulators (really: their node-word buffers) across
	// Compare calls, so the exploration inner loop does not allocate one
	// buffer per candidate circuit.
	simPool sync.Pool
}

// NewEvaluator prepares an evaluator with the given Monte-Carlo sample count
// and seed. If the reference circuit has at most ExhaustiveLimit inputs and
// 2^inputs <= samples, evaluation is exhaustive and exact. Sample counts
// above MaxSamples are rejected.
func NewEvaluator(ref *logic.Circuit, spec OutputSpec, samples int, seed int64) (*Evaluator, error) {
	e, err := newEvaluator(ref, spec, samples, seed)
	if err != nil {
		return nil, err
	}
	e.refLanes.addFloats(&e.spec)
	return e, nil
}

// newEvaluator is NewEvaluator without the reference floats Compare reads.
// The incremental comparer decodes against its committed-lane cache instead,
// and its evaluator never runs Compare.
func newEvaluator(ref *logic.Circuit, spec OutputSpec, samples int, seed int64) (*Evaluator, error) {
	if samples > MaxSamples {
		return nil, fmt.Errorf("qor: %d samples exceed the maximum %d", samples, MaxSamples)
	}
	if samples < 64 {
		samples = 64
	}
	for gi, g := range spec.Groups {
		if len(g.Bits) == 0 || len(g.Bits) > 63 {
			return nil, fmt.Errorf("qor: group %d has %d bits (want 1..63)", gi, len(g.Bits))
		}
		for _, b := range g.Bits {
			if b < 0 || b >= len(ref.Outputs) {
				return nil, fmt.Errorf("qor: group %d references output %d of %d", gi, b, len(ref.Outputs))
			}
		}
	}
	e := &Evaluator{ref: ref, spec: spec, samples: samples, seed: seed}

	k := len(ref.Inputs)
	exhaustive := k <= ExhaustiveLimit && (1<<uint(k)) <= samples
	if exhaustive {
		total := 1 << uint(k)
		e.samples = total
		e.nBatches = (total + 63) / 64
	} else {
		e.nBatches = (samples + 63) / 64
		e.samples = e.nBatches * 64
	}
	rem := e.samples % 64
	if rem == 0 {
		e.lastMask = ^uint64(0)
	} else {
		e.lastMask = (uint64(1) << uint(rem)) - 1
	}

	rng := rand.New(rand.NewSource(seed))
	sim := logic.NewSimulator(ref)
	e.inWords = make([][]uint64, e.nBatches)
	e.refOut = make([][]uint64, e.nBatches)
	for b := 0; b < e.nBatches; b++ {
		in := make([]uint64, k)
		if exhaustive {
			logic.CountingWords(b*64, in)
		} else {
			logic.RandomInputWords(rng, in)
		}
		out := make([]uint64, len(ref.Outputs))
		sim.Run(in, out)
		e.inWords[b] = in
		e.refOut[b] = append([]uint64(nil), out...)
	}
	e.exhaustive = exhaustive
	e.refLanes = buildRefLanes(&e.spec, e.refOut)
	return e, nil
}

// refLanes caches, for every (batch, group, sample lane), the reference
// value decoded three ways: the raw group integer, the (sign-adjusted)
// float, and the relative-error denominator max(|value|, 1). The metric
// inner loop re-derives these for every mismatching lane of every candidate;
// the reference stream is fixed per evaluator, so one decode pass at
// construction removes half the decode work — and the cached integer lets
// the candidate's value be reconstructed by flipping only the differing bits
// instead of gathering the whole group.
//
// The floats cost 16 bytes per sample per group on top of the integer's 8.
// Evaluators add them (addFloats), because they score every erroneous lane
// of every candidate against the reference. The incremental comparer keeps
// only the integers: it decodes again just the lanes a candidate changes,
// and derives the floats for those (refDecode).
type refLanes struct {
	vals [][]uint64  // [batch][gi*64+lane] raw group integer
	dec  [][]float64 // decoded float value; nil until addFloats
	den  [][]float64 // max(|dec|, 1); nil until addFloats
}

// buildRefLanes decodes the group integers of every reference lane.
func buildRefLanes(spec *OutputSpec, refOut [][]uint64) *refLanes {
	nGroups := len(spec.Groups)
	rc := &refLanes{vals: make([][]uint64, len(refOut))}
	for b := range refOut {
		vals := make([]uint64, nGroups*64)
		for gi := range spec.Groups {
			g := &spec.Groups[gi]
			for lane := uint(0); lane < 64; lane++ {
				vals[gi*64+int(lane)] = decodeInt(refOut[b], g, lane)
			}
		}
		rc.vals[b] = vals
	}
	return rc
}

// addFloats decodes every cached reference integer into the float and
// denominator the reference decode (computeBatchStats) reads.
func (rc *refLanes) addFloats(spec *OutputSpec) {
	rc.dec = make([][]float64, len(rc.vals))
	rc.den = make([][]float64, len(rc.vals))
	for b, vals := range rc.vals {
		dec, den := make([]float64, len(vals)), make([]float64, len(vals))
		for idx, v := range vals {
			dec[idx], den[idx] = refDecode(&spec.Groups[idx/64], v)
		}
		rc.dec[b], rc.den[b] = dec, den
	}
}

// Samples returns the effective sample count.
func (e *Evaluator) Samples() int { return e.samples }

// InputWords returns the input words of batch b (one word per primary
// input). The slice aliases internal state; do not modify it.
func (e *Evaluator) InputWords(b int) []uint64 { return e.inWords[b] }

// ReferenceWords returns the reference output words of batch b (one word per
// primary output). The slice aliases internal state; do not modify it.
func (e *Evaluator) ReferenceWords(b int) []uint64 { return e.refOut[b] }

// Spec returns the output interpretation.
func (e *Evaluator) Spec() OutputSpec { return e.spec }

// compareScratch bundles the per-Compare working state recycled through
// Evaluator.simPool: a simulator whose node-word buffer is rebound to each
// candidate circuit, the output word buffer, and the metric accumulator.
type compareScratch struct {
	sim *logic.Simulator
	out []uint64
	acc reportAccum
}

// Compare evaluates the approximate circuit. It must have the same input and
// output counts as the reference.
func (e *Evaluator) Compare(approx *logic.Circuit) (Report, error) {
	if len(approx.Inputs) != len(e.ref.Inputs) || len(approx.Outputs) != len(e.ref.Outputs) {
		return Report{}, fmt.Errorf("qor: approximate circuit I/O %d/%d, reference %d/%d",
			len(approx.Inputs), len(approx.Outputs), len(e.ref.Inputs), len(e.ref.Outputs))
	}
	sc, _ := e.simPool.Get().(*compareScratch)
	if sc == nil {
		sc = &compareScratch{sim: logic.NewSimulator(approx)}
	} else {
		sc.sim.Reset(approx)
	}
	if cap(sc.out) < len(approx.Outputs) {
		sc.out = make([]uint64, len(approx.Outputs))
	}
	out := sc.out[:len(approx.Outputs)]
	sc.acc.reset(&e.spec)

	for b := 0; b < e.nBatches; b++ {
		sc.sim.Run(e.inWords[b], out)
		mask := ^uint64(0)
		if b == e.nBatches-1 {
			mask = e.lastMask
		}
		sc.acc.addBatchRef(out, e.refOut[b], mask, e.refLanes, b)
	}
	rep := sc.acc.report(e.samples, e.exhaustive)
	e.simPool.Put(sc)
	return rep, nil
}

// batchStats is one 64-sample batch's contribution to a report: per-group
// error sums plus bit/sample mismatch counts and worst-case trackers.
//
// Accumulation is deliberately hierarchical — per-batch partials folded into
// running totals — so that a cached partial for an unchanged batch folds to
// exactly the same floating-point result as recomputing the batch. The
// incremental comparer relies on this to skip the decode loop for batches
// whose outputs match the committed circuit.
type batchStats struct {
	sumRel     []float64
	sumAbs     []float64
	sumSq      []float64
	hamming    int64
	errSamples int64
	worstRel   float64
	worstAbs   float64
	// diff is scratch for the masked per-output diff words, computed once in
	// the hamming pre-pass and reused by the per-group scan.
	diff []uint64
}

// reset zeroes the partial for nGroups output groups.
func (p *batchStats) reset(nGroups int) {
	if cap(p.sumRel) < nGroups {
		p.sumRel = make([]float64, nGroups)
		p.sumAbs = make([]float64, nGroups)
		p.sumSq = make([]float64, nGroups)
	}
	p.sumRel = p.sumRel[:nGroups]
	p.sumAbs = p.sumAbs[:nGroups]
	p.sumSq = p.sumSq[:nGroups]
	for i := 0; i < nGroups; i++ {
		p.sumRel[i], p.sumAbs[i], p.sumSq[i] = 0, 0, 0
	}
	p.hamming, p.errSamples = 0, 0
	p.worstRel, p.worstAbs = 0, 0
}

// packedLen is the length of a batch partial over nGroups output groups in
// packed form (batchStats.pack).
func packedLen(nGroups int) int { return 3*nGroups + 4 }

// pack appends p to dst in packed form: sumRel, sumAbs and sumSq per group,
// then hamming, errSamples, worstRel and worstAbs. The two counts are
// integers far below 2^53, so their float64 form is exact.
func (p *batchStats) pack(dst []float64) []float64 {
	dst = append(dst, p.sumRel...)
	dst = append(dst, p.sumAbs...)
	dst = append(dst, p.sumSq...)
	return append(dst, float64(p.hamming), float64(p.errSamples), p.worstRel, p.worstAbs)
}

// computeBatchStats fills p with the batch's statistics: the reference
// decode, which scores every lane where out differs from the reference.
// mask selects the valid sample lanes (all ones except possibly the final
// batch). rc must be the reference-decode cache, with floats, built over the
// same refOut stream, with batch the batch index: the reference side of
// every mismatching lane is read from it, and only the candidate side is
// reconstructed.
func computeBatchStats(spec *OutputSpec, out, refOut []uint64, mask uint64, p *batchStats, rc *refLanes, batch int) {
	p.reset(len(spec.Groups))
	if cap(p.diff) < len(out) {
		p.diff = make([]uint64, len(out)+len(out)/2+8)
	}
	diff := p.diff[:len(out)]
	var anyDiff uint64
	var hamming int
	for o := range out {
		d := (out[o] ^ refOut[o]) & mask
		diff[o] = d
		hamming += bits.OnesCount64(d)
		anyDiff |= d
	}
	p.hamming += int64(hamming)
	p.errSamples += int64(bits.OnesCount64(anyDiff))
	if anyDiff == 0 {
		return // bit-exact batch: no numeric error either
	}
	worstRel, worstAbs := p.worstRel, p.worstAbs
	vals, dec, dens := rc.vals[batch], rc.dec[batch], rc.den[batch]
	// flips[lane] collects the group bits that differ in that sample lane.
	// Every lane loop below consumes and zeroes its entry, so the array is
	// all zeros again at the start of each group.
	var flips [64]uint64
	for gi := range spec.Groups {
		g := &spec.Groups[gi]
		// Scatter each differing bit position's diff word into the per-lane
		// masks: the work is the group's dirty bit-samples, not dirty lanes
		// times differing positions.
		var groupDiff uint64
		for j, bit := range g.Bits {
			d := diff[bit]
			groupDiff |= d
			for ; d != 0; d &= d - 1 {
				flips[bits.TrailingZeros64(d)] |= 1 << uint(j)
			}
		}
		// Local accumulators: each group index is visited exactly once after
		// reset, so storing the locally-summed values keeps the float add
		// order (and hence the bits) identical to accumulating in place.
		var sumAbs, sumSq, sumRel float64
		for lanes := groupDiff; lanes != 0; lanes &= lanes - 1 {
			lane := bits.TrailingZeros64(lanes)
			idx := gi*64 + lane
			// The candidate's group value is the reference with only the
			// differing bits flipped.
			abs, rel := laneError(g, vals[idx]^flips[lane], dec[idx], dens[idx])
			flips[lane] = 0
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
}

// reportAccum accumulates per-batch statistics into a Report. Both evaluator
// kinds and the incremental comparer share it, so every evaluation path
// folds per-batch partials with identical code and identical floating-point
// association — with every lane scored by laneError, the foundation of the
// bit-identical guarantee between the full-rebuild and incremental paths.
type reportAccum struct {
	spec    *OutputSpec
	totals  batchStats
	scratch batchStats
}

// reset prepares the accumulator for a fresh comparison.
func (a *reportAccum) reset(spec *OutputSpec) {
	a.spec = spec
	a.totals.reset(len(spec.Groups))
}

// fold adds one batch's partial into the running totals.
func (a *reportAccum) fold(p *batchStats) {
	t := &a.totals
	for gi := range t.sumRel {
		t.sumRel[gi] += p.sumRel[gi]
		t.sumAbs[gi] += p.sumAbs[gi]
		t.sumSq[gi] += p.sumSq[gi]
	}
	t.hamming += p.hamming
	t.errSamples += p.errSamples
	if p.worstRel > t.worstRel {
		t.worstRel = p.worstRel
	}
	if p.worstAbs > t.worstAbs {
		t.worstAbs = p.worstAbs
	}
}

// foldPacked is fold for a partial in packed form (batchStats.pack): the
// same additions and maxima in the same order, so the totals keep their bits.
func (a *reportAccum) foldPacked(q []float64) {
	t := &a.totals
	n := len(t.sumRel)
	for gi := range t.sumRel {
		t.sumRel[gi] += q[gi]
		t.sumAbs[gi] += q[n+gi]
		t.sumSq[gi] += q[2*n+gi]
	}
	q = q[3*n:]
	t.hamming += int64(q[0])
	t.errSamples += int64(q[1])
	if q[2] > t.worstRel {
		t.worstRel = q[2]
	}
	if q[3] > t.worstAbs {
		t.worstAbs = q[3]
	}
}

// addBatchRef computes one batch's statistics, reading the reference side
// from the decode cache rc at batch b, and folds them in.
func (a *reportAccum) addBatchRef(out, refOut []uint64, mask uint64, rc *refLanes, b int) {
	computeBatchStats(a.spec, out, refOut, mask, &a.scratch, rc, b)
	a.fold(&a.scratch)
}

// report finalizes the accumulated statistics into a Report over the given
// sample count.
func (a *reportAccum) report(samples int, exact bool) Report {
	t := &a.totals
	rep := Report{Samples: samples, Exact: exact, WorstRel: t.worstRel, WorstAbs: t.worstAbs}
	n := float64(samples)
	nGroups := len(a.spec.Groups)
	for gi := range a.spec.Groups {
		g := &a.spec.Groups[gi]
		rep.AvgRel += t.sumRel[gi] / n
		rep.AvgAbs += t.sumAbs[gi] / n
		rep.NormAvgAbs += t.sumAbs[gi] / n / g.MaxValue()
		rep.MeanSquared += t.sumSq[gi] / n
	}
	if nGroups > 0 {
		rep.AvgRel /= float64(nGroups)
		rep.AvgAbs /= float64(nGroups)
		rep.NormAvgAbs /= float64(nGroups)
		rep.MeanSquared /= float64(nGroups)
	}
	rep.MeanHam = float64(t.hamming) / n
	rep.ErrRate = float64(t.errSamples) / n
	return rep
}

// refDecode decodes a reference group integer into its numeric value and
// its relative-error denominator max(|value|, 1).
func refDecode(g *Group, v uint64) (ref, den float64) {
	ref = groupFloat(g, v)
	// ref is a finite integer, never NaN or -0, so this is math.Max's
	// result without its special cases, cheap enough to inline.
	if den = math.Abs(ref); den < 1 {
		den = 1
	}
	return ref, den
}

// laneError scores one sample lane: the absolute and relative error of the
// group value v against the reference value ref, whose denominator is den
// (refDecode). Both decodes score lanes through it, so a lane's errors have
// the same bits whichever decode computed them — the committed-lane cache
// relies on that to reuse them.
func laneError(g *Group, v uint64, ref, den float64) (abs, rel float64) {
	abs = math.Abs(groupFloat(g, v) - ref)
	return abs, abs / den
}

// decodeInt gathers the group's raw integer value for one sample lane.
func decodeInt(out []uint64, g *Group, lane uint) uint64 {
	var v uint64
	for j, bit := range g.Bits {
		v |= ((out[bit] >> lane) & 1) << uint(j)
	}
	return v
}

// groupFloat converts a raw group integer to its numeric value, applying
// two's-complement interpretation for signed groups.
func groupFloat(g *Group, v uint64) float64 {
	if g.Signed {
		n := uint(len(g.Bits))
		if v&(1<<(n-1)) != 0 {
			return float64(int64(v) - int64(1)<<n)
		}
	}
	return float64(v)
}
