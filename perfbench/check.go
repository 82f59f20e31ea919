package main

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/logic"
)

// This file is the benchmark's independent result check. It interprets a
// logic.Circuit one sample at a time with its own gate semantics and
// computes the paper's Eq. 1 average relative error with its own numeric
// decoding, so it shares no code with the program's bit-parallel simulator
// (logic.Simulator) or its QoR package.

// scalarCircuit evaluates a netlist on one input assignment at a time.
type scalarCircuit struct {
	nodes   []logic.Node
	inputs  []logic.NodeID
	outputs []logic.NodeID
	val     []bool
}

func newScalarCircuit(c *logic.Circuit) (*scalarCircuit, error) {
	for i := range c.Nodes {
		n := &c.Nodes[i]
		if n.Op > logic.Mux {
			return nil, fmt.Errorf("check: node %d has unknown op %d", i, n.Op)
		}
		for _, f := range n.Fanins() {
			if f < 0 || int(f) >= i {
				return nil, fmt.Errorf("check: node %d reads node %d, which does not precede it", i, f)
			}
		}
	}
	return &scalarCircuit{
		nodes:   c.Nodes,
		inputs:  c.Inputs,
		outputs: c.Outputs,
		val:     make([]bool, len(c.Nodes)),
	}, nil
}

// eval computes out (one value per primary output) from in (one value per
// primary input).
func (s *scalarCircuit) eval(in, out []bool) {
	v := s.val
	for i, id := range s.inputs {
		v[id] = in[i]
	}
	for i := range s.nodes {
		n := &s.nodes[i]
		a, b, c := n.Fanin[0], n.Fanin[1], n.Fanin[2]
		switch n.Op {
		case logic.Const0:
			v[i] = false
		case logic.Const1:
			v[i] = true
		case logic.Input:
			// assigned above
		case logic.Buf:
			v[i] = v[a]
		case logic.Not:
			v[i] = !v[a]
		case logic.And:
			v[i] = v[a] && v[b]
		case logic.Or:
			v[i] = v[a] || v[b]
		case logic.Xor:
			v[i] = v[a] != v[b]
		case logic.Nand:
			v[i] = !(v[a] && v[b])
		case logic.Nor:
			v[i] = !(v[a] || v[b])
		case logic.Xnor:
			v[i] = v[a] == v[b]
		case logic.Mux: // Mux(s, a, b) selects b when s is set
			if v[a] {
				v[i] = v[c]
			} else {
				v[i] = v[b]
			}
		}
	}
	for i, id := range s.outputs {
		out[i] = v[id]
	}
}

// outGroup is one numeric output bus: output indices LSB first.
type outGroup struct {
	bits   []int
	signed bool
}

// value decodes the group from an output assignment.
func (g outGroup) value(out []bool) float64 {
	var u uint64
	for j, bit := range g.bits {
		if out[bit] {
			u |= 1 << uint(j)
		}
	}
	n := len(g.bits)
	if g.signed && u>>(uint(n)-1)&1 == 1 {
		return float64(int64(u) - int64(1)<<uint(n))
	}
	return float64(u)
}

// relError is Eq. 1 for one sample: |R - R'| / max(|R|, 1), averaged over
// the output groups.
func relError(groups []outGroup, ref, apx []bool) float64 {
	sum := 0.0
	for _, g := range groups {
		r, a := g.value(ref), g.value(apx)
		sum += math.Abs(r-a) / math.Max(math.Abs(r), 1)
	}
	return sum / float64(len(groups))
}

// errorEstimate is a fresh-sample measurement of a result's error.
type errorEstimate struct {
	mean float64
	// se is the standard error of the job's own estimate, i.e. at the
	// sample count the exploration used; zero when both are exhaustive.
	se         float64
	exhaustive bool
}

// checkSpec is what a result is checked against.
type checkSpec struct {
	ref       *logic.Circuit
	groups    []outGroup
	seq       *sequenceSpec
	samples   int // the job's own sample count
	threshold float64
	seed      int64 // seeds the fresh samples
}

type sequenceSpec struct {
	steps    int
	feedback [][2]int // (output index, input index)
}

func newCheckSpec(b bench.Circuit, samples int, threshold float64, seed int64) checkSpec {
	cs := checkSpec{ref: b.Circ, samples: samples, threshold: threshold, seed: seed}
	for _, g := range b.Spec.Groups {
		cs.groups = append(cs.groups, outGroup{bits: g.Bits, signed: g.Signed})
	}
	if b.Seq != nil {
		cs.seq = &sequenceSpec{steps: b.Seq.Steps, feedback: b.Seq.Feedback}
	}
	return cs
}

// verify reports whether result passes: it must have the accurate
// circuit's inputs and outputs, and its error on fresh samples must lie
// within the threshold plus three standard errors at the job's sample count.
func verify(cs checkSpec, result *logic.Circuit) (errorEstimate, error) {
	ref := cs.ref
	if len(result.Inputs) != len(ref.Inputs) || len(result.Outputs) != len(ref.Outputs) {
		return errorEstimate{}, fmt.Errorf("result has %d inputs / %d outputs, accurate circuit %d / %d",
			len(result.Inputs), len(result.Outputs), len(ref.Inputs), len(ref.Outputs))
	}
	for i := range ref.Inputs {
		if result.InputNames[i] != ref.InputNames[i] {
			return errorEstimate{}, fmt.Errorf("input %d is %q, accurate circuit has %q", i, result.InputNames[i], ref.InputNames[i])
		}
	}
	for i := range ref.Outputs {
		if result.OutputNames[i] != ref.OutputNames[i] {
			return errorEstimate{}, fmt.Errorf("output %d is %q, accurate circuit has %q", i, result.OutputNames[i], ref.OutputNames[i])
		}
	}
	est, err := measureError(cs, result)
	if err != nil {
		return est, err
	}
	limit := cs.threshold + 3*est.se + 1e-9
	if est.mean > limit {
		return est, fmt.Errorf("fresh-sample error %.5f exceeds threshold %.3f + 3 SE (%.5f)", est.mean, cs.threshold, est.se)
	}
	return est, nil
}

// measureError estimates the result's Eq. 1 error against the accurate
// circuit: exhaustively when the job itself was exhaustive (2^inputs within
// its sample count), otherwise on as many fresh random samples as the job
// used. Accumulator circuits run 64-step feedback chains in which each
// circuit carries its own state, and their standard error is taken over
// whole chains, whose steps are correlated.
func measureError(cs checkSpec, result *logic.Circuit) (errorEstimate, error) {
	ref, err := newScalarCircuit(cs.ref)
	if err != nil {
		return errorEstimate{}, fmt.Errorf("accurate circuit: %w", err)
	}
	apx, err := newScalarCircuit(result)
	if err != nil {
		return errorEstimate{}, fmt.Errorf("result: %w", err)
	}
	nIn, nOut := len(cs.ref.Inputs), len(cs.ref.Outputs)
	in := make([]bool, nIn)
	refOut := make([]bool, nOut)
	apxOut := make([]bool, nOut)
	rng := rand.New(rand.NewSource(cs.seed))
	if cs.seq != nil {
		return measureSequence(cs, ref, apx, rng)
	}
	if nIn <= 24 && 1<<uint(nIn) <= cs.samples {
		total := 1 << uint(nIn)
		sum := 0.0
		for x := 0; x < total; x++ {
			for i := range in {
				in[i] = x>>uint(i)&1 == 1
			}
			ref.eval(in, refOut)
			apx.eval(in, apxOut)
			sum += relError(cs.groups, refOut, apxOut)
		}
		return errorEstimate{mean: sum / float64(total), exhaustive: true}, nil
	}
	var sum, sumSq float64
	for s := 0; s < cs.samples; s++ {
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		ref.eval(in, refOut)
		apx.eval(in, apxOut)
		e := relError(cs.groups, refOut, apxOut)
		sum += e
		sumSq += e * e
	}
	n := float64(cs.samples)
	return errorEstimate{mean: sum / n, se: stdErr(sum, sumSq, n)}, nil
}

func measureSequence(cs checkSpec, ref, apx *scalarCircuit, rng *rand.Rand) (errorEstimate, error) {
	nIn, nOut := len(cs.ref.Inputs), len(cs.ref.Outputs)
	steps := cs.seq.steps
	isFeedback := make([]bool, nIn)
	for _, fb := range cs.seq.feedback {
		isFeedback[fb[1]] = true
	}
	// The job ran ceil(samples / (64*steps)) batches of 64 chains.
	chains := 64 * ((cs.samples + 64*steps - 1) / (64 * steps))
	fresh := make([]bool, nIn)
	refIn, apxIn := make([]bool, nIn), make([]bool, nIn)
	refOut, apxOut := make([]bool, nOut), make([]bool, nOut)
	var sum, sumSq float64
	for ch := 0; ch < chains; ch++ {
		for i := range refIn {
			refIn[i], apxIn[i] = false, false
		}
		chain := 0.0
		for t := 0; t < steps; t++ {
			for i := range fresh {
				if !isFeedback[i] {
					fresh[i] = rng.Intn(2) == 1
					refIn[i], apxIn[i] = fresh[i], fresh[i]
				}
			}
			ref.eval(refIn, refOut)
			apx.eval(apxIn, apxOut)
			chain += relError(cs.groups, refOut, apxOut)
			for _, fb := range cs.seq.feedback {
				refIn[fb[1]] = refOut[fb[0]]
				apxIn[fb[1]] = apxOut[fb[0]]
			}
		}
		chain /= float64(steps)
		sum += chain
		sumSq += chain * chain
	}
	n := float64(chains)
	return errorEstimate{mean: sum / n, se: stdErr(sum, sumSq, n)}, nil
}

// stdErr is the standard error of the mean of n values with the given sum
// and sum of squares.
func stdErr(sum, sumSq, n float64) float64 {
	if n < 2 {
		return 0
	}
	mean := sum / n
	v := (sumSq - n*mean*mean) / (n - 1)
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v / n)
}
