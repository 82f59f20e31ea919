package qor

import (
	"fmt"
	"math/rand"

	"github.com/blasys-go/blasys/internal/logic"
)

// MaxSequenceSteps bounds Sequence.Steps. The evaluator stores input and
// reference words plus a reference decode for every (chain, step) batch, so
// the step count sets its memory whatever the sample count.
const MaxSequenceSteps = 4096

// Sequence describes accumulator-style feedback evaluation: the circuit is
// stepped for a number of cycles with selected outputs fed back into
// selected inputs (e.g. a MAC's 33-bit sum truncated into its 32-bit
// accumulator input). Reference and approximate circuits each carry their
// own feedback state, so approximation error compounds across cycles — the
// multi-cycle error model the BLASYS paper adopts from ASLAN for the MAC
// and SAD benchmarks.
type Sequence struct {
	// Steps is the number of cycles per accumulation chain.
	Steps int `json:"steps"`
	// Feedback maps output index -> input index, applied between steps.
	Feedback [][2]int `json:"feedback"`
}

// Validate checks the sequence against a circuit's interface.
func (s *Sequence) Validate(c *logic.Circuit) error {
	if s.Steps < 2 {
		return fmt.Errorf("qor: sequence needs at least 2 steps, got %d", s.Steps)
	}
	if s.Steps > MaxSequenceSteps {
		return fmt.Errorf("qor: sequence steps %d exceed the maximum %d", s.Steps, MaxSequenceSteps)
	}
	seenIn := make(map[int]bool)
	for _, fb := range s.Feedback {
		o, in := fb[0], fb[1]
		if o < 0 || o >= len(c.Outputs) {
			return fmt.Errorf("qor: feedback output %d out of range", o)
		}
		if in < 0 || in >= len(c.Inputs) {
			return fmt.Errorf("qor: feedback input %d out of range", in)
		}
		if seenIn[in] {
			return fmt.Errorf("qor: feedback input %d driven twice", in)
		}
		seenIn[in] = true
	}
	return nil
}

// SequentialEvaluator compares approximate circuits against a reference
// under feedback accumulation. 64 independent chains run per batch (one per
// bit lane); fresh inputs are random each cycle and shared between reference
// and approximate runs. A SequentialEvaluator is safe for concurrent Compare
// calls.
type SequentialEvaluator struct {
	ref    *logic.Circuit
	spec   OutputSpec
	seq    Sequence
	chains int // number of 64-lane chain batches

	// fresh[b][t][i] is the fresh-input word for batch b, step t, input i
	// (feedback inputs hold zero and are overwritten during simulation).
	fresh [][][]uint64
	// refOut[b*Steps+t][o] is the reference output trajectory, and refLanes
	// its per-lane decode under the same batch index.
	refOut   [][]uint64
	refLanes *refLanes
	// isFeedback marks inputs that are driven by feedback.
	isFeedback []bool
}

// NewSequentialEvaluator prepares the evaluator. samples is the total number
// of evaluated (chain, step) points: chains = ceil(samples / (64*steps)).
// Sample counts above MaxSamples are rejected.
func NewSequentialEvaluator(ref *logic.Circuit, spec OutputSpec, seq Sequence, samples int, seed int64) (*SequentialEvaluator, error) {
	if err := seq.Validate(ref); err != nil {
		return nil, err
	}
	if samples > MaxSamples {
		return nil, fmt.Errorf("qor: %d samples exceed the maximum %d", samples, MaxSamples)
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
	chains := (samples + 64*seq.Steps - 1) / (64 * seq.Steps)
	if chains < 1 {
		chains = 1
	}
	e := &SequentialEvaluator{ref: ref, spec: spec, seq: seq, chains: chains}
	e.isFeedback = make([]bool, len(ref.Inputs))
	for _, fb := range seq.Feedback {
		e.isFeedback[fb[1]] = true
	}

	rng := rand.New(rand.NewSource(seed))
	sim := logic.NewSimulator(ref)
	e.fresh = make([][][]uint64, chains)
	e.refOut = make([][]uint64, chains*seq.Steps)
	state := make([]uint64, len(ref.Inputs))
	out := make([]uint64, len(ref.Outputs))
	for b := 0; b < chains; b++ {
		e.fresh[b] = make([][]uint64, seq.Steps)
		for i := range state {
			state[i] = 0
		}
		for t := 0; t < seq.Steps; t++ {
			in := make([]uint64, len(ref.Inputs))
			for i := range in {
				if !e.isFeedback[i] {
					in[i] = rng.Uint64()
				}
			}
			e.fresh[b][t] = in
			// Assemble actual inputs: fresh + feedback state.
			run := make([]uint64, len(in))
			copy(run, in)
			for i, fb := range e.isFeedback {
				if fb {
					run[i] = state[i]
				}
			}
			sim.Run(run, out)
			e.refOut[b*seq.Steps+t] = append([]uint64(nil), out...)
			for _, fbp := range e.seq.Feedback {
				state[fbp[1]] = out[fbp[0]]
			}
		}
	}
	e.refLanes = buildRefLanes(&e.spec, e.refOut)
	e.refLanes.addFloats(&e.spec)
	return e, nil
}

// Samples returns the number of evaluated (chain, step) points.
func (e *SequentialEvaluator) Samples() int { return e.chains * 64 * e.seq.Steps }

// Compare runs the approximate circuit through the same chains (its own
// feedback state) and reports the accumulated error statistics.
func (e *SequentialEvaluator) Compare(approx *logic.Circuit) (Report, error) {
	if len(approx.Inputs) != len(e.ref.Inputs) || len(approx.Outputs) != len(e.ref.Outputs) {
		return Report{}, fmt.Errorf("qor: approximate circuit I/O %d/%d, reference %d/%d",
			len(approx.Inputs), len(approx.Outputs), len(e.ref.Inputs), len(e.ref.Outputs))
	}
	sim := logic.NewSimulator(approx)
	out := make([]uint64, len(approx.Outputs))
	state := make([]uint64, len(approx.Inputs))
	run := make([]uint64, len(approx.Inputs))

	var acc reportAccum
	acc.reset(&e.spec)

	for b := 0; b < e.chains; b++ {
		for i := range state {
			state[i] = 0
		}
		for t := 0; t < e.seq.Steps; t++ {
			copy(run, e.fresh[b][t])
			for i, fb := range e.isFeedback {
				if fb {
					run[i] = state[i]
				}
			}
			sim.Run(run, out)
			for _, fbp := range e.seq.Feedback {
				state[fbp[1]] = out[fbp[0]]
			}
			i := b*e.seq.Steps + t
			acc.addBatchRef(out, e.refOut[i], ^uint64(0), e.refLanes, i)
		}
	}
	return acc.report(e.Samples(), false), nil
}

// Comparer abstracts the two evaluator kinds so the exploration loop and the
// baseline can use either.
type Comparer interface {
	Compare(approx *logic.Circuit) (Report, error)
	Samples() int
}

var (
	_ Comparer = (*Evaluator)(nil)
	_ Comparer = (*SequentialEvaluator)(nil)
)

// NewComparer builds the right evaluator: sequential when seq is non-nil.
func NewComparer(ref *logic.Circuit, spec OutputSpec, seq *Sequence, samples int, seed int64) (Comparer, error) {
	if seq != nil {
		return NewSequentialEvaluator(ref, spec, *seq, samples, seed)
	}
	return NewEvaluator(ref, spec, samples, seed)
}
