package qor

import (
	"testing"

	"github.com/blasys-go/blasys/internal/logic"
)

// counterCircuit builds an n-bit incrementer: out = acc + in0 where in0 is a
// 1-bit fresh input; outputs feed back to acc for sequential tests.
func counterCircuit(n int) (*logic.Circuit, Sequence) {
	b := logic.NewBuilder("counter")
	inc := b.Input("inc")
	acc := b.Inputs("acc", n)
	carry := inc
	var sums []logic.NodeID
	for i := 0; i < n; i++ {
		sums = append(sums, b.Xor(acc[i], carry))
		carry = b.And(acc[i], carry)
	}
	b.Outputs("s", sums)
	fb := make([][2]int, n)
	for i := 0; i < n; i++ {
		fb[i] = [2]int{i, 1 + i} // output i -> acc input (after inc)
	}
	return b.C, Sequence{Steps: 16, Feedback: fb}
}

func TestSequenceValidate(t *testing.T) {
	c, seq := counterCircuit(4)
	if err := seq.Validate(c); err != nil {
		t.Fatal(err)
	}
	bad := seq
	bad.Steps = 1
	if err := bad.Validate(c); err == nil {
		t.Error("accepted Steps=1")
	}
	bad.Steps = MaxSequenceSteps + 1
	if err := bad.Validate(c); err == nil {
		t.Errorf("accepted Steps=%d", bad.Steps)
	}
	bad.Steps = MaxSequenceSteps
	if err := bad.Validate(c); err != nil {
		t.Errorf("rejected Steps=MaxSequenceSteps: %v", err)
	}
	bad = Sequence{Steps: 8, Feedback: [][2]int{{99, 0}}}
	if err := bad.Validate(c); err == nil {
		t.Error("accepted out-of-range output")
	}
	bad = Sequence{Steps: 8, Feedback: [][2]int{{0, 1}, {1, 1}}}
	if err := bad.Validate(c); err == nil {
		t.Error("accepted doubly-driven input")
	}
}

func TestSequentialIdenticalCircuitZeroError(t *testing.T) {
	c, seq := counterCircuit(6)
	e, err := NewSequentialEvaluator(c, Unsigned("s", 6), seq, 1<<12, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Compare(c.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if rep.AvgRel != 0 || rep.MeanHam != 0 || rep.ErrRate != 0 {
		t.Errorf("identical circuit has error: %+v", rep)
	}
}

func TestSequentialErrorAccumulates(t *testing.T) {
	// Approximate counter: drop the LSB (constant 0). In combinational
	// evaluation the error is at most 1; under accumulation the counter
	// loses every increment (carry never propagates), so the error grows
	// with the step count and the relative error is large.
	c, seq := counterCircuit(8)
	approx := c.Clone()
	approx.Outputs[0] = approx.ConstNode(false)

	e, err := NewSequentialEvaluator(c, Unsigned("s", 8), seq, 1<<12, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Compare(approx)
	if err != nil {
		t.Fatal(err)
	}
	// The accurate counter counts the 1-bits of inc over steps; the broken
	// one stays near zero. Relative error should be substantial.
	if rep.AvgRel < 0.2 {
		t.Errorf("accumulated relative error %v suspiciously small", rep.AvgRel)
	}

	// The same approximation under combinational evaluation is tiny.
	comb, err := NewEvaluator(c, Unsigned("s", 8), 1<<12, 1)
	if err != nil {
		t.Fatal(err)
	}
	combRep, err := comb.Compare(approx)
	if err != nil {
		t.Fatal(err)
	}
	if combRep.AvgAbs > 1 {
		t.Errorf("combinational AvgAbs %v should be <= 1", combRep.AvgAbs)
	}
	if rep.AvgAbs <= combRep.AvgAbs {
		t.Errorf("sequential error %v should exceed combinational %v", rep.AvgAbs, combRep.AvgAbs)
	}
}

func TestSequentialDeterminism(t *testing.T) {
	c, seq := counterCircuit(6)
	approx := c.Clone()
	approx.Outputs[1] = approx.ConstNode(false)
	mk := func(seed int64) Report {
		e, err := NewSequentialEvaluator(c, Unsigned("s", 6), seq, 1<<10, seed)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Compare(approx)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if mk(5) != mk(5) {
		t.Error("same seed, different reports")
	}
	if mk(5) == mk(6) {
		t.Error("different seeds, identical reports (suspicious)")
	}
}

func TestSequentialSamplesAccounting(t *testing.T) {
	c, seq := counterCircuit(4)
	e, err := NewSequentialEvaluator(c, Unsigned("s", 4), seq, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 3000 points at 64 lanes x 16 steps = 1024/chain -> 3 chains -> 3072.
	if got := e.Samples(); got != 3072 {
		t.Errorf("Samples = %d, want 3072", got)
	}
}

func TestNewComparerDispatch(t *testing.T) {
	c, seq := counterCircuit(4)
	e1, err := NewComparer(c, Unsigned("s", 4), nil, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e1.(*Evaluator); !ok {
		t.Errorf("nil sequence: got %T", e1)
	}
	e2, err := NewComparer(c, Unsigned("s", 4), &seq, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e2.(*SequentialEvaluator); !ok {
		t.Errorf("sequence: got %T", e2)
	}
}

// TestSequentialConcurrentCompares runs Compare from several goroutines at
// once, all reading the evaluator's shared reference trajectory and decode
// cache; run under -race it also checks that Compare writes no shared state.
func TestSequentialConcurrentCompares(t *testing.T) {
	c, seq := counterCircuit(8)
	e, err := NewSequentialEvaluator(c, Unsigned("s", 8), seq, 1<<12, 9)
	if err != nil {
		t.Fatal(err)
	}
	apps := make([]*logic.Circuit, 8)
	for i := range apps {
		apps[i] = c.Clone()
		apps[i].Outputs[i%4] = apps[i].ConstNode(i%2 == 0)
	}
	reports := make([]Report, len(apps))
	done := make(chan int, len(apps))
	for i := range apps {
		go func(i int) {
			rep, err := e.Compare(apps[i])
			if err == nil {
				reports[i] = rep
			}
			done <- i
		}(i)
	}
	for range apps {
		<-done
	}
	for i := range apps {
		single, err := e.Compare(apps[i])
		if err != nil {
			t.Fatal(err)
		}
		if reports[i] != single {
			t.Errorf("concurrent result %d differs from sequential", i)
		}
	}
}
