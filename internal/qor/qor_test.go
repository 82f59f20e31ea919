package qor

import (
	"math"
	"testing"

	"github.com/blasys-go/blasys/internal/logic"
)

func rippleAdder(n int) *logic.Circuit {
	b := logic.NewBuilder("adder")
	as := b.Inputs("a", n)
	bs := b.Inputs("b", n)
	carry := b.Const(false)
	var sums []logic.NodeID
	for i := 0; i < n; i++ {
		axb := b.Xor(as[i], bs[i])
		sums = append(sums, b.Xor(axb, carry))
		carry = b.Or(b.And(as[i], bs[i]), b.And(axb, carry))
	}
	sums = append(sums, carry)
	b.Outputs("s", sums)
	return b.C
}

// truncatedAdder drops the lowest `drop` output bits to constant zero — a
// classic approximate adder with exactly computable error statistics.
func truncatedAdder(n, drop int) *logic.Circuit {
	c := rippleAdder(n).Clone()
	for i := 0; i < drop; i++ {
		c.Outputs[i] = c.ConstNode(false)
	}
	return c
}

func TestIdenticalCircuitZeroError(t *testing.T) {
	c := rippleAdder(6)
	e, err := NewEvaluator(c, Unsigned("sum", len(c.Outputs)), 1<<12, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Compare(c.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exact {
		t.Error("12-input circuit should be evaluated exhaustively")
	}
	if rep.AvgRel != 0 || rep.AvgAbs != 0 || rep.MeanHam != 0 || rep.ErrRate != 0 {
		t.Errorf("identical circuit has nonzero error: %+v", rep)
	}
}

func TestTruncatedAdderExactStatistics(t *testing.T) {
	// 4-bit adder (8 inputs, exhaustive domain of 256 samples) with the
	// low output bit forced to zero. The absolute error is 1 whenever the
	// true sum is odd: exactly half of all input pairs.
	c := truncatedAdder(4, 1)
	ref := rippleAdder(4)
	e, err := NewEvaluator(ref, Unsigned("sum", 5), 1<<16, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Compare(c)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exact {
		t.Fatal("expected exhaustive evaluation")
	}
	if got, want := rep.AvgAbs, 0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("AvgAbs = %v, want %v", got, want)
	}
	if got, want := rep.ErrRate, 0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("ErrRate = %v, want %v", got, want)
	}
	if got, want := rep.MeanHam, 0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("MeanHam = %v, want %v", got, want)
	}
	if rep.WorstAbs != 1 {
		t.Errorf("WorstAbs = %v, want 1", rep.WorstAbs)
	}
	// Average relative error: mean over odd sums s of 1/max(s,1) — every
	// odd sum s >= 1 so it is mean of 1/s over odd sums, computable:
	var want float64
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			s := a + b
			if s%2 == 1 {
				want += 1 / float64(s)
			}
		}
	}
	want /= 256
	if math.Abs(rep.AvgRel-want) > 1e-12 {
		t.Errorf("AvgRel = %v, want %v", rep.AvgRel, want)
	}
}

func TestMonteCarloApproximatesExhaustive(t *testing.T) {
	// For a 16-input circuit, Monte-Carlo with many samples must be close
	// to the exhaustive result.
	ref := rippleAdder(8)
	app := truncatedAdder(8, 2)
	exact, err := NewEvaluator(ref, Unsigned("sum", 9), 1<<16, 1)
	if err != nil {
		t.Fatal(err)
	}
	exRep, err := exact.Compare(app)
	if err != nil {
		t.Fatal(err)
	}
	if !exRep.Exact {
		t.Fatal("expected exhaustive")
	}
	// Force sampling by exceeding the sample budget below 2^16.
	mc, err := NewEvaluator(ref, Unsigned("sum", 9), 1<<14, 7)
	if err != nil {
		t.Fatal(err)
	}
	mcRep, err := mc.Compare(app)
	if err != nil {
		t.Fatal(err)
	}
	if mcRep.Exact {
		t.Fatal("expected Monte-Carlo")
	}
	if math.Abs(mcRep.AvgAbs-exRep.AvgAbs) > 0.1*math.Max(exRep.AvgAbs, 1e-9) {
		t.Errorf("MC AvgAbs %v too far from exact %v", mcRep.AvgAbs, exRep.AvgAbs)
	}
	if math.Abs(mcRep.ErrRate-exRep.ErrRate) > 0.05 {
		t.Errorf("MC ErrRate %v too far from exact %v", mcRep.ErrRate, exRep.ErrRate)
	}
}

func TestSignedGroupDecoding(t *testing.T) {
	// Circuit computing -a over 3 bits (two's complement negation).
	b := logic.NewBuilder("neg")
	a := b.Inputs("a", 3)
	// -a = ~a + 1
	n0 := b.Not(a[0])
	n1 := b.Not(a[1])
	n2 := b.Not(a[2])
	s0 := b.Xor(n0, b.Const(true))
	c0 := b.And(n0, b.Const(true))
	s1 := b.Xor(n1, c0)
	c1 := b.And(n1, c0)
	s2 := b.Xor(n2, c1)
	b.Outputs("y", []logic.NodeID{s0, s1, s2})
	ref := b.C

	spec := OutputSpec{Groups: []Group{{Name: "y", Bits: []int{0, 1, 2}, Signed: true}}}
	e, err := NewEvaluator(ref, spec, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Approximation: output constant 0. Errors should reflect signed
	// values: for a=1..3, -a = -1..-3; for a=4..7, -a wraps to +4..+1.
	appB := logic.NewBuilder("zero")
	appB.Inputs("a", 3)
	appB.Outputs("y", []logic.NodeID{0, 0, 0})
	rep, err := e.Compare(appB.C)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive over 8 inputs: values -a mod 8 interpreted signed:
	// a: 0->0, 1->-1, 2->-2, 3->-3, 4->-4, 5->3, 6->2, 7->1.
	vals := []float64{0, -1, -2, -3, -4, 3, 2, 1}
	var wantAbs float64
	for _, v := range vals {
		wantAbs += math.Abs(v)
	}
	wantAbs /= 8
	if math.Abs(rep.AvgAbs-wantAbs) > 1e-12 {
		t.Errorf("signed AvgAbs = %v, want %v", rep.AvgAbs, wantAbs)
	}
}

func TestMultiGroupSpec(t *testing.T) {
	// Two 2-bit identity groups; corrupt only group 1 and verify the
	// metrics average over groups.
	b := logic.NewBuilder("id")
	in := b.Inputs("x", 4)
	b.Outputs("y", in)
	ref := b.C

	app := logic.NewBuilder("app")
	ain := app.Inputs("x", 4)
	app.Outputs("y", []logic.NodeID{ain[0], ain[1], ain[2], app.Const(false)})

	spec := OutputSpec{Groups: []Group{
		{Name: "g0", Bits: []int{0, 1}},
		{Name: "g1", Bits: []int{2, 3}},
	}}
	e, err := NewEvaluator(ref, spec, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Compare(app.C)
	if err != nil {
		t.Fatal(err)
	}
	// Group g1 loses bit 3 (weight 2): error 2 for half the assignments,
	// group g0 is exact. Average abs = (0 + 1) / 2.
	if math.Abs(rep.AvgAbs-0.5) > 1e-12 {
		t.Errorf("multi-group AvgAbs = %v, want 0.5", rep.AvgAbs)
	}
}

func TestEvaluatorErrors(t *testing.T) {
	ref := rippleAdder(4)
	if _, err := NewEvaluator(ref, OutputSpec{Groups: []Group{{Name: "bad", Bits: []int{99}}}}, 64, 1); err == nil {
		t.Error("accepted out-of-range output bit")
	}
	// The bound holds even where exhaustive enumeration would cap the count.
	if _, err := NewEvaluator(ref, Unsigned("s", 5), MaxSamples+1, 1); err == nil {
		t.Error("accepted more than MaxSamples samples")
	}
	c, seq := counterCircuit(4)
	if _, err := NewSequentialEvaluator(c, Unsigned("s", 4), seq, MaxSamples+1, 1); err == nil {
		t.Error("sequential evaluator accepted more than MaxSamples samples")
	}
	e, err := NewEvaluator(ref, Unsigned("s", 5), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	other := rippleAdder(5)
	if _, err := e.Compare(other); err == nil {
		t.Error("accepted circuit with mismatched I/O")
	}
}

func TestDeterminism(t *testing.T) {
	ref := rippleAdder(10) // 20 inputs: still exhaustive at 2^20? samples=4096 < 2^20, so Monte-Carlo
	app := truncatedAdder(10, 3)
	e1, err := NewEvaluator(ref, Unsigned("s", 11), 4096, 42)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEvaluator(ref, Unsigned("s", 11), 4096, 42)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e1.Compare(app)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.Compare(app)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("same seed produced different reports:\n%+v\n%+v", r1, r2)
	}
	e3, err := NewEvaluator(ref, Unsigned("s", 11), 4096, 43)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := e3.Compare(app)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r3 {
		t.Error("different seeds produced identical Monte-Carlo reports (suspicious)")
	}
}

func TestMetricValueAccessors(t *testing.T) {
	rep := Report{AvgRel: 1, AvgAbs: 2, NormAvgAbs: 3, MeanHam: 4, ErrRate: 5, WorstRel: 6, MeanSquared: 7}
	cases := map[Metric]float64{
		AvgRelative: 1, AvgAbsolute: 2, NormAvgAbsolute: 3,
		MeanHamming: 4, ErrorRate: 5, WorstRelative: 6, MSE: 7,
	}
	for m, want := range cases {
		if got := rep.Value(m); got != want {
			t.Errorf("Value(%v) = %v, want %v", m, got, want)
		}
		if m.String() == "" {
			t.Errorf("metric %d has empty name", int(m))
		}
	}
}

// TestParseMetric checks that every metric's short name parses back to it,
// that "" is the default, and that an unknown name or value is rejected.
func TestParseMetric(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Metric
	}{
		{"", AvgRelative}, {"rel", AvgRelative}, {"abs", AvgAbsolute}, {"normabs", NormAvgAbsolute},
		{"hamming", MeanHamming}, {"rate", ErrorRate}, {"worst", WorstRelative}, {"mse", MSE},
	} {
		if got, err := ParseMetric(tc.name); err != nil || got != tc.want {
			t.Errorf("ParseMetric(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	if _, err := ParseMetric("avg-relative-error"); err == nil {
		t.Error("ParseMetric accepted a display name")
	}
	if Metric(-1).Valid() || Metric(7).Valid() || !MSE.Valid() {
		t.Error("Valid disagrees with the metric constants")
	}
}

func TestConcurrentCompares(t *testing.T) {
	ref := rippleAdder(8)
	e, err := NewEvaluator(ref, Unsigned("s", 9), 1<<12, 9)
	if err != nil {
		t.Fatal(err)
	}
	apps := make([]*logic.Circuit, 8)
	for i := range apps {
		apps[i] = truncatedAdder(8, i%4)
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
