package core

import (
	"testing"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/partition"
	"github.com/blasys-go/blasys/internal/qor"
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

func arrayMult(n int) *logic.Circuit {
	b := logic.NewBuilder("mult")
	as := b.Inputs("a", n)
	bs := b.Inputs("b", n)
	// Partial products accumulated with ripple carry-save rows.
	acc := make([]logic.NodeID, 2*n)
	for i := range acc {
		acc[i] = b.Const(false)
	}
	for i := 0; i < n; i++ {
		carry := b.Const(false)
		for j := 0; j < n; j++ {
			pp := b.And(as[j], bs[i])
			s1 := b.Xor(acc[i+j], pp)
			c1 := b.And(acc[i+j], pp)
			s2 := b.Xor(s1, carry)
			c2 := b.And(s1, carry)
			acc[i+j] = s2
			carry = b.Or(c1, c2)
		}
		acc[i+n] = carry
	}
	b.Outputs("p", acc)
	return b.C
}

func quickCfg() Config {
	return Config{
		K: 6, M: 4,
		Samples:      1 << 10,
		Seed:         7,
		ExploreFully: true,
		MaxSteps:     40,
	}
}

func TestApproximateAdderTrace(t *testing.T) {
	c := rippleAdder(8)
	spec := qor.Unsigned("sum", 9)
	res, err := Approximate(c, spec, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profiles) == 0 {
		t.Fatal("no blocks profiled")
	}
	if len(res.Steps) == 0 {
		t.Fatal("exploration made no steps")
	}
	// Model area must be non-increasing-ish along the trace: each step
	// replaces a block variant with a lower-degree one; area can
	// occasionally rise (the paper notes literal-count blowups) but the
	// final model area must be below the accurate area.
	last := res.Steps[len(res.Steps)-1]
	if last.ModelArea >= res.AccurateModelArea {
		t.Errorf("final model area %.1f >= accurate %.1f", last.ModelArea, res.AccurateModelArea)
	}
	// Errors along the trace should be broadly non-decreasing: compare
	// first vs last.
	first := res.Steps[0].Report.AvgRel
	if last.Report.AvgRel < first {
		t.Errorf("error decreased along the full trace: first %v, last %v", first, last.Report.AvgRel)
	}
}

func TestApproximateRespectsThresholdSelection(t *testing.T) {
	c := rippleAdder(8)
	spec := qor.Unsigned("sum", 9)
	cfg := quickCfg()
	cfg.Threshold = 0.02
	res, err := Approximate(c, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestStep >= 0 {
		rep := res.Steps[res.BestStep].Report
		if rep.AvgRel > cfg.Threshold {
			t.Errorf("best step error %v exceeds threshold %v", rep.AvgRel, cfg.Threshold)
		}
	}
	best, err := res.BestCircuit()
	if err != nil {
		t.Fatal(err)
	}
	if err := best.Validate(); err != nil {
		t.Fatal(err)
	}
	// Verify the selected circuit's error independently at a different
	// seed: should be within noise of the recorded report.
	eval, err := qor.NewEvaluator(res.Circuit, spec, 1<<12, 99)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eval.Compare(best)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestStep >= 0 && rep.AvgRel > 3*cfg.Threshold+0.05 {
		t.Errorf("independent evaluation error %v far above threshold %v", rep.AvgRel, cfg.Threshold)
	}
}

func TestCircuitAtStepMinusOneIsAccurate(t *testing.T) {
	c := rippleAdder(6)
	spec := qor.Unsigned("sum", 7)
	res, err := Approximate(c, spec, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	acc, err := res.CircuitAt(-1)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := qor.NewEvaluator(res.Circuit, spec, 1<<12, 5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eval.Compare(acc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AvgRel != 0 || rep.MeanHam != 0 {
		t.Errorf("step -1 circuit is not accurate: %+v", rep)
	}
}

func TestStepsDecreaseDegrees(t *testing.T) {
	c := arrayMult(4)
	spec := qor.Unsigned("prod", 8)
	res, err := Approximate(c, spec, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	degrees := res.DegreesAt(-1)
	for si, s := range res.Steps {
		if s.NewDegree != degrees[s.BlockIndex]-1 {
			t.Fatalf("step %d: degree %d -> %d is not a single decrement",
				si, degrees[s.BlockIndex], s.NewDegree)
		}
		degrees[s.BlockIndex] = s.NewDegree
		if s.NewDegree < 1 {
			t.Fatalf("step %d: degree below 1", si)
		}
	}
}

func TestWeightedConfigRuns(t *testing.T) {
	c := arrayMult(4)
	spec := qor.Unsigned("prod", 8)
	cfg := quickCfg()
	cfg.Weighted = true
	res, err := Approximate(c, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("weighted exploration made no steps")
	}
}

func TestTraceAndPareto(t *testing.T) {
	c := rippleAdder(8)
	spec := qor.Unsigned("sum", 9)
	res, err := Approximate(c, spec, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	trace := res.Trace()
	if len(trace) != len(res.Steps)+1 {
		t.Fatalf("trace has %d points for %d steps", len(trace), len(res.Steps))
	}
	if trace[0].NormModelArea != 1 {
		t.Error("trace must start at normalized area 1")
	}
}

func TestFinalMetrics(t *testing.T) {
	c := rippleAdder(8)
	spec := qor.Unsigned("sum", 9)
	res, err := Approximate(c, spec, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	accMet, accRep, err := res.FinalMetrics(-1, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if accRep.AvgRel != 0 {
		t.Error("accurate circuit has nonzero error")
	}
	lastMet, lastRep, err := res.FinalMetrics(len(res.Steps)-1, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if lastMet.Area >= accMet.Area {
		t.Errorf("fully approximated area %.1f >= accurate %.1f", lastMet.Area, accMet.Area)
	}
	if lastRep.AvgRel == 0 {
		t.Error("fully approximated adder reports zero error (suspicious)")
	}
}

func TestXorSemiringFlow(t *testing.T) {
	c := rippleAdder(6)
	spec := qor.Unsigned("sum", 7)
	cfg := quickCfg()
	cfg.Semiring = 1 // bmf.Xor
	res, err := Approximate(c, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("xor exploration made no steps")
	}
}

func TestBlockOutputWeights(t *testing.T) {
	// In a ripple adder, blocks feeding only the MSB region must get larger
	// weights than blocks feeding only the LSB when weighting is on.
	c := logic.ReorderDFS(rippleAdder(8))
	spec := qor.Unsigned("sum", 9)
	blocks := decomposeForTest(t, c)
	ws := blockOutputWeights(c, blocks, spec, true)
	if len(ws) != len(blocks) {
		t.Fatal("weight vector count mismatch")
	}
	for bi, w := range ws {
		if len(w) != len(blocks[bi].Outputs) {
			t.Fatalf("block %d: %d weights for %d outputs", bi, len(w), len(blocks[bi].Outputs))
		}
		for _, v := range w {
			if v < 1 {
				t.Fatalf("block %d: weight %v < 1 after normalization", bi, v)
			}
		}
	}
	// Disabled weighting yields nils.
	un := blockOutputWeights(c, blocks, spec, false)
	for _, w := range un {
		if w != nil {
			t.Fatal("uniform mode must return nil weights")
		}
	}
}

func decomposeForTest(t *testing.T, c *logic.Circuit) []partition.Block {
	t.Helper()
	blocks, err := partition.Decompose(c, partition.Options{MaxInputs: 6, MaxOutputs: 4})
	if err != nil {
		t.Fatal(err)
	}
	return blocks
}

func TestSequentialFlowOnAccumulator(t *testing.T) {
	// A 6-bit accumulator: out = acc + in (1-bit). Under the sequential
	// model the flow must keep carry propagation roughly intact.
	b := logic.NewBuilder("accum")
	inc := b.Input("inc")
	acc := b.Inputs("acc", 6)
	carry := inc
	var sums []logic.NodeID
	for i := 0; i < 6; i++ {
		sums = append(sums, b.Xor(acc[i], carry))
		carry = b.And(acc[i], carry)
	}
	b.Outputs("s", sums)
	fb := make([][2]int, 6)
	for i := 0; i < 6; i++ {
		fb[i] = [2]int{i, 1 + i}
	}
	seq := &qor.Sequence{Steps: 16, Feedback: fb}

	cfg := quickCfg()
	cfg.Sequence = seq
	cfg.ExploreFully = true
	res, err := Approximate(b.C, qor.Unsigned("s", 6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no steps under sequential evaluation")
	}
	// Errors must be reported from the sequential comparer (non-zero once
	// approximation begins and generally larger than combinational).
	last := res.Steps[len(res.Steps)-1]
	if last.Report.AvgRel <= 0 {
		t.Error("sequential exploration reported zero error at full approximation")
	}
}

// TestBestStepBeatsAccurateArea: the returned circuit is the accurate one
// unless a step within the threshold has a strictly smaller model area, on
// every benchmark under both bases. Under the asso basis a step's
// resynthesized blocks can outgrow the accurate ones, so early steps fit the
// threshold while their model area exceeds the accurate circuit's. The
// selection does not depend on the explorer; the lazy one keeps this fast.
func TestBestStepBeatsAccurateArea(t *testing.T) {
	cache := bmf.NewMemoryCache()
	for _, name := range bench.Names() {
		c, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, basis := range []Basis{BasisColumns, BasisASSO} {
			cfg := Config{Samples: 1 << 9, Seed: 1, Basis: basis, Lazy: true, Sequence: c.Seq, Cache: cache}
			res, err := Approximate(c.Circ, c.Spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			within := func(s Step) bool { return s.Report.Value(cfg.Metric) <= res.Config.Threshold }
			area := res.AccurateModelArea
			if res.BestStep >= 0 {
				best := res.Steps[res.BestStep]
				if !within(best) || best.ModelArea >= area {
					t.Errorf("%s/%s: best step %d has error %v and model area %v, accurate area %v", name, basis,
						res.BestStep, best.Report.Value(cfg.Metric), best.ModelArea, area)
				}
				area = best.ModelArea
			}
			for i, s := range res.Steps {
				if within(s) && s.ModelArea < area {
					t.Errorf("%s/%s: step %d within the threshold has model area %v, below the returned %v",
						name, basis, i, s.ModelArea, area)
				}
			}
		}
	}
}
