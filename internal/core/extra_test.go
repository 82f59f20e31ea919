package core

import (
	"testing"

	"github.com/blasys-go/blasys/internal/qor"
)

func TestLazyMatchesExhaustiveClosely(t *testing.T) {
	c := rippleAdder(8)
	spec := qor.Unsigned("sum", 9)
	run := func(lazy bool) *Result {
		cfg := quickCfg()
		cfg.Lazy = lazy
		cfg.Threshold = 0.05
		cfg.ExploreFully = false
		cfg.MaxSteps = 0
		res, err := Approximate(c, spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ex := run(false)
	la := run(true)
	if len(la.Steps) == 0 {
		t.Fatal("lazy exploration made no steps")
	}
	// Both must produce valid under-threshold selections with broadly
	// similar area (within 25% of each other's model area).
	areaOf := func(r *Result) float64 {
		if r.BestStep < 0 {
			return r.AccurateModelArea
		}
		return r.Steps[r.BestStep].ModelArea
	}
	ea, laa := areaOf(ex), areaOf(la)
	if laa > ea*1.25 || ea > laa*1.25 {
		t.Errorf("lazy area %.1f vs exhaustive %.1f differ by >25%%", laa, ea)
	}
}

func TestLazyStepInvariants(t *testing.T) {
	c := arrayMult(4)
	spec := qor.Unsigned("prod", 8)
	cfg := quickCfg()
	cfg.Lazy = true
	res, err := Approximate(c, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	degrees := res.DegreesAt(-1)
	for si, s := range res.Steps {
		if s.NewDegree != degrees[s.BlockIndex]-1 {
			t.Fatalf("lazy step %d: degree jump", si)
		}
		degrees[s.BlockIndex] = s.NewDegree
	}
}

func TestBasisASSOFlow(t *testing.T) {
	c := rippleAdder(6)
	spec := qor.Unsigned("sum", 7)
	cfg := quickCfg()
	cfg.Basis = BasisASSO
	cfg.MaxSteps = 10
	res, err := Approximate(c, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("ASSO basis exploration made no steps")
	}
	// Errors still reported faithfully.
	for _, s := range res.Steps {
		if s.Report.AvgRel < 0 {
			t.Fatal("negative error")
		}
	}
}

func TestBasisString(t *testing.T) {
	if BasisColumns.String() != "columns" || BasisASSO.String() != "asso" {
		t.Error("basis names wrong")
	}
	if Basis(9).String() == "" {
		t.Error("unknown basis should still render")
	}
}

func TestApproximateRejectsInvalidCircuit(t *testing.T) {
	c := rippleAdder(4)
	// Corrupt the last gate (a real gate, not an input) with an
	// out-of-range fanin; Approximate must return an error, not panic.
	gate := len(c.Nodes) - 1
	c.Nodes[gate].Fanin[0] = 999
	if _, err := Approximate(c, qor.Unsigned("s", 5), quickCfg()); err == nil {
		t.Error("accepted corrupt circuit")
	}
}

func TestDegreesAtIntermediateSteps(t *testing.T) {
	c := rippleAdder(6)
	spec := qor.Unsigned("sum", 7)
	res, err := Approximate(c, spec, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) < 2 {
		t.Skip("too few steps")
	}
	d0 := res.DegreesAt(0)
	dAll := res.DegreesAt(len(res.Steps) - 1)
	sum := func(xs []int) int {
		s := 0
		for _, x := range xs {
			s += x
		}
		return s
	}
	if sum(d0) != sum(res.DegreesAt(-1))-1 {
		t.Error("step 0 should decrement exactly one degree")
	}
	if sum(dAll) != sum(res.DegreesAt(-1))-len(res.Steps) {
		t.Error("final degrees inconsistent with step count")
	}
	// Rebuilding any intermediate circuit must validate.
	mid, err := res.CircuitAt(len(res.Steps) / 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := mid.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.K != 10 || cfg.M != 10 {
		t.Errorf("default k/m = %d/%d, want 10/10", cfg.K, cfg.M)
	}
	if cfg.Threshold != 0.05 {
		t.Errorf("default threshold = %v", cfg.Threshold)
	}
	if cfg.Samples != 1<<16 || cfg.Lib == nil || cfg.Parallelism < 1 {
		t.Error("defaults incomplete")
	}
}
