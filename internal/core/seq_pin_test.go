package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/blif"
)

// TestSequenceApproximatePins runs SAD, an accumulator-feedback benchmark,
// through Approximate at the paper's settings (k = m = 10, 5% average
// relative error, 2^16 samples, column basis) and pins, per seed, the
// committed step list and the SHA-256 of the best circuit's BLIF to the
// values recorded before the sequential evaluator gained its
// reference-decode cache. Every candidate the walk scores goes through that
// evaluator, so a single moved report bit changes a step or the result.
func TestSequenceApproximatePins(t *testing.T) {
	want := map[int64]struct {
		steps, best int
		stepsHash   string
		blifHash    string
	}{
		1: {44, 42, "e4b14190ac36e692ce0716c264df39b25aeac3519a0cb6333891a3da2ea19baf", "474b07d8498f031f99ccab19a54b286560a6fa71d5a053eece96e546095a569f"},
		2: {44, 42, "e51d33f015133d0875376dca80c760d92955cb8c979a020b54af7d15fba502af", "474b07d8498f031f99ccab19a54b286560a6fa71d5a053eece96e546095a569f"},
		3: {44, 42, "09d709983e037a7e12cb88e3384799dc476152b4b3da1628901d23861992c16f", "474b07d8498f031f99ccab19a54b286560a6fa71d5a053eece96e546095a569f"},
	}
	sad := bench.SAD()
	for seed := int64(1); seed <= 3; seed++ {
		cfg := Config{K: 10, M: 10, Threshold: 0.05, Samples: 1 << 16, Seed: seed,
			Basis: BasisColumns, Sequence: sad.Seq}
		res, err := Approximate(sad.Circ, sad.Spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, s := range res.Steps {
			r := s.Report
			fmt.Fprintf(h, "%d %d %x %x %x %x %x %x %x %x\n", s.BlockIndex, s.NewDegree,
				math.Float64bits(r.AvgRel), math.Float64bits(r.AvgAbs), math.Float64bits(r.MeanHam),
				math.Float64bits(r.ErrRate), math.Float64bits(r.WorstRel), math.Float64bits(r.WorstAbs),
				math.Float64bits(r.MeanSquared), math.Float64bits(s.ModelArea))
		}
		best, err := res.BestCircuit()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := blif.Write(&buf, best); err != nil {
			t.Fatal(err)
		}
		w := want[seed]
		gotSteps, gotBlif := fmt.Sprintf("%x", h.Sum(nil)), fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
		if len(res.Steps) != w.steps || res.BestStep != w.best || gotSteps != w.stepsHash || gotBlif != w.blifHash {
			t.Errorf("seed %d: {%d, %d, %q, %q},", seed, len(res.Steps), res.BestStep, gotSteps, gotBlif)
		}
	}
}
