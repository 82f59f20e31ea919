package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/qor"
)

// stepsDigest is the SHA-256 of a walk's committed steps: block, degree,
// every report field and the model area, bit for bit.
func stepsDigest(res *Result) string {
	h := sha256.New()
	for _, s := range res.Steps {
		r := s.Report
		fmt.Fprintf(h, "%d %d %x %x %x %x %x %x %x %x\n", s.BlockIndex, s.NewDegree,
			math.Float64bits(r.AvgRel), math.Float64bits(r.AvgAbs), math.Float64bits(r.MeanHam),
			math.Float64bits(r.ErrRate), math.Float64bits(r.WorstRel), math.Float64bits(r.WorstAbs),
			math.Float64bits(r.MeanSquared), math.Float64bits(s.ModelArea))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// frontierDigest is the SHA-256 of every frontier point in evaluation order.
func frontierDigest(res *Result) string {
	h := sha256.New()
	for _, p := range res.Frontier.Points() {
		fmt.Fprintf(h, "%x %x %x %d %d %d %t\n", math.Float64bits(p.Error), math.Float64bits(p.ModelArea),
			math.Float64bits(p.NormModelArea), p.Step, p.BlockIndex, p.Degree, p.Committed)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// blifDigest is the SHA-256 of the best circuit's BLIF.
func blifDigest(t *testing.T, res *Result) string {
	t.Helper()
	return fmt.Sprintf("%x", sha256.Sum256(resultBLIF(t, res)))
}

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
		w := want[seed]
		gotSteps, gotBlif := stepsDigest(res), blifDigest(t, res)
		if len(res.Steps) != w.steps || res.BestStep != w.best || gotSteps != w.stepsHash || gotBlif != w.blifHash {
			t.Errorf("seed %d: {%d, %d, %q, %q},", seed, len(res.Steps), res.BestStep, gotSteps, gotBlif)
		}
	}
}

// TestExhaustiveWalkPins pins combinational exhaustive walks (5% average
// relative error, 2^13 samples, seed 1, k = m = 10) to the values recorded
// before the exhaustive and lazy explorers shared one step loop: the
// SHA-256 of the committed steps and of every frontier point in evaluation
// order, and, for the columns rows, the best step and the best circuit's
// BLIF. The asso rows pin the walk only: their best step is chosen against
// the accurate circuit's area, which the walk does not depend on.
func TestExhaustiveWalkPins(t *testing.T) {
	cases := []struct {
		circ                         bench.Circuit
		basis                        Basis
		steps, best                  int
		stepsHash, ptsHash, blifHash string
	}{
		{bench.Adder32(), BasisColumns, 38, 36, "f877b6f11918f26734cb6452ea92926f7ac7cb592464e1f00bf8b64e216fd7ac", "3baeff07f02862112bf1cce6fd97f1a096c3322140ed4ea18cf23e1216e15ef8", "1530e01028b7b959378bd264994c0c98a83554ac26645a33e7dcc246f7a2b66f"},
		{bench.Mult8(), BasisColumns, 81, 79, "4e717fcdf15ed9e10951e318cbe54093911aa300fd089d5c5e33d19b9cdf97bb", "e2d812b16be622d4a848bd8b927ef7afc2464921b68e21c13d01edf551ddeaaf", "6af6afbebc8bfa082d05fcd910339f8d94090ecfef4401577f32d895062efcd4"},
		{bench.BUT(), BasisColumns, 7, 5, "b59f120e5a8bdea0faaab6d220bb570259ca6de37e14d3e70fd20b63e5397ab7", "6c051ac9d0b853251858fbb2917ba81b73571973fc7289ef1a1192a8d2546ab3", "e30b3c7a5ca398b38c6e7d575f275864b6bf13d62b0f78902ffb2e0434761c12"},
		{bench.Adder32(), BasisASSO, 35, 0, "260f602548f44dd6039991282b9468d69e2e6ac854773dbf37d06f75c70a729a", "71d780240a9f563cf122f237ca5a7dd34f051e4b17c6d9681b98d0e34c095105", ""},
		{bench.BUT(), BasisASSO, 7, 0, "222d3caae5798502af3ea75d7eb4582d4a23548d28ee32e4d9082baa88406068", "6f6c448297cf33e23806f1865812fac8adbb87c0b3774ee18744593212871a97", ""},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.circ.Name+"/"+tc.basis.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Approximate(tc.circ.Circ, tc.circ.Spec, Config{
				Threshold: 0.05, Samples: 1 << 13, Seed: 1, Basis: tc.basis,
			})
			if err != nil {
				t.Fatal(err)
			}
			gotSteps, gotPts := stepsDigest(res), frontierDigest(res)
			best, gotBlif := 0, ""
			if tc.basis == BasisColumns {
				best, gotBlif = res.BestStep, blifDigest(t, res)
			}
			if len(res.Steps) != tc.steps || gotSteps != tc.stepsHash || gotPts != tc.ptsHash ||
				best != tc.best || gotBlif != tc.blifHash {
				t.Errorf("{%d, %d, %q, %q, %q},", len(res.Steps), best, gotSteps, gotPts, gotBlif)
			}
		})
	}
}

// TestBestStepAtMatchesStoppedWalk checks the contract that lets one
// exhaustive walk serve every error budget: a walk stopped at a threshold
// commits a prefix of the full walk's steps, and the full walk's
// BestStepAt(threshold) is the stopped walk's BestStep. SAD runs with its
// Sequence, as the paper evaluates it.
func TestBestStepAtMatchesStoppedWalk(t *testing.T) {
	for _, bc := range []bench.Circuit{bench.Adder32(), bench.BUT(), bench.Mult8(), bench.SAD()} {
		for _, basis := range []Basis{BasisColumns, BasisASSO} {
			bc, basis := bc, basis
			t.Run(bc.Name+"/"+basis.String(), func(t *testing.T) {
				t.Parallel()
				cfg := Config{Samples: 1 << 13, Seed: 1, Basis: basis, Sequence: bc.Seq, Cache: bmf.NewMemoryCache()}
				fullCfg := cfg
				fullCfg.ExploreFully = true
				full, err := Approximate(bc.Circ, bc.Spec, fullCfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, thr := range []float64{0.05, 0.25} {
					cfg.Threshold = thr
					stopped, err := Approximate(bc.Circ, bc.Spec, cfg)
					if err != nil {
						t.Fatal(err)
					}
					n := len(stopped.Steps)
					if n > len(full.Steps) || !reflect.DeepEqual(stopped.Steps, full.Steps[:n]) {
						t.Errorf("threshold %g: the stopped walk's %d steps are not a prefix of the full walk's %d", thr, n, len(full.Steps))
					}
					if got := full.BestStepAt(thr); got != stopped.BestStep {
						t.Errorf("threshold %g: BestStepAt = %d, the stopped walk's BestStep = %d", thr, got, stopped.BestStep)
					}
				}
			})
		}
	}
}

// TestBestStepAtPrefixRule pins BestStepAt's rule on hand-made walks: the
// prefix ends at the first step at or above the threshold, a step exactly at
// it still counts as within it, and a step back under the threshold after
// the crossing is not read, however small.
func TestBestStepAtPrefixRule(t *testing.T) {
	cases := []struct {
		errs, areas []float64
		want        int
	}{
		{[]float64{0.01, 0.055, 0.02}, []float64{9, 8, 5}, 0}, // step 2 lies past the crossing
		{[]float64{0.01, 0.05, 0.02}, []float64{9, 7, 3}, 1},  // a step at the threshold ends the prefix and counts
		{[]float64{0.06, 0.01}, []float64{9, 3}, -1},          // the first step crosses: the accurate circuit
		{[]float64{0.01, 0.02}, []float64{11, 12}, -1},        // no step below the accurate area
		{[]float64{0.01, 0.02}, []float64{9, 8}, 1},           // no crossing: the whole walk
	}
	for i, tc := range cases {
		r := &Result{Config: Config{Metric: qor.AvgRelative}, AccurateModelArea: 10}
		for j := range tc.errs {
			r.Steps = append(r.Steps, Step{Report: qor.Report{AvgRel: tc.errs[j]}, ModelArea: tc.areas[j]})
		}
		if got := r.BestStepAt(0.05); got != tc.want {
			t.Errorf("case %d: BestStepAt(0.05) = %d, want %d", i, got, tc.want)
		}
	}
}
