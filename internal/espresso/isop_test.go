package espresso

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/blasys-go/blasys/internal/tt"
)

func TestISOPCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		nvars := 1 + rng.Intn(10)
		on := randomTable(rng, nvars, rng.Float64())
		cv := ISOP(on, nil)
		if !cv.Bitvec().Equal(on) {
			t.Fatalf("trial %d (nvars=%d): ISOP cover wrong", trial, nvars)
		}
	}
}

func TestISOPWithDontCares(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		nvars := 2 + rng.Intn(8)
		on := randomTable(rng, nvars, 0.3)
		dc := randomTable(rng, nvars, 0.4).And(on.Not())
		cv := ISOP(on, dc)
		if err := cv.Verify(on, dc); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestISOPIrredundant(t *testing.T) {
	// Each cube of an ISOP must cover at least one ON minterm that no
	// other cube covers.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		nvars := 2 + rng.Intn(7)
		on := randomTable(rng, nvars, 0.4)
		cv := ISOP(on, nil)
		covs := make([]*tt.Table, len(cv.Cubes))
		for i, c := range cv.Cubes {
			covs[i] = c.Bitvec(nvars).And(on)
		}
		for i := range covs {
			others := tt.NewTable(nvars)
			for j := range covs {
				if j != i {
					others = others.Or(covs[j])
				}
			}
			if covs[i].And(others.Not()).CountOnes() == 0 {
				t.Fatalf("trial %d: cube %d redundant in ISOP", trial, i)
			}
		}
	}
}

func TestISOPMuchSmallerThanMinterms(t *testing.T) {
	// Structured function over 10 vars: x0 OR (x1 AND x2) — huge ON-set,
	// tiny ISOP.
	f := tt.Var(10, 0).Or(tt.Var(10, 1).And(tt.Var(10, 2)))
	cv := ISOP(f, nil)
	if len(cv.Cubes) != 2 {
		t.Errorf("ISOP produced %d cubes, want 2:\n%v", len(cv.Cubes), cv)
	}
}

func TestMinimizeLargeOnSetUsesISOPPath(t *testing.T) {
	// Dense random 10-var function: must still minimize correctly (this
	// exercises the ISOP seeding path in Minimize).
	rng := rand.New(rand.NewSource(14))
	on := randomTable(rng, 10, 0.7)
	cv := Minimize(on, nil)
	if !cv.Bitvec().Equal(on) {
		t.Fatal("minimized cover differs from function")
	}
}

func TestISOPProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nvars := 1 + rng.Intn(8)
		on := randomTable(rng, nvars, rng.Float64())
		dc := randomTable(rng, nvars, rng.Float64()).And(on.Not())
		cv := ISOP(on, dc)
		return cv.Verify(on, dc) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
