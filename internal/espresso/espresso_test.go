package espresso

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/blasys-go/blasys/internal/tt"
)

func TestCubeBasics(t *testing.T) {
	c := FullCube.WithLiteral(0, true).WithLiteral(2, false)
	if c.NumLiterals() != 2 {
		t.Errorf("NumLiterals = %d, want 2", c.NumLiterals())
	}
	if c.PLA(4) != "1-0-" {
		t.Errorf("PLA = %q, want 1-0-", c.PLA(4))
	}
	// c covers minterms with bit0=1, bit2=0.
	if !c.Covers(0b0001) || !c.Covers(0b1011) || c.Covers(0b0101) || c.Covers(0b0000) {
		t.Error("Covers mismatch")
	}
	d := c.WithLiteral(1, true)
	if !c.Contains(d) || d.Contains(c) {
		t.Error("Contains mismatch")
	}
	if c.DropVar(0) != FullCube.WithLiteral(2, false) {
		t.Error("DropVar mismatch")
	}
}

func TestCubeBitvec(t *testing.T) {
	c := FullCube.WithLiteral(1, true).WithLiteral(3, false)
	bv := c.Bitvec(5)
	for r := 0; r < 32; r++ {
		want := c.Covers(uint32(r))
		if bv.Get(r) != want {
			t.Errorf("Bitvec(%d) = %v, want %v", r, bv.Get(r), want)
		}
	}
}

func TestMintermCube(t *testing.T) {
	c := MintermCube(4, 0b1010)
	if c.PLA(4) != "0101" {
		t.Errorf("PLA = %q, want 0101", c.PLA(4))
	}
	if !c.Covers(0b1010) || c.Covers(0b1011) {
		t.Error("minterm cube coverage wrong")
	}
}

func randomTable(rng *rand.Rand, nvars int, density float64) *tt.Table {
	tbl := tt.NewTable(nvars)
	for i := 0; i < tbl.Len(); i++ {
		if rng.Float64() < density {
			tbl.Set(i, true)
		}
	}
	return tbl
}

func TestMinimizeCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		nvars := 1 + rng.Intn(9)
		on := randomTable(rng, nvars, rng.Float64())
		cv := Minimize(on, nil)
		if !cv.Bitvec().Equal(on) {
			t.Fatalf("trial %d (nvars=%d): cover does not equal function\non:  %v\ngot: %v\ncover:\n%v",
				trial, nvars, on, cv.Bitvec(), cv)
		}
	}
}

func TestMinimizeWithDontCares(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		nvars := 2 + rng.Intn(7)
		on := randomTable(rng, nvars, 0.3)
		dc := randomTable(rng, nvars, 0.3).And(on.Not()) // disjoint from ON
		cv := Minimize(on, dc)
		if err := cv.Verify(on, dc); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The DC-relaxed cover must be no larger than the strict cover.
		strict := Minimize(on, nil)
		if len(cv.Cubes) > len(strict.Cubes) {
			t.Errorf("trial %d: DC cover has %d cubes, strict %d", trial, len(cv.Cubes), len(strict.Cubes))
		}
	}
}

func TestMinimizeDegenerate(t *testing.T) {
	zero := tt.NewTable(4)
	if cv := Minimize(zero, nil); len(cv.Cubes) != 0 {
		t.Errorf("constant-0 cover has %d cubes", len(cv.Cubes))
	}
	one := zero.Not()
	cv := Minimize(one, nil)
	if len(cv.Cubes) != 1 || cv.Cubes[0] != FullCube {
		t.Errorf("constant-1 cover = %v", cv)
	}
	// Single variable function.
	x2 := tt.Var(5, 2)
	cv = Minimize(x2, nil)
	if len(cv.Cubes) != 1 || cv.Cubes[0].NumLiterals() != 1 {
		t.Errorf("projection cover = %v", cv)
	}
}

func TestMinimizeXorWorstCase(t *testing.T) {
	// n-input XOR needs 2^(n-1) cubes of n literals: minimization cannot do
	// better than that; check we achieve it exactly.
	for nvars := 2; nvars <= 6; nvars++ {
		on := tt.NewTable(nvars)
		for r := 0; r < on.Len(); r++ {
			if popcountParity(r) {
				on.Set(r, true)
			}
		}
		cv := Minimize(on, nil)
		if !cv.Bitvec().Equal(on) {
			t.Fatalf("nvars=%d: XOR cover incorrect", nvars)
		}
		want := 1 << uint(nvars-1)
		if len(cv.Cubes) != want {
			t.Errorf("nvars=%d: XOR cover has %d cubes, want %d", nvars, len(cv.Cubes), want)
		}
	}
}

func popcountParity(r int) bool {
	p := false
	for r != 0 {
		p = !p
		r &= r - 1
	}
	return p
}

func TestMinimizeKnownFunction(t *testing.T) {
	// f = a·b + ¬a·c (the classic consensus example). A minimal SOP has
	// 2 cubes; the consensus term b·c is redundant.
	a, b, c := tt.Var(3, 0), tt.Var(3, 1), tt.Var(3, 2)
	f := a.And(b).Or(a.Not().And(c))
	cv := Minimize(f, nil)
	if !cv.Bitvec().Equal(f) {
		t.Fatal("incorrect cover")
	}
	if len(cv.Cubes) != 2 {
		t.Errorf("cover has %d cubes, want 2:\n%v", len(cv.Cubes), cv)
	}
}

func TestMinimizeExactMatchesHeuristicQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		nvars := 2 + rng.Intn(4) // up to 5 vars for exact speed
		on := randomTable(rng, nvars, rng.Float64())
		exact, err := MinimizeExact(on, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !exact.Bitvec().Equal(on) {
			t.Fatalf("trial %d: exact cover incorrect", trial)
		}
		heur := Minimize(on, nil)
		if len(heur.Cubes) < len(exact.Cubes) {
			t.Errorf("trial %d: heuristic (%d cubes) beat 'exact' (%d cubes) — exact solver is broken",
				trial, len(heur.Cubes), len(exact.Cubes))
		}
		// The heuristic should be close to optimal on small functions.
		if len(heur.Cubes) > len(exact.Cubes)+2 {
			t.Logf("trial %d: heuristic %d cubes vs exact %d", trial, len(heur.Cubes), len(exact.Cubes))
		}
	}
}

func TestMinimizeExactWithDontCares(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		nvars := 2 + rng.Intn(4)
		on := randomTable(rng, nvars, 0.3)
		dc := randomTable(rng, nvars, 0.4).And(on.Not())
		cv, err := MinimizeExact(on, dc)
		if err != nil {
			t.Fatal(err)
		}
		if err := cv.Verify(on, dc); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestMinimizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nvars := 1 + rng.Intn(8)
		on := randomTable(rng, nvars, rng.Float64())
		cv := Minimize(on, nil)
		if !cv.Bitvec().Equal(on) {
			return false
		}
		// Primality-ish sanity: no cube may be contained in another.
		for i, c := range cv.Cubes {
			for j, d := range cv.Cubes {
				if i != j && d.Contains(c) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
