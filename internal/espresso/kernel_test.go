package espresso

import (
	"math/rand"
	"testing"

	"github.com/blasys-go/blasys/internal/tt"
)

// kernelCases returns seeded random incompletely specified functions over
// 0..10 variables: plain, with a disjoint don't-care set, with an
// overlapping one, and complemented (Not leaves bits above 2^nvars set when
// nvars < 6, which every kernel must ignore).
func kernelCases(rng *rand.Rand, perVars int) (ons, dcs []*tt.Table) {
	for nvars := 0; nvars <= 10; nvars++ {
		for k := 0; k < perVars; k++ {
			on := randomTable(rng, nvars, rng.Float64())
			var dc *tt.Table
			switch k % 4 {
			case 1:
				dc = randomTable(rng, nvars, 0.3).And(on.Not())
			case 2:
				dc = randomTable(rng, nvars, 0.2)
			case 3:
				on = on.Not()
			}
			ons, dcs = append(ons, on), append(dcs, dc)
		}
	}
	return ons, dcs
}

func sameCubes(a, b *Cover) bool {
	if a.NumVars != b.NumVars || len(a.Cubes) != len(b.Cubes) {
		return false
	}
	for i := range a.Cubes {
		if a.Cubes[i] != b.Cubes[i] {
			return false
		}
	}
	return true
}

func TestMinimizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ons, dcs := kernelCases(rng, 24)
	for i, on := range ons {
		got, want := Minimize(on, dcs[i]), minimizeRef(on, dcs[i])
		if !sameCubes(got, want) {
			t.Fatalf("case %d (nvars=%d, dc=%v): Minimize\n%v\nreference\n%v", i, on.NumVars(), dcs[i] != nil, got, want)
		}
	}
}

func TestISOPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ons, dcs := kernelCases(rng, 24)
	for i, on := range ons {
		if on.NumVars() == 0 {
			continue // ISOP recurses on variable NumVars-1
		}
		got, want := ISOP(on, dcs[i]), isopRef(on, dcs[i])
		if !sameCubes(got, want) {
			t.Fatalf("case %d (nvars=%d, dc=%v): ISOP\n%v\nreference\n%v", i, on.NumVars(), dcs[i] != nil, got, want)
		}
	}
}

func TestBitvecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for nvars := 0; nvars <= 10; nvars++ {
		vars := uint32(1)<<uint(nvars) - 1
		cv := &Cover{NumVars: nvars}
		for k := 0; k < 20; k++ {
			pos := rng.Uint32() & vars
			c := Cube{Pos: pos, Neg: rng.Uint32() & vars &^ pos}
			got, want := c.Bitvec(nvars).Words(), bitvecRef(c, nvars).Words()
			for w := range want {
				if got[w] != want[w] {
					t.Fatalf("nvars=%d cube %s: word %d = %#x, want %#x", nvars, c.PLA(nvars), w, got[w], want[w])
				}
			}
			cv.Cubes = append(cv.Cubes, c)
		}
		union := tt.NewTable(nvars)
		for _, c := range cv.Cubes {
			union = union.Or(bitvecRef(c, nvars))
		}
		got, want := cv.Bitvec().Words(), union.Words()
		for w := range want {
			if got[w] != want[w] {
				t.Fatalf("nvars=%d: cover word %d = %#x, want %#x", nvars, w, got[w], want[w])
			}
		}
	}
}

func TestSupercubeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for nvars := 0; nvars <= 10; nvars++ {
		for k := 0; k < 40; k++ {
			// Sparse sets make fixed variables likely.
			tbl := randomTable(rng, nvars, []float64{0.01, 0.05, 0.3}[k%3])
			got, want := supercube(nvars, tbl.Words()), supercubeRef(nvars, tbl)
			if got != want {
				t.Fatalf("nvars=%d set %v: supercube %s, want %s", nvars, tbl, got.PLA(nvars), want.PLA(nvars))
			}
		}
	}
}
