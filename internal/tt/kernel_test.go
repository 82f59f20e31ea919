package tt

import (
	"math/rand"
	"testing"
)

// Reference kernels: the original entry-at-a-time implementations, kept as
// oracles for the word-level Cofactor and DependsOn.

func cofactorRef(t *Table, i int, val bool) *Table {
	c := NewTable(t.nvars)
	for r := 0; r < t.Len(); r++ {
		src := r
		if val {
			src = r | (1 << uint(i))
		} else {
			src = r &^ (1 << uint(i))
		}
		c.Set(r, t.Get(src))
	}
	return c
}

func dependsOnRef(t *Table, i int) bool {
	return !cofactorRef(t, i, false).Equal(cofactorRef(t, i, true))
}

func varRef(nvars, i int) *Table {
	t := NewTable(nvars)
	if i < 6 {
		var pat uint64
		block := uint(1) << uint(i)
		for b := uint(0); b < 64; b += 2 * block {
			pat |= ((uint64(1) << block) - 1) << (b + block)
		}
		for w := range t.words {
			t.words[w] = pat
		}
	} else {
		run := 1 << uint(i-6)
		for w := range t.words {
			if (w/run)%2 == 1 {
				t.words[w] = ^uint64(0)
			}
		}
	}
	return t
}

// kernelTables returns random tables over nvars variables of several
// densities, plus the degenerate constants and projections, each also in
// complemented form: Not leaves stray bits above 2^nvars when nvars < 6.
func kernelTables(rng *rand.Rand, nvars int) []*Table {
	var out []*Table
	out = append(out, NewTable(nvars))
	for i := 0; i < nvars; i++ {
		out = append(out, Var(nvars, i))
	}
	for _, d := range []float64{0.05, 0.3, 0.5, 0.9} {
		for k := 0; k < 4; k++ {
			t := NewTable(nvars)
			for r := 0; r < t.Len(); r++ {
				t.Set(r, rng.Float64() < d)
			}
			out = append(out, t)
		}
	}
	// Functions independent of some variables exercise DependsOn == false.
	for i := 0; i < nvars; i++ {
		t := out[len(out)-1].Cofactor(i, rng.Intn(2) == 1)
		out = append(out, t)
	}
	n := len(out)
	for _, t := range out[:n] {
		out = append(out, t.Not())
	}
	return out
}

func TestCofactorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for nvars := 0; nvars <= 10; nvars++ {
		for ti, tbl := range kernelTables(rng, nvars) {
			for i := 0; i < nvars; i++ {
				for _, val := range []bool{false, true} {
					got, want := tbl.Cofactor(i, val).Words(), cofactorRef(tbl, i, val).Words()
					for w := range want {
						if got[w] != want[w] {
							t.Fatalf("nvars=%d table %d Cofactor(%d,%v) word %d = %#x, want %#x",
								nvars, ti, i, val, w, got[w], want[w])
						}
					}
				}
				if got, want := tbl.DependsOn(i), dependsOnRef(tbl, i); got != want {
					t.Fatalf("nvars=%d table %d DependsOn(%d) = %v, want %v", nvars, ti, i, got, want)
				}
			}
		}
	}
}

func TestVarMatchesReference(t *testing.T) {
	for nvars := 1; nvars <= 10; nvars++ {
		for i := 0; i < nvars; i++ {
			got, want := Var(nvars, i).Words(), varRef(nvars, i).Words()
			for w := range want {
				if got[w] != want[w] {
					t.Fatalf("Var(%d,%d) word %d = %#x, want %#x", nvars, i, w, got[w], want[w])
				}
			}
			if i < 6 && got[0] != VarWord(i) {
				t.Fatalf("VarWord(%d) = %#x, Var word %#x", i, VarWord(i), got[0])
			}
		}
	}
}

func TestDependsOnAllocatesNothing(t *testing.T) {
	tbl := Var(10, 3).Xor(Var(10, 8))
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 10; i++ {
			tbl.DependsOn(i)
		}
	})
	if allocs != 0 {
		t.Errorf("DependsOn allocated %.1f times per run, want 0", allocs)
	}
}
