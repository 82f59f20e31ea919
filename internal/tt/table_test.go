package tt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewTableBounds(t *testing.T) {
	for _, n := range []int{0, 1, 6, 7, 10} {
		tbl := NewTable(n)
		if tbl.Len() != 1<<uint(n) {
			t.Errorf("NewTable(%d).Len() = %d, want %d", n, tbl.Len(), 1<<uint(n))
		}
		if tbl.CountOnes() != 0 {
			t.Errorf("NewTable(%d) not all-zero", n)
		}
	}
	for _, n := range []int{-1, 25} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTable(%d) did not panic", n)
				}
			}()
			NewTable(n)
		}()
	}
}

func TestGetSet(t *testing.T) {
	tbl := NewTable(7)
	idx := []int{0, 1, 63, 64, 65, 127}
	for _, i := range idx {
		tbl.Set(i, true)
	}
	for _, i := range idx {
		if !tbl.Get(i) {
			t.Errorf("entry %d not set", i)
		}
	}
	if got := tbl.CountOnes(); got != len(idx) {
		t.Errorf("CountOnes = %d, want %d", got, len(idx))
	}
	tbl.Set(64, false)
	if tbl.Get(64) {
		t.Error("entry 64 still set after clear")
	}
}

func TestVar(t *testing.T) {
	for nvars := 1; nvars <= 8; nvars++ {
		for i := 0; i < nvars; i++ {
			v := Var(nvars, i)
			for r := 0; r < v.Len(); r++ {
				want := (r>>uint(i))&1 == 1
				if v.Get(r) != want {
					t.Fatalf("Var(%d,%d).Get(%d) = %v, want %v", nvars, i, r, v.Get(r), want)
				}
			}
		}
	}
}

func TestBoolOpsMatchBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		nvars := 1 + rng.Intn(9)
		a, b := NewTable(nvars), NewTable(nvars)
		for i := 0; i < a.Len(); i++ {
			a.Set(i, rng.Intn(2) == 1)
			b.Set(i, rng.Intn(2) == 1)
		}
		and, or, xor, not := a.And(b), a.Or(b), a.Xor(b), a.Not()
		for i := 0; i < a.Len(); i++ {
			av, bv := a.Get(i), b.Get(i)
			if and.Get(i) != (av && bv) {
				t.Fatalf("And mismatch at %d", i)
			}
			if or.Get(i) != (av || bv) {
				t.Fatalf("Or mismatch at %d", i)
			}
			if xor.Get(i) != (av != bv) {
				t.Fatalf("Xor mismatch at %d", i)
			}
			if not.Get(i) != !av {
				t.Fatalf("Not mismatch at %d", i)
			}
		}
	}
}

func TestNotRespectsLenInCounts(t *testing.T) {
	// For nvars < 6 the complement sets out-of-range bits in the backing
	// word; CountOnes and Equal must ignore them.
	a := NewTable(3)
	a.Set(0, true)
	n := a.Not()
	if got := n.CountOnes(); got != 7 {
		t.Errorf("Not().CountOnes() = %d, want 7", got)
	}
	b := NewTable(3)
	for i := 1; i < 8; i++ {
		b.Set(i, true)
	}
	if !n.Equal(b) {
		t.Error("Not() not equal to explicitly built complement")
	}
	if d := n.HammingDistance(b); d != 0 {
		t.Errorf("HammingDistance to identical table = %d", d)
	}
}

func TestCofactorAndSupport(t *testing.T) {
	// f = x0 AND x2 over 3 vars.
	f := Var(3, 0).And(Var(3, 2))
	if f.DependsOn(1) {
		t.Error("f should not depend on x1")
	}
	if !f.DependsOn(0) || !f.DependsOn(2) {
		t.Error("f should depend on x0 and x2")
	}
	c0 := f.Cofactor(0, true) // = x2
	if !c0.Equal(Var(3, 2)) {
		t.Errorf("Cofactor(0,true) = %v, want x2", c0)
	}
	c1 := f.Cofactor(0, false) // = 0
	if isC, v := c1.IsConst(); !isC || v {
		t.Error("Cofactor(0,false) should be constant 0")
	}
}

func TestTableFromUint64(t *testing.T) {
	// XOR2 = 0110 = 0x6.
	x := TableFromUint64(2, 0x6)
	want := Var(2, 0).Xor(Var(2, 1))
	if !x.Equal(want) {
		t.Errorf("TableFromUint64 XOR mismatch: got %v want %v", x, want)
	}
}

func TestCofactorShannonExpansion(t *testing.T) {
	// Property: f = (x_i AND f|x_i=1) OR (NOT x_i AND f|x_i=0).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nvars := 1 + rng.Intn(7)
		tbl := NewTable(nvars)
		for i := 0; i < tbl.Len(); i++ {
			tbl.Set(i, rng.Intn(2) == 1)
		}
		for i := 0; i < nvars; i++ {
			xi := Var(nvars, i)
			rebuilt := xi.And(tbl.Cofactor(i, true)).Or(xi.Not().And(tbl.Cofactor(i, false)))
			if !rebuilt.Equal(tbl) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
