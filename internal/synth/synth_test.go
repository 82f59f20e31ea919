package synth

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/tt"
)

func randomTable(rng *rand.Rand, nvars int, density float64) *tt.Table {
	tbl := tt.NewTable(nvars)
	for i := 0; i < tbl.Len(); i++ {
		if rng.Float64() < density {
			tbl.Set(i, true)
		}
	}
	return tbl
}

func TestFromTableExactFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		nvars := 1 + rng.Intn(8)
		want := randomTable(rng, nvars, rng.Float64())
		b := logic.NewBuilder("f")
		vars := b.Inputs("x", nvars)
		out := FromTable(b, want, nil, vars, Options{})
		b.Output("y", out)
		if err := b.C.Validate(); err != nil {
			t.Fatal(err)
		}
		got := b.C.TruthTables()[0]
		if !got.Equal(want) {
			t.Fatalf("trial %d (nvars=%d): synthesized function differs\nwant %v\ngot  %v",
				trial, nvars, want, got)
		}
	}
}

func TestFromTableConstants(t *testing.T) {
	b := logic.NewBuilder("c")
	vars := b.Inputs("x", 3)
	zero := FromTable(b, tt.NewTable(3), nil, vars, Options{})
	one := FromTable(b, tt.NewTable(3).Not(), nil, vars, Options{})
	if zero != b.Const(false) || one != b.Const(true) {
		t.Errorf("constants not folded: zero=%d one=%d", zero, one)
	}
	if b.C.NumGates() != 0 {
		t.Errorf("constant synthesis created %d gates", b.C.NumGates())
	}
}

func TestFromTableDontCares(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		nvars := 2 + rng.Intn(6)
		on := randomTable(rng, nvars, 0.3)
		dc := randomTable(rng, nvars, 0.4).And(on.Not())
		b := logic.NewBuilder("f")
		vars := b.Inputs("x", nvars)
		out := FromTable(b, on, dc, vars, Options{})
		b.Output("y", out)
		got := b.C.TruthTables()[0]
		// Must agree wherever not a don't-care.
		for r := 0; r < on.Len(); r++ {
			if dc.Get(r) {
				continue
			}
			if got.Get(r) != on.Get(r) {
				t.Fatalf("trial %d: minterm %d wrong outside DC set", trial, r)
			}
		}
	}
}

func TestComplementPhaseWins(t *testing.T) {
	// f = NAND of all six inputs. Positive phase needs six inverters and a
	// five-gate OR tree (11 gates); the complement is a single all-positive
	// cube (five ANDs) plus the output inverter (6 gates). Phase selection
	// must pick the complement.
	on := tt.NewTable(6).Not()
	on.Set(63, false)
	b := logic.NewBuilder("f")
	vars := b.Inputs("x", 6)
	out := FromTable(b, on, nil, vars, Options{})
	b.Output("y", out)
	if got := b.C.TruthTables()[0]; !got.Equal(on) {
		t.Fatal("function mismatch")
	}
	// The positive-phase cover, built the way FromTable builds either phase.
	bp := logic.NewBuilder("fpos")
	varsP := bp.Inputs("x", 6)
	bp.Output("y", coverToGates(bp, New(Options{}).minimize(on, nil), varsP))
	if g, gp := b.C.NumGates(), bp.C.NumGates(); g >= gp {
		t.Errorf("phase selection missed: %d gates with selection, %d forced positive", g, gp)
	}
	if g := b.C.NumGates(); g != 6 {
		t.Errorf("complement phase should need exactly 6 gates, got %d", g)
	}
}

func TestCircuitFromMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		k := 2 + rng.Intn(5)
		m := 1 + rng.Intn(6)
		M := tt.NewMatrix(1<<uint(k), m)
		for r := 0; r < M.Rows; r++ {
			for c := 0; c < m; c++ {
				M.Set(r, c, rng.Intn(2) == 1)
			}
		}
		c, err := CircuitFromMatrix("m", M, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.TruthMatrix(); !got.Equal(M) {
			t.Fatalf("trial %d: circuit truth matrix differs", trial)
		}
	}
}

// approxBlockOracle computes the expected truth matrix of a factorization.
func TestApproxBlockMatchesProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(5)
		m := 2 + rng.Intn(6)
		f := 1 + rng.Intn(m)
		M := tt.NewMatrix(1<<uint(k), m)
		for r := 0; r < M.Rows; r++ {
			for c := 0; c < m; c++ {
				M.Set(r, c, rng.Intn(2) == 1)
			}
		}
		for _, sr := range []bmf.Semiring{bmf.Or, bmf.Xor} {
			res, err := bmf.Factorize(M, f, bmf.Options{Semiring: sr})
			if err != nil {
				t.Fatal(err)
			}
			blk, err := ApproxBlock("blk", res, sr, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := blk.Validate(); err != nil {
				t.Fatal(err)
			}
			want := sr.Product(res.B, res.C)
			if got := blk.TruthMatrix(); !got.Equal(want) {
				t.Fatalf("trial %d %v: block truth matrix != B∘C\nwant:\n%v\ngot:\n%v",
					trial, sr, want, got)
			}
		}
	}
}

func TestApproxBlockFullDegreeIsExact(t *testing.T) {
	// At f = m with the OR semiring, BMF reproduces M exactly, so the
	// synthesized block must equal the original function.
	rng := rand.New(rand.NewSource(5))
	k, m := 5, 5
	M := tt.NewMatrix(1<<uint(k), m)
	for r := 0; r < M.Rows; r++ {
		for c := 0; c < m; c++ {
			M.Set(r, c, rng.Intn(2) == 1)
		}
	}
	res, err := bmf.Factorize(M, m, bmf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hamming != 0 {
		t.Fatalf("full-degree factorization not exact (error %d)", res.Hamming)
	}
	blk, err := ApproxBlock("blk", res, bmf.Or, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !blk.TruthMatrix().Equal(M) {
		t.Error("full-degree block does not match original matrix")
	}
}

func TestFromTableProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nvars := 1 + rng.Intn(7)
		want := randomTable(rng, nvars, rng.Float64())
		b := logic.NewBuilder("f")
		vars := b.Inputs("x", nvars)
		b.Output("y", FromTable(b, want, nil, vars, Options{}))
		return b.C.TruthTables()[0].Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestExactOptionSmallFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		nvars := 2 + rng.Intn(4)
		want := randomTable(rng, nvars, 0.5)
		b := logic.NewBuilder("f")
		vars := b.Inputs("x", nvars)
		b.Output("y", FromTable(b, want, nil, vars, Options{Exact: true}))
		if !b.C.TruthTables()[0].Equal(want) {
			t.Fatalf("trial %d: exact synthesis wrong", trial)
		}
	}
}
