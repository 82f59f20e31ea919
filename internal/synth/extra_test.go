package synth

import (
	"math/rand"
	"testing"

	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/tt"
)

func TestXorPeelingProducesCompactParity(t *testing.T) {
	// 8-input parity: SOP needs 128 cubes, but XOR peeling must produce a
	// linear-size XOR chain.
	parity := tt.NewTable(8)
	for r := 0; r < 256; r++ {
		n := 0
		for v := r; v != 0; v &= v - 1 {
			n++
		}
		if n%2 == 1 {
			parity.Set(r, true)
		}
	}
	b := logic.NewBuilder("par")
	vars := b.Inputs("x", 8)
	b.Output("y", FromTable(b, parity, nil, vars, Options{}))
	if !b.C.TruthTables()[0].Equal(parity) {
		t.Fatal("parity function wrong")
	}
	if g := b.C.NumGates(); g > 10 {
		t.Errorf("parity-of-8 used %d gates; XOR peeling should give ~7", g)
	}
}

func TestShannonFallbackKeepsCorrectness(t *testing.T) {
	// A dense random 9-var function exercises the Shannon path (SOP covers
	// stay large); correctness is what matters.
	rng := rand.New(rand.NewSource(9))
	f := randomTable(rng, 9, 0.5)
	b := logic.NewBuilder("dense")
	vars := b.Inputs("x", 9)
	b.Output("y", FromTable(b, f, nil, vars, Options{}))
	if !b.C.TruthTables()[0].Equal(f) {
		t.Fatal("dense function synthesized incorrectly")
	}
}

func TestApproxBlockStructuralMatchesProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 15; trial++ {
		k := 3 + rng.Intn(4)
		m := 2 + rng.Intn(5)
		M := tt.NewMatrix(1<<uint(k), m)
		for r := 0; r < M.Rows; r++ {
			for c := 0; c < m; c++ {
				M.Set(r, c, rng.Intn(2) == 1)
			}
		}
		accurate, err := CircuitFromMatrix("acc", M, Options{})
		if err != nil {
			t.Fatal(err)
		}
		f := 1 + rng.Intn(m)
		res, err := bmf.FactorizeColumns(M, f, bmf.Options{})
		if err != nil {
			t.Fatal(err)
		}
		blk, err := ApproxBlockStructural("blk", accurate, res, bmf.Or)
		if err != nil {
			t.Fatal(err)
		}
		want := bmf.Or.Product(res.B, res.C)
		if got := blk.TruthMatrix(); !got.Equal(want) {
			t.Fatalf("trial %d: structural block != B∘C", trial)
		}
	}
}

func TestApproxBlockStructuralAreaNeverExplodes(t *testing.T) {
	// The structural block's gate count is bounded by the accurate block
	// plus the OR wiring (m*f extra at most).
	rng := rand.New(rand.NewSource(11))
	k, m := 6, 6
	M := tt.NewMatrix(1<<uint(k), m)
	for r := 0; r < M.Rows; r++ {
		for c := 0; c < m; c++ {
			M.Set(r, c, rng.Intn(2) == 1)
		}
	}
	accurate, err := CircuitFromMatrix("acc", M, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for f := 1; f < m; f++ {
		res, err := bmf.FactorizeColumns(M, f, bmf.Options{})
		if err != nil {
			t.Fatal(err)
		}
		blk, err := ApproxBlockStructural("blk", accurate, res, bmf.Or)
		if err != nil {
			t.Fatal(err)
		}
		if blk.NumGates() > accurate.NumGates()+m*f {
			t.Errorf("f=%d: structural block has %d gates vs accurate %d",
				f, blk.NumGates(), accurate.NumGates())
		}
	}
}

func TestApproxBlockStructuralErrors(t *testing.T) {
	M := tt.NewMatrix(8, 3)
	accurate, err := CircuitFromMatrix("acc", M, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := bmf.FactorizeColumns(M, 2, bmf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := *res
	bad.Columns = []int{0} // wrong count
	if _, err := ApproxBlockStructural("b", accurate, &bad, bmf.Or); err == nil {
		t.Error("accepted wrong column count")
	}
	bad2 := *res
	bad2.Columns = []int{0, 99}
	if _, err := ApproxBlockStructural("b", accurate, &bad2, bmf.Or); err == nil {
		t.Error("accepted out-of-range column")
	}
	// Accurate block with mismatched output count.
	wrong, err := CircuitFromMatrix("w", tt.NewMatrix(8, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApproxBlockStructural("b", wrong, res, bmf.Or); err == nil {
		t.Error("accepted mismatched accurate block")
	}
}

func TestCircuitFromMatrixRejectsBadRows(t *testing.T) {
	M := tt.NewMatrix(6, 2) // 6 rows: not a power of two
	if _, err := CircuitFromMatrix("bad", M, Options{}); err == nil {
		t.Error("accepted non-power-of-two rows")
	}
}
