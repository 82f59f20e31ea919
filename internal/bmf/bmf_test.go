package bmf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/blasys-go/blasys/internal/tt"
)

func randomMatrix(rng *rand.Rand, rows, cols int, density float64) *tt.Matrix {
	m := tt.NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				m.Set(r, c, true)
			}
		}
	}
	return m
}

// plantedMatrix builds M = B∘C exactly, so a degree-f factorization can in
// principle reach zero error.
func plantedMatrix(rng *rand.Rand, rows, cols, f int) *tt.Matrix {
	B := randomMatrix(rng, rows, f, 0.4)
	C := randomMatrix(rng, f, cols, 0.4)
	return tt.BoolProductOR(B, C)
}

func TestFactorizeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	M := randomMatrix(rng, 32, 8, 0.5)
	for f := 1; f <= 8; f++ {
		res, err := Factorize(M, f, Options{})
		if err != nil {
			t.Fatalf("f=%d: %v", f, err)
		}
		if res.B.Rows != 32 || res.B.Cols != f {
			t.Errorf("f=%d: B is %dx%d", f, res.B.Rows, res.B.Cols)
		}
		if res.C.Rows != f || res.C.Cols != 8 {
			t.Errorf("f=%d: C is %dx%d", f, res.C.Rows, res.C.Cols)
		}
	}
}

func TestFactorizeArgErrors(t *testing.T) {
	M := tt.NewMatrix(4, 4)
	if _, err := Factorize(M, 0, Options{}); err == nil {
		t.Error("accepted f=0")
	}
	if _, err := Factorize(M, 5, Options{}); err == nil {
		t.Error("accepted f > cols")
	}
	if _, err := Factorize(nil, 1, Options{}); err == nil {
		t.Error("accepted nil matrix")
	}
	if _, err := Factorize(M, 1, Options{ColWeights: []float64{1}}); err == nil {
		t.Error("accepted wrong weight count")
	}
}

func TestHammingMatchesReportedError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		M := randomMatrix(rng, 64, 10, rng.Float64())
		f := 1 + rng.Intn(9)
		res, err := Factorize(M, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		prod := tt.BoolProductOR(res.B, res.C)
		if got := tt.HammingDistance(M, prod); got != res.Hamming {
			t.Errorf("trial %d: reported Hamming %d, recomputed %d", trial, res.Hamming, got)
		}
	}
}

func TestErrorNonIncreasingInDegree(t *testing.T) {
	// More basis rows can only help (greedy may not be strictly monotone,
	// but with refinement f+1 should never be much worse; we assert weak
	// monotonicity of the best-of-sweep result within a tolerance of 0).
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		M := randomMatrix(rng, 128, 8, 0.45)
		results, err := FactorizeDegrees(M, 8, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for f := 1; f < len(results); f++ {
			if results[f].Hamming > results[f-1].Hamming {
				t.Errorf("trial %d: error increased from f=%d (%d) to f=%d (%d)",
					trial, f, results[f-1].Hamming, f+1, results[f].Hamming)
			}
		}
	}
}

func TestPlantedFactorizationRecovered(t *testing.T) {
	// M built as a rank-f OR-product should factor at degree f with very
	// low error, and at degree >= f with zero error frequently. We require
	// error <= 5% of entries at the planted rank.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		f := 1 + rng.Intn(4)
		M := plantedMatrix(rng, 256, 10, f)
		res, err := Factorize(M, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		total := M.Rows * M.Cols
		if res.Hamming > total/20 {
			t.Errorf("trial %d: planted rank-%d matrix error %d/%d", trial, f, res.Hamming, total)
		}
	}
}

func TestFullDegreeIsExact(t *testing.T) {
	// At f = m the identity basis reproduces M exactly; the sweep +
	// refinement must find a zero-error factorization.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		cols := 2 + rng.Intn(9)
		M := randomMatrix(rng, 1+rng.Intn(200), cols, rng.Float64())
		res, err := Factorize(M, cols, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Hamming != 0 {
			t.Errorf("trial %d: f=m factorization has error %d\nM:\n%v\nBC:\n%v",
				trial, res.Hamming, M, tt.BoolProductOR(res.B, res.C))
		}
	}
}

func TestWeightedReducesHighBitErrors(t *testing.T) {
	// On random numeric matrices, the power-of-two weighting must not give
	// a worse weighted error than the uniform objective evaluated under the
	// same power-of-two weights (averaged over trials it should be better).
	rng := rand.New(rand.NewSource(6))
	var wWeighted, wUniform float64
	cols := 8
	w := tt.PowerOfTwoWeights(cols)
	for trial := 0; trial < 20; trial++ {
		M := randomMatrix(rng, 256, cols, 0.5)
		f := 3
		rw, err := Factorize(M, f, Options{ColWeights: w})
		if err != nil {
			t.Fatal(err)
		}
		ru, err := Factorize(M, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		wWeighted += tt.WeightedHamming(M, tt.BoolProductOR(rw.B, rw.C), w)
		wUniform += tt.WeightedHamming(M, tt.BoolProductOR(ru.B, ru.C), w)
	}
	if wWeighted > wUniform {
		t.Errorf("weighted objective produced higher weighted error overall: %v > %v", wWeighted, wUniform)
	}
}

func TestParseSemiring(t *testing.T) {
	for name, want := range map[string]Semiring{"": Or, "or": Or, "xor": Xor} {
		if got, err := ParseSemiring(name); err != nil || got != want {
			t.Errorf("ParseSemiring(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseSemiring("nand"); err == nil {
		t.Error("ParseSemiring accepted an unknown name")
	}
	if Semiring(2).Valid() || Semiring(-1).Valid() || !Xor.Valid() {
		t.Error("Valid disagrees with the semiring constants")
	}
}

func TestXorSemiringProductConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		M := randomMatrix(rng, 64, 6, 0.5)
		res, err := Factorize(M, 3, Options{Semiring: Xor})
		if err != nil {
			t.Fatal(err)
		}
		prod := tt.BoolProductXOR(res.B, res.C)
		if got := tt.HammingDistance(M, prod); got != res.Hamming {
			t.Errorf("trial %d: XOR semiring error mismatch %d != %d", trial, res.Hamming, got)
		}
	}
}

func TestXorFullDegreeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		cols := 2 + rng.Intn(7)
		M := randomMatrix(rng, 64, cols, 0.5)
		res, err := Factorize(M, cols, Options{Semiring: Xor})
		if err != nil {
			t.Fatal(err)
		}
		if res.Hamming != 0 {
			t.Errorf("trial %d: XOR f=m factorization error %d", trial, res.Hamming)
		}
	}
}

// TestRefinementNeverHurts checks Factorize against the greedy ASSO
// factorization its refinement starts from, at every tau of the sweep.
func TestRefinementNeverHurts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		M := randomMatrix(rng, 64, 2+rng.Intn(8), rng.Float64())
		deg := 1 + rng.Intn(M.Cols)
		with, err := Factorize(M, deg, Options{})
		if err != nil {
			return false
		}
		wt := tt.NewWeightTable(tt.UniformWeights(M.Cols))
		stats := newAssoStats(M)
		for _, tau := range DefaultTauSweep {
			B, C := assoRef(M, deg, tau, wt, stats)
			if with.WeightedError > wt.WeightedHamming(M, tt.BoolProductOR(B, C)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestErrorNeverExceedsAllZeros(t *testing.T) {
	// Property: the factorization can always do at least as well as the
	// all-zero product (whose error = weight of M's ones).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cols := 1 + rng.Intn(10)
		M := randomMatrix(rng, 1+rng.Intn(128), cols, rng.Float64())
		deg := 1 + rng.Intn(cols)
		res, err := Factorize(M, deg, Options{})
		if err != nil {
			return false
		}
		return res.Hamming <= M.CountOnes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPaperFigure1StyleExample(t *testing.T) {
	// Small sanity example in the spirit of the paper's Figure 1: a matrix
	// that is an exact OR-combination of two basis rows factors exactly at
	// f = 2.
	C := tt.MatrixFromRows(4, []uint64{0b0011, 0b0110})
	B := tt.MatrixFromRows(2, []uint64{0b01, 0b10, 0b11, 0b00})
	M := tt.BoolProductOR(B, C)
	res, err := Factorize(M, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hamming != 0 {
		t.Errorf("exact rank-2 matrix not recovered: error %d\nM:\n%v", res.Hamming, M)
	}
}

// TestTauMergeOrderMatchesReference merges the taus of each pass in reverse
// and rotated sweep order, as parallel taus may finish, and checks every
// degree against the serial reference: which tau is kept must not depend
// on the order they finish in.
func TestTauMergeOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ties := 0
	for trial := 0; trial < 40; trial++ {
		M := randomMatrix(rng, 1+rng.Intn(128), 2+rng.Intn(9), rng.Float64())
		var opt Options
		if trial%4 >= 2 {
			opt.ColWeights = tt.PowerOfTwoWeights(M.Cols)
		}
		n := len(DefaultTauSweep)
		reverse, rotated := make([]int, n), make([]int, n)
		for i := range reverse {
			reverse[i] = n - 1 - i
			rotated[i] = (i + n/2) % n
		}
		for _, order := range [][]int{reverse, rotated} {
			p, err := newAssoPass(M, allDegrees(M.Cols), opt)
			if err != nil {
				t.Fatal(err)
			}
			runs := make([]*tauRun, n)
			for ti := range runs {
				runs[ti] = p.tau(ti)
			}
			for _, ti := range order {
				p.merge(runs[ti])
			}
			for f := 1; f <= M.Cols; f++ {
				got := p.best[f-1]
				if err := diffResult(got, factorizeRef(M, f, opt)); err != nil {
					t.Fatalf("trial %d f=%d merge order %v: %v", trial, f, order, err)
				}
				for ti, r := range runs {
					if ti != p.bestTau[f-1] && r.werr[f-1] == got.WeightedError && r.hamming[f-1] == got.Hamming {
						ties++
						break
					}
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no two taus tied: the tie rule went unexercised")
	}
}
