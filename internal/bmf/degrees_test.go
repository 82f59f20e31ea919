package bmf_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/partition"
	"github.com/blasys-go/blasys/internal/tt"
)

// degreeProblem is one matrix the all-degree kernels factorize at every
// degree up to maxF.
type degreeProblem struct {
	name   string
	M      *tt.Matrix
	maxF   int
	random bool
}

// degreeProblems returns every factorizable block of the seven circuits,
// decomposed and bounded as block profiling does (k = m = 10, degrees up to
// m_i-1), plus seeded random matrices whose degrees reach MaxDegree. Blocks
// with the truth matrix of an earlier block are left out: 232 of the 306
// blocks repeat one, most of them FIR's.
func degreeProblems(t *testing.T) []degreeProblem {
	t.Helper()
	var out []degreeProblem
	seen := map[string]bool{}
	for _, bm := range append(bench.All(), bench.Fig3()) {
		prepared := logic.ReorderDFS(bm.Circ)
		blocks, err := partition.Decompose(prepared, partition.Options{MaxInputs: 10, MaxOutputs: 10})
		if err != nil {
			t.Fatal(err)
		}
		for bi, b := range blocks {
			if len(b.Outputs) < 2 || len(b.Inputs) == 0 || len(b.Inputs) > 16 {
				continue
			}
			M, err := partition.TruthMatrix(prepared, b)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprint(M.Rows, M.Cols, M.Row)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, degreeProblem{
				name: fmt.Sprintf("%s/b%d", bm.Name, bi),
				M:    M,
				maxF: min(len(b.Outputs)-1, bmf.MaxDegree),
			})
		}
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 8; i++ {
		cols := bmf.MaxDegree + 2 - i // degrees up to MaxDegree, and below it
		M := tt.NewMatrix(1+rng.Intn(64), cols)
		density := rng.Float64()
		for r := range M.Row {
			for c := 0; c < cols; c++ {
				if rng.Float64() < density {
					M.Set(r, c, true)
				}
			}
		}
		out = append(out, degreeProblem{name: fmt.Sprintf("random%d", i), M: M, maxF: min(cols, bmf.MaxDegree), random: true})
	}
	return out
}

// TestFactorizeDegreesMatchesReference checks the all-degree ASSO kernel
// against the per-degree reference (greedy restarted per degree, refinement
// over 2^f, serial sweep-order tau selection), field for field and bit for
// bit, over {OR, XOR} x {uniform, power-of-two weights} x {default, 3-tau
// sweep}. The single-degree Factorize runs the
// same kernel with one wanted degree; it is checked at every degree of the
// random matrices in every variant and of every block at the defaults.
func TestFactorizeDegreesMatchesReference(t *testing.T) {
	problems := degreeProblems(t)
	for _, sr := range []bmf.Semiring{bmf.Or, bmf.Xor} {
		for _, pow2 := range []bool{false, true} {
			for _, sweep := range [][]float64{nil, {0.3, 0.6, 0.9}} {
				opt := bmf.Options{Semiring: sr, TauSweep: sweep}
				defaults := sr == bmf.Or && !pow2 && sweep == nil
				t.Run(fmt.Sprintf("%v/pow2=%v/taus=%d", sr, pow2, len(sweep)), func(t *testing.T) {
					t.Parallel()
					for _, p := range problems {
						opt := opt
						if pow2 {
							opt.ColWeights = tt.PowerOfTwoWeights(p.M.Cols)
						}
						checkDegrees(t, p, opt, defaults || p.random)
					}
				})
			}
		}
	}
}

// checkDegrees compares FactorizeDegrees, and Factorize when single is set,
// with the reference at every degree of p.
func checkDegrees(t *testing.T, p degreeProblem, opt bmf.Options, single bool) {
	t.Helper()
	all, err := bmf.FactorizeDegrees(p.M, p.maxF, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != p.maxF {
		t.Fatalf("%s: %d results for maxF %d", p.name, len(all), p.maxF)
	}
	for f := 1; f <= p.maxF; f++ {
		ref := bmf.FactorizeRef(p.M, f, opt)
		if err := bmf.DiffResult(all[f-1], ref); err != nil {
			t.Fatalf("%s f=%d: FactorizeDegrees: %v", p.name, f, err)
		}
		if !single {
			continue
		}
		one, err := bmf.Factorize(p.M, f, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := bmf.DiffResult(one, ref); err != nil {
			t.Fatalf("%s f=%d: Factorize: %v", p.name, f, err)
		}
	}
}

// TestFactorizeColumnsDegreesMatchesReference is the same check for the
// column-basis kernel, which does not read the tau sweep.
func TestFactorizeColumnsDegreesMatchesReference(t *testing.T) {
	problems := degreeProblems(t)
	for _, sr := range []bmf.Semiring{bmf.Or, bmf.Xor} {
		for _, pow2 := range []bool{false, true} {
			for _, p := range problems {
				opt := bmf.Options{Semiring: sr}
				if pow2 {
					opt.ColWeights = tt.PowerOfTwoWeights(p.M.Cols)
				}
				all, err := bmf.FactorizeColumnsDegrees(p.M, p.maxF, opt)
				if err != nil {
					t.Fatal(err)
				}
				for f := 1; f <= p.maxF; f++ {
					ref := bmf.FactorizeColumnsRef(p.M, f, opt)
					one, err := bmf.FactorizeColumns(p.M, f, opt)
					if err != nil {
						t.Fatal(err)
					}
					for _, got := range []*bmf.ColumnResult{all[f-1], one} {
						if err := bmf.DiffResult(&got.Result, &ref.Result); err != nil {
							t.Fatalf("%s f=%d %v pow2=%v: %v", p.name, f, sr, pow2, err)
						}
						if fmt.Sprint(got.Columns) != fmt.Sprint(ref.Columns) {
							t.Fatalf("%s f=%d %v pow2=%v: Columns %v, want %v", p.name, f, sr, pow2, got.Columns, ref.Columns)
						}
					}
				}
			}
		}
	}
}
