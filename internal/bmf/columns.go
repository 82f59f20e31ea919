package bmf

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"github.com/blasys-go/blasys/internal/tt"
)

// FactorizeColumns computes a column-basis ("interpolative") Boolean
// factorization: B is restricted to a subset of f columns of M, and C
// OR-combines (or XOR-combines) the selected columns to approximate every
// column of M.
//
// This restricted family matters for synthesis quality: the compressor
// realizing B is then exactly f of the original subcircuit's output cones,
// so the approximate block can reuse the accurate block's logic (pruned)
// instead of re-synthesizing arbitrary learned truth tables. With the
// general ASSO basis, the factor functions carry no circuit structure and a
// two-level resynthesis can easily exceed the original block's area — the
// paper's "literal-aware factorization" future-work item. Column selection
// trades a small amount of error freedom for guaranteed area reduction.
//
// Selection is greedy forward: at each of the f rounds the column whose
// addition minimizes the total weighted reconstruction error is taken, where
// the reconstruction of every output column is the best subset-combination
// of the selected columns (found exactly by enumerating all 2^selected
// combinations, computed incrementally).
func FactorizeColumns(M *tt.Matrix, f int, opt Options) (*ColumnResult, error) {
	if err := checkDegree(M, f); err != nil {
		return nil, err
	}
	out, err := factorizeColumnsDegrees(M, onlyDegree(f), opt)
	if err != nil {
		return nil, err
	}
	return out[f-1], nil
}

// FactorizeColumnsDegrees is FactorizeDegrees for the column-basis family:
// out[f-1] is bit for bit FactorizeColumns(M, f, opt), for every degree from
// 1 to maxF, from one greedy selection run to maxF.
func FactorizeColumnsDegrees(M *tt.Matrix, maxF int, opt Options) ([]*ColumnResult, error) {
	if err := checkDegree(M, maxF); err != nil {
		return nil, err
	}
	return factorizeColumnsDegrees(M, allDegrees(maxF), opt)
}

// factorizeColumnsDegrees is the one column-selection kernel: out[f-1] =
// FactorizeColumns(M, f, opt) for every f with want[f-1] set (nil
// elsewhere), selecting up to len(want) columns once. Round i keeps the
// first column with the least wiring error given the columns chosen before
// it, whatever the degree, so degree f's selection is the first f rounds
// and its wiring C is round f's winning wiring.
func factorizeColumnsDegrees(M *tt.Matrix, want []bool, opt Options) ([]*ColumnResult, error) {
	weights := opt.ColWeights
	if weights == nil {
		weights = tt.UniformWeights(M.Cols)
	}
	if len(weights) != M.Cols {
		return nil, fmt.Errorf("bmf: %d column weights for %d columns", len(weights), M.Cols)
	}
	start := time.Now()
	defer func() { mFactorize.With("columns").Observe(time.Since(start).Seconds()) }()

	m := M.Cols
	words := (M.Rows + 63) / 64
	// Column bitvectors.
	cols := make([][]uint64, m)
	for j := 0; j < m; j++ {
		cols[j] = make([]uint64, words)
		for r := 0; r < M.Rows; r++ {
			if M.Get(r, j) {
				cols[j][r>>6] |= 1 << uint(r&63)
			}
		}
	}

	out := make([]*ColumnResult, len(want))
	selected := make([]int, 0, len(want))
	inSel := make([]bool, m)
	var C *tt.Matrix // the wiring of selected
	for f := 1; f <= len(want); f++ {
		bestCol, bestErr := -1, math.Inf(1)
		var bestC *tt.Matrix
		for cand := 0; cand < m; cand++ {
			if inSel[cand] {
				continue
			}
			trial := append(append([]int(nil), selected...), cand)
			e, wiring := bestWiring(cols, trial, weights, opt.Semiring, M.Rows)
			if e < bestErr {
				bestErr, bestCol, bestC = e, cand, wiring
			}
		}
		if bestCol != -1 {
			selected = append(selected, bestCol)
			inSel[bestCol] = true
			C = bestC
		} else if C == nil {
			// No column was ever taken (every trial error compared false):
			// this and every later degree keep the empty selection.
			_, C = bestWiring(cols, selected, weights, opt.Semiring, M.Rows)
		}
		if want[f-1] {
			out[f-1] = columnResult(M, selected, C, weights, opt.Semiring)
		}
	}
	return out, nil
}

// columnResult assembles the column-basis factorization that uses M's
// columns selected as B and the wiring C, with its errors.
func columnResult(M *tt.Matrix, selected []int, C *tt.Matrix, weights []float64, sr Semiring) *ColumnResult {
	B := tt.NewMatrix(M.Rows, len(selected))
	for i, j := range selected {
		for r := 0; r < M.Rows; r++ {
			if M.Get(r, j) {
				B.Set(r, i, true)
			}
		}
	}
	prod := sr.Product(B, C)
	return &ColumnResult{
		Result: Result{
			B:             B,
			C:             C,
			Hamming:       tt.HammingDistance(M, prod),
			WeightedError: tt.WeightedHamming(M, prod, weights),
		},
		Columns: append([]int(nil), selected...),
	}
}

// ColumnResult extends Result with the selected column indices
// (B's column i is M's column Columns[i]).
type ColumnResult struct {
	Result
	Columns []int
}

// bestWiring finds, for each output column, the subset of selected columns
// whose OR/XOR combination minimizes the weighted mismatch; it returns the
// total weighted error and the resulting C matrix.
func bestWiring(cols [][]uint64, selected []int, weights []float64, sr Semiring, rows int) (float64, *tt.Matrix) {
	f := len(selected)
	words := 0
	if len(cols) > 0 {
		words = len(cols[0])
	}
	// combos[s] = combination of selected columns in subset s.
	combos := make([][]uint64, 1<<uint(f))
	combos[0] = make([]uint64, words)
	for s := 1; s < len(combos); s++ {
		low := bits.TrailingZeros64(uint64(s))
		rest := combos[s&^(1<<uint(low))]
		cw := cols[selected[low]]
		buf := make([]uint64, words)
		if sr == Xor {
			for w := 0; w < words; w++ {
				buf[w] = rest[w] ^ cw[w]
			}
		} else {
			for w := 0; w < words; w++ {
				buf[w] = rest[w] | cw[w]
			}
		}
		combos[s] = buf
	}
	lastMask := ^uint64(0)
	if rem := rows % 64; rem != 0 {
		lastMask = (uint64(1) << uint(rem)) - 1
	}

	C := tt.NewMatrix(f, len(cols))
	total := 0.0
	for j := range cols {
		bestS, bestMis := 0, math.MaxInt
		for s := range combos {
			mis := 0
			for w := 0; w < words; w++ {
				d := combos[s][w] ^ cols[j][w]
				if w == words-1 {
					d &= lastMask
				}
				mis += bits.OnesCount64(d)
				if mis >= bestMis {
					break
				}
			}
			if mis < bestMis {
				bestMis, bestS = mis, s
				if mis == 0 {
					break
				}
			}
		}
		for i := 0; i < f; i++ {
			if bestS&(1<<uint(i)) != 0 {
				C.Set(i, j, true)
			}
		}
		total += float64(bestMis) * weights[j]
	}
	return total, C
}
