package bmf

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/blasys-go/blasys/internal/tt"
)

// Reference implementations: the per-degree factorizations the all-degree
// kernels replaced, kept as oracles. Each degree restarts the ASSO greedy,
// refines over its own 2^f combinations and scores the materialized
// product; the tau sweep runs serially and keeps the first tau with the
// least (WeightedError, Hamming) in sweep order. Column selection likewise
// restarts at every degree and recomputes the final wiring.

func factorizeRef(M *tt.Matrix, f int, opt Options) *Result {
	weights := opt.ColWeights
	if weights == nil {
		weights = tt.UniformWeights(M.Cols)
	}
	sweep := opt.TauSweep
	if sweep == nil {
		sweep = DefaultTauSweep
	}
	stats := newAssoStats(M)
	wt := tt.NewWeightTable(weights)
	var best *Result
	for _, tau := range sweep {
		B, C := assoRef(M, f, tau, wt, stats)
		refineRowsRef(M, B, C, wt, opt.Semiring)
		prod := opt.Semiring.Product(B, C)
		res := &Result{
			B:             B,
			C:             C,
			Hamming:       tt.HammingDistance(M, prod),
			WeightedError: wt.WeightedHamming(M, prod),
			Tau:           tau,
		}
		if best == nil || res.WeightedError < best.WeightedError ||
			(res.WeightedError == best.WeightedError && res.Hamming < best.Hamming) {
			best = res
		}
	}
	return best
}

func assoRef(M *tt.Matrix, f int, tau float64, wt *tt.WeightTable, stats *assoStats) (B, C *tt.Matrix) {
	n, m := M.Rows, M.Cols
	cand := stats.rows(tau)
	for j := 0; j < m; j++ {
		cand = append(cand, uint64(1)<<uint(j))
	}
	cand = dedupe(cand)
	B = tt.NewMatrix(n, f)
	C = tt.NewMatrix(f, m)
	covered := make([]uint64, n)
	use := make([]bool, n)
	bestUse := make([]bool, n)
	for i := 0; i < f; i++ {
		bestGain := math.Inf(-1)
		var bestRow uint64
		found := false
		for _, c := range cand {
			gain := coverGainInto(M, covered, c, wt, use)
			if gain > bestGain {
				bestGain = gain
				bestRow = c
				use, bestUse = bestUse, use
				found = true
			}
		}
		if !found {
			break
		}
		C.Row[i] = bestRow
		for r := 0; r < n; r++ {
			if bestUse[r] {
				B.Set(r, i, true)
				covered[r] |= bestRow
			}
		}
	}
	return B, C
}

func refineRowsRef(M, B, C *tt.Matrix, wt *tt.WeightTable, sr Semiring) {
	f := C.Rows
	combos := make([]uint64, 1<<uint(f))
	for s := 1; s < len(combos); s++ {
		low := bits.TrailingZeros64(uint64(s))
		rest := combos[s&^(1<<uint(low))]
		if sr == Xor {
			combos[s] = rest ^ C.Row[low]
		} else {
			combos[s] = rest | C.Row[low]
		}
	}
	for r := 0; r < M.Rows; r++ {
		target := M.Row[r]
		bestS, bestErr := 0, math.Inf(1)
		for s := range combos {
			d := combos[s] ^ target
			if d == 0 {
				bestS, bestErr = s, 0
				break
			}
			e := wt.Sum(d)
			if e < bestErr {
				bestS, bestErr = s, e
			}
		}
		B.Row[r] = uint64(bestS)
	}
}

func factorizeColumnsRef(M *tt.Matrix, f int, opt Options) *ColumnResult {
	weights := opt.ColWeights
	if weights == nil {
		weights = tt.UniformWeights(M.Cols)
	}
	m := M.Cols
	words := (M.Rows + 63) / 64
	cols := make([][]uint64, m)
	for j := 0; j < m; j++ {
		cols[j] = make([]uint64, words)
		for r := 0; r < M.Rows; r++ {
			if M.Get(r, j) {
				cols[j][r>>6] |= 1 << uint(r&63)
			}
		}
	}
	selected := make([]int, 0, f)
	inSel := make([]bool, m)
	for len(selected) < f {
		bestCol, bestErr := -1, math.Inf(1)
		for cand := 0; cand < m; cand++ {
			if inSel[cand] {
				continue
			}
			trial := append(append([]int(nil), selected...), cand)
			e, _ := bestWiring(cols, trial, weights, opt.Semiring, M.Rows)
			if e < bestErr {
				bestErr, bestCol = e, cand
			}
		}
		if bestCol == -1 {
			break
		}
		selected = append(selected, bestCol)
		inSel[bestCol] = true
	}
	_, C := bestWiring(cols, selected, weights, opt.Semiring, M.Rows)
	B := tt.NewMatrix(M.Rows, len(selected))
	for i, j := range selected {
		for r := 0; r < M.Rows; r++ {
			if M.Get(r, j) {
				B.Set(r, i, true)
			}
		}
	}
	prod := opt.Semiring.Product(B, C)
	return &ColumnResult{
		Result: Result{
			B:             B,
			C:             C,
			Hamming:       tt.HammingDistance(M, prod),
			WeightedError: tt.WeightedHamming(M, prod, weights),
		},
		Columns: selected,
	}
}

// diffResult reports the first field in which got differs from want, with
// errors compared bit for bit.
func diffResult(got, want *Result) error {
	switch {
	case !got.B.Equal(want.B):
		return fmt.Errorf("B differs")
	case !got.C.Equal(want.C):
		return fmt.Errorf("C differs")
	case got.Hamming != want.Hamming:
		return fmt.Errorf("Hamming %d, want %d", got.Hamming, want.Hamming)
	case math.Float64bits(got.WeightedError) != math.Float64bits(want.WeightedError):
		return fmt.Errorf("WeightedError %v, want %v", got.WeightedError, want.WeightedError)
	case math.Float64bits(got.Tau) != math.Float64bits(want.Tau):
		return fmt.Errorf("Tau %v, want %v", got.Tau, want.Tau)
	}
	return nil
}
