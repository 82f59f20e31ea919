// Package bmf implements Boolean matrix factorization, the mathematical core
// of BLASYS (Hashemi, Tann, Reda — DAC 2018).
//
// Given a Boolean matrix M (n rows, m columns) and a factorization degree
// f < m, Factorize finds B (n x f) and C (f x m) such that the Boolean
// product B∘C approximates M. Under the OR semiring (the paper's default,
// "semi-ring implementation") the product is out[r][j] = OR_i B[r][i]∧C[i][j];
// under the GF(2) field variant OR becomes XOR.
//
// The base algorithm is ASSO (Miettinen et al.): candidate basis rows are
// derived from pairwise column association confidences, then greedily
// selected together with their usage columns to maximize a cover function.
// Following Section 3.2 of the BLASYS paper, the cover function supports
// per-column weights so mismatches in high-significance output bits cost
// more than low-bit mismatches ("weighted QoR").
//
// On top of ASSO, Factorize always runs an exact per-row refinement: with C
// fixed, the optimal usage row B[r] is found by enumerating all 2^f
// OR-combinations of C's rows (f ≤ MaxDegree ⇒ at most 2^12 candidates,
// computed once and shared across rows). This never increases the weighted
// error and substantially improves the greedy solution.
package bmf

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/blasys-go/blasys/internal/sched"
	"github.com/blasys-go/blasys/internal/tt"
)

// Semiring selects the Boolean algebra for the factorization product and for
// the synthesized decompressor gates.
type Semiring int

const (
	// Or is the Boolean semiring: addition is logical OR. Decompressors
	// synthesize to OR gates. This is the paper's default.
	Or Semiring = iota
	// Xor is the GF(2) field: addition is XOR. Decompressors synthesize to
	// XOR gates.
	Xor
)

// semiringNames holds each semiring's name, which String returns and
// ParseSemiring reads.
var semiringNames = [...]string{Or: "or", Xor: "xor"}

// Valid reports whether s is Or or Xor.
func (s Semiring) Valid() bool { return s >= 0 && int(s) < len(semiringNames) }

func (s Semiring) String() string {
	if s.Valid() {
		return semiringNames[s]
	}
	return fmt.Sprintf("semiring(%d)", int(s))
}

// ParseSemiring returns the semiring with the given name (or, xor); ""
// means the default, Or.
func ParseSemiring(name string) (Semiring, error) {
	if name == "" {
		return Or, nil
	}
	for s, n := range semiringNames {
		if n == name {
			return Semiring(s), nil
		}
	}
	return 0, fmt.Errorf("bmf: unknown semiring %q (known: %s)", name, strings.Join(semiringNames[:], ", "))
}

// Product computes the matrix product under the semiring.
func (s Semiring) Product(B, C *tt.Matrix) *tt.Matrix {
	if s == Xor {
		return tt.BoolProductXOR(B, C)
	}
	return tt.BoolProductOR(B, C)
}

// MaxDegree bounds the factorization degree supported by the exact
// refinement enumeration (2^MaxDegree combinations are precomputed).
const MaxDegree = 12

// Options configures Factorize. The zero value selects the OR semiring,
// uniform column weights and the standard ASSO threshold sweep. ASSO's cover
// weights are fixed at w+ = w- = 1, and the exact row refinement always
// runs.
type Options struct {
	// Semiring selects OR (default) or XOR accumulation.
	Semiring Semiring

	// ColWeights holds one weight per column of M; nil means uniform.
	// Use tt.PowerOfTwoWeights for the paper's numeric-significance
	// weighting (WQoR).
	ColWeights []float64

	// TauSweep lists association-confidence thresholds to try; the
	// factorization with the lowest weighted error wins. Nil uses
	// DefaultTauSweep. This implements the paper's "sweep on the
	// factorization threshold".
	TauSweep []float64
}

// DefaultTauSweep is the association threshold sweep used when
// Options.TauSweep is nil.
var DefaultTauSweep = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// Parallel tau sweeps draw goroutine tokens from the machine-wide budget in
// internal/sched, shared with the explorer's candidate sweep and every other
// concurrent Factorize call, so nesting under an already-parallel caller
// (block profiling, engine workers, exploration) cannot oversubscribe the
// CPU.

// Result carries a factorization and its error against the input matrix.
type Result struct {
	B, C *tt.Matrix
	// Hamming is the unweighted count of mismatched entries.
	Hamming int
	// WeightedError is the column-weighted mismatch sum (equals Hamming
	// under uniform weights).
	WeightedError float64
	// Tau is the association threshold that produced this result.
	Tau float64
}

// Factorize computes an f-degree Boolean factorization of M.
// f must satisfy 1 <= f <= min(M.Cols, MaxDegree).
func Factorize(M *tt.Matrix, f int, opt Options) (*Result, error) {
	if err := checkDegree(M, f); err != nil {
		return nil, err
	}
	out, err := factorizeDegrees(M, onlyDegree(f), opt)
	if err != nil {
		return nil, err
	}
	return out[f-1], nil
}

// FactorizeDegrees factorizes M at every degree from 1 to maxF and returns
// the results indexed by f-1; out[f-1] is bit for bit Factorize(M, f, opt).
// It is the profiling primitive of Algorithm 1 (lines 3–10), and costs one
// degree-maxF factorization: see factorizeDegrees.
// maxF must satisfy 1 <= maxF <= min(M.Cols, MaxDegree).
func FactorizeDegrees(M *tt.Matrix, maxF int, opt Options) ([]*Result, error) {
	if err := checkDegree(M, maxF); err != nil {
		return nil, err
	}
	return factorizeDegrees(M, allDegrees(maxF), opt)
}

// checkDegree validates a factorization problem's matrix and degree.
func checkDegree(M *tt.Matrix, f int) error {
	if M == nil || M.Rows == 0 || M.Cols == 0 {
		return fmt.Errorf("bmf: empty matrix")
	}
	if f < 1 || f > M.Cols || f > MaxDegree {
		return fmt.Errorf("bmf: degree f=%d out of range [1, min(%d, %d)]", f, M.Cols, MaxDegree)
	}
	return nil
}

// allDegrees and onlyDegree build the want masks of the all-degree kernels:
// want[f-1] asks for degree f's result, and len(want) is the highest degree
// the pass runs to.
func allDegrees(maxF int) []bool {
	want := make([]bool, maxF)
	for i := range want {
		want[i] = true
	}
	return want
}

func onlyDegree(f int) []bool {
	want := make([]bool, f)
	want[f-1] = true
	return want
}

// Refinement winners are stored as uint16 combination indices; this
// constant stops compiling if MaxDegree outgrows them.
const _ uint16 = 1<<MaxDegree - 1

// factorizeDegrees is the one ASSO kernel behind Factorize,
// FactorizeDegrees and their cached forms. It returns out[f-1] =
// Factorize(M, f, opt) for every f with want[f-1] set (nil elsewhere), from a
// single greedy run and a single refinement scan per tau, up to maxF =
// len(want). Three prefix properties make that exact:
//
//   - ASSO's pick i maximizes the cover gain against the rows covered by
//     picks 0..i-1 alone; the degree only decides when to stop. So degree
//     f's greedy B and C are the first f columns of B and rows of C of one
//     run to maxF.
//   - Refinement at degree f scans the combinations s = 0..2^f-1 of C's
//     first f rows, which are the first 2^f entries of the 2^maxF table, and
//     keeps the first zero diff or else the first strict minimum. One scan
//     per row records its running winner at s = 2^f-1 for every f; a zero
//     diff at s0 ends the scan and is the winner of every degree not yet
//     recorded.
//   - Factorize picks, over the sweep, the first tau in sweep order with the
//     least (WeightedError, Hamming). That is the minimum over
//     (WeightedError, Hamming, tau index) whenever the errors compare (no
//     NaN), so each tau merges its degrees into one best per degree as it
//     finishes, in any order, and only that best is kept.
func factorizeDegrees(M *tt.Matrix, want []bool, opt Options) ([]*Result, error) {
	start := time.Now()
	p, err := newAssoPass(M, want, opt)
	if err != nil {
		return nil, err
	}
	sweep := p.opt.TauSweep
	defer func() {
		mFactorize.With("asso").Observe(time.Since(start).Seconds())
		mTauSweepWidth.Observe(float64(len(sweep)))
	}()
	// Each tau's factorization is independent; sweep them in parallel.
	// Tokens come from the machine-wide sched budget, so concurrent callers
	// (profiling is already parallel across blocks, exploration sweeps
	// candidates) share one budget instead of multiplying goroutines; a
	// caller that gets no token runs the tau inline.
	runTau := func(ti int) { p.merge(p.tau(ti)) }
	if runtime.GOMAXPROCS(0) > 1 && len(sweep) > 1 {
		var wg sync.WaitGroup
		for ti := range sweep {
			if sched.TryAcquire() {
				wg.Add(1)
				go func(ti int) {
					defer wg.Done()
					defer sched.Release()
					runTau(ti)
				}(ti)
			} else {
				runTau(ti)
			}
		}
		wg.Wait()
	} else {
		for ti := range sweep {
			runTau(ti)
		}
	}
	return p.best, nil
}

// assoPass is one run of the ASSO kernel: the problem with its defaults
// resolved, the statistics every tau shares, and the best result so far of
// each wanted degree.
type assoPass struct {
	M       *tt.Matrix
	want    []bool
	opt     Options
	stats   *assoStats
	wt      *tt.WeightTable
	mu      sync.Mutex // guards best and bestTau
	best    []*Result
	bestTau []int // sweep index of best[f-1]
}

func newAssoPass(M *tt.Matrix, want []bool, opt Options) (*assoPass, error) {
	weights := opt.ColWeights
	if weights == nil {
		weights = tt.UniformWeights(M.Cols)
	}
	if len(weights) != M.Cols {
		return nil, fmt.Errorf("bmf: %d column weights for %d columns", len(weights), M.Cols)
	}
	if opt.TauSweep == nil {
		opt.TauSweep = DefaultTauSweep
	}
	return &assoPass{
		M: M, want: want, opt: opt,
		// The column co-occurrence statistics feeding the association matrix
		// are tau-independent: compute them once and share across the sweep.
		stats:   newAssoStats(M),
		wt:      tt.NewWeightTable(weights),
		best:    make([]*Result, len(want)),
		bestTau: make([]int, len(want)),
	}, nil
}

// tauRun is one tau's factorization at every wanted degree: the greedy
// basis to the pass's highest degree, the refined usage rows, and each
// degree's errors.
type tauRun struct {
	ti      int
	C       *tt.Matrix
	refined [][]uint16 // refined[f-1][r]: degree f's usage row r
	hamming []int
	werr    []float64
}

// tau factorizes at sweep[ti] for every wanted degree.
func (p *assoPass) tau(ti int) *tauRun {
	maxF := len(p.want)
	t := &tauRun{ti: ti, hamming: make([]int, maxF), werr: make([]float64, maxF)}
	t.C = asso(p.M, maxF, p.opt.TauSweep[ti], p.wt, p.stats)
	combos := combinations(t.C, p.opt.Semiring)
	t.refined = refineRows(p.M, combos, p.want, p.wt)
	// Row r of degree f's product B∘C is combos[refined[f-1][r]]; the errors
	// sum exactly as tt.HammingDistance and WeightTable.WeightedHamming do
	// over the materialized product.
	for f := 1; f <= maxF; f++ {
		if !p.want[f-1] {
			continue
		}
		for r, row := range p.M.Row {
			if d := combos[t.refined[f-1][r]] ^ row; d != 0 {
				t.hamming[f-1] += bits.OnesCount64(d)
				t.werr[f-1] += p.wt.Sum(d)
			}
		}
	}
	return t
}

// merge keeps, for each wanted degree, whichever of t and the best so far
// comes first in (WeightedError, Hamming, tau index).
func (p *assoPass) merge(t *tauRun) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for f := 1; f <= len(p.want); f++ {
		if !p.want[f-1] {
			continue
		}
		h, e := t.hamming[f-1], t.werr[f-1]
		if cur := p.best[f-1]; cur == nil || e < cur.WeightedError || (e == cur.WeightedError &&
			(h < cur.Hamming || (h == cur.Hamming && t.ti < p.bestTau[f-1]))) {
			B := tt.NewMatrix(p.M.Rows, f)
			for r := range B.Row {
				B.Row[r] = uint64(t.refined[f-1][r])
			}
			p.best[f-1] = &Result{
				B: B, C: tt.MatrixFromRows(p.M.Cols, t.C.Row[:f]),
				Hamming: h, WeightedError: e, Tau: p.opt.TauSweep[t.ti],
			}
			p.bestTau[f-1] = t.ti
		}
	}
}

// asso is the greedy ASSO algorithm with weighted cover. It returns the
// basis matrix C (f x m); refinement derives the usage rows from C.
func asso(M *tt.Matrix, f int, tau float64, wt *tt.WeightTable, stats *assoStats) *tt.Matrix {
	n, m := M.Rows, M.Cols
	cand := stats.rows(tau)
	// Also offer the m unit rows as candidates so ASSO can always fall
	// back to reproducing single columns exactly.
	for j := 0; j < m; j++ {
		cand = append(cand, uint64(1)<<uint(j))
	}
	cand = dedupe(cand)

	C := tt.NewMatrix(f, m)
	// covered[r] = current OR of selected basis rows used by row r
	// (OR semiring greedy; the XOR variant reuses the same greedy seed and
	// relies on refinement for field-accurate usage).
	covered := make([]uint64, n)
	// Two usage buffers, swapped as better candidates are found, keep the
	// inner candidate loop allocation-free.
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
			break // no candidates at all; leave remaining rows zero
		}
		C.Row[i] = bestRow
		for r := 0; r < n; r++ {
			if bestUse[r] {
				covered[r] |= bestRow
			}
		}
	}
	return C
}

// coverGainInto evaluates adding basis row c: for every matrix row r it
// decides whether using c improves the weighted cover (each newly covered 1
// gains its weight, each newly covered 0 loses it: ASSO's w+ = w- = 1),
// writing the per-row usage decisions into use (every entry is overwritten)
// and returning the total gain.
func coverGainInto(M *tt.Matrix, covered []uint64, c uint64, wt *tt.WeightTable, use []bool) float64 {
	total := 0.0
	for r := 0; r < M.Rows; r++ {
		newly := c &^ covered[r] // bits this basis row would newly set
		if newly == 0 {
			use[r] = false
			continue
		}
		good := newly & M.Row[r] // newly covered 1s
		bad := newly &^ M.Row[r] // newly covered 0s (overcover)
		g := wt.Sum(good) - wt.Sum(bad)
		if g > 0 {
			use[r] = true
			total += g
		} else {
			use[r] = false
		}
	}
	return total
}

// assoStats carries the tau-independent column co-occurrence counts behind
// the ASSO association matrix, so a threshold sweep pays the O(rows * ones^2)
// counting pass once instead of once per tau.
type assoStats struct {
	colOnes []int
	inter   [][]int
}

func newAssoStats(M *tt.Matrix) *assoStats {
	m := M.Cols
	s := &assoStats{colOnes: make([]int, m), inter: make([][]int, m)}
	for j := range s.inter {
		s.inter[j] = make([]int, m)
	}
	for r := 0; r < M.Rows; r++ {
		row := M.Row[r]
		w := row
		for w != 0 {
			j := bits.TrailingZeros64(w)
			s.colOnes[j]++
			inter := s.inter[j]
			v := row
			for v != 0 {
				l := bits.TrailingZeros64(v)
				inter[l]++
				v &= v - 1
			}
			w &= w - 1
		}
	}
	return s
}

// rows builds the ASSO candidate set for one threshold: row j of the
// association matrix has bit l set iff
// conf(j -> l) = |col_j AND col_l| / |col_j| >= tau.
func (s *assoStats) rows(tau float64) []uint64 {
	m := len(s.colOnes)
	rows := make([]uint64, 0, m)
	for j := 0; j < m; j++ {
		if s.colOnes[j] == 0 {
			continue
		}
		var row uint64
		for l := 0; l < m; l++ {
			if float64(s.inter[j][l]) >= tau*float64(s.colOnes[j]) {
				row |= 1 << uint(l)
			}
		}
		if row != 0 {
			rows = append(rows, row)
		}
	}
	return rows
}

func dedupe(xs []uint64) []uint64 {
	seen := make(map[uint64]bool, len(xs))
	out := xs[:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// combinations returns the 2^f combination values of C's f rows under the
// semiring: entry s combines the rows whose bits are set in s, so entry s is
// row r of B∘C for any usage row B[r] = s.
func combinations(C *tt.Matrix, sr Semiring) []uint64 {
	combos := make([]uint64, 1<<uint(C.Rows))
	for s := 1; s < len(combos); s++ {
		low := bits.TrailingZeros64(uint64(s))
		rest := combos[s&^(1<<uint(low))]
		if sr == Xor {
			combos[s] = rest ^ C.Row[low]
		} else {
			combos[s] = rest | C.Row[low]
		}
	}
	return combos
}

// refineRows is the exact per-row refinement at every wanted degree: with
// the basis fixed, usage row r at degree f is the combination of the first f
// basis rows (the first 2^f entries of combos) nearest M's row r in weighted
// Hamming distance, the first zero diff or else the first strict minimum in
// scan order. It returns refined[f-1][r] for each wanted f (nil elsewhere),
// from one scan of combos per row; each diff is scored by the byte-sliced
// weight table instead of a per-bit loop.
func refineRows(M *tt.Matrix, combos []uint64, want []bool, wt *tt.WeightTable) [][]uint16 {
	refined := make([][]uint16, len(want))
	for i, w := range want {
		if w {
			refined[i] = make([]uint16, M.Rows)
		}
	}
	for r, target := range M.Row {
		bestS, bestErr := 0, math.Inf(1)
		// Degree f's scan ends at s = 2^f-1: next is that s for f = i+1.
		i, next := 0, 1
		for s, c := range combos {
			d := c ^ target
			if d == 0 {
				bestS = s
				break
			}
			if e := wt.Sum(d); e < bestErr {
				bestS, bestErr = s, e
			}
			if s == next {
				if refined[i] != nil {
					refined[i][r] = uint16(bestS)
				}
				i, next = i+1, next<<1|1
			}
		}
		for ; i < len(want); i++ {
			if refined[i] != nil {
				refined[i][r] = uint16(bestS)
			}
		}
	}
	return refined
}
