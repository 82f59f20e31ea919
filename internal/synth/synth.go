// Package synth lowers Boolean functions to gate-level netlists. It provides
// the two synthesis primitives BLASYS needs:
//
//   - FromTable: single-output truth table → minimized sum-of-products gate
//     tree (choosing whichever of the function and its complement yields the
//     cheaper cover), built through a structural-hashing Builder so product
//     terms shared between outputs become shared gates.
//   - ApproxBlock: the compressor/decompressor pair of the BLASYS paper —
//     the B factor synthesized as a k-input/f-output circuit and the C
//     factor wired as OR (or XOR) gates combining the f intermediate
//     signals into m outputs.
//
// A Synthesizer does the same with a memo of minimized covers, so that
// functions recurring across calls (the B columns of one block's
// factorizations at successive degrees) are minimized once.
package synth

import (
	"encoding/binary"
	"fmt"

	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/espresso"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/tt"
)

// Options configures truth-table synthesis.
type Options struct {
	// Exact uses Quine–McCluskey exact minimization (≤ 10 variables)
	// instead of the espresso heuristic.
	Exact bool
}

// shannonCubeLimit is the SOP size above which FromTable falls back to
// Shannon (MUX) decomposition. Two-level covers of XOR-rich functions
// (adder sums, parity) are exponential; recursing on a cofactor split
// recovers the multi-level structure a full synthesis tool would find.
const shannonCubeLimit = 12

// Synthesizer synthesizes truth tables with fixed Options and memoizes every
// minimized cover by its function, so a function that recurs (as a B column
// at several factorization degrees, a cofactor, or a complement) is
// minimized once. The memo only grows; its covers are never mutated, and
// netlists are identical to those of the package-level functions. A
// Synthesizer is not safe for concurrent use: give each goroutine its own,
// scoped to the work whose functions recur (one block's profile).
type Synthesizer struct {
	opt    Options
	covers map[string]*espresso.Cover
	key    []byte // reused buffer for memo keys
}

// New returns a Synthesizer with an empty memo.
func New(opt Options) *Synthesizer {
	return &Synthesizer{opt: opt, covers: make(map[string]*espresso.Cover)}
}

// FromTable synthesizes the function given by table over the input nodes
// vars (vars[i] is table variable i) into builder b, returning the output
// node. dc may be nil; its minterms are free to take either value.
//
// Synthesis is multi-level: linear (XOR) variables are peeled off first,
// the rest is realized as a minimized SOP in whichever phase is cheaper,
// and functions whose covers stay large are split with Shannon expansion.
func FromTable(b *logic.Builder, table, dc *tt.Table, vars []logic.NodeID, opt Options) logic.NodeID {
	return New(opt).FromTable(b, table, dc, vars)
}

// FromTable is the package-level FromTable with the Synthesizer's options
// and memo.
func (s *Synthesizer) FromTable(b *logic.Builder, table, dc *tt.Table, vars []logic.NodeID) logic.NodeID {
	if len(vars) != table.NumVars() {
		panic(fmt.Sprintf("synth: FromTable: %d vars for %d-variable table", len(vars), table.NumVars()))
	}
	if isConst, v := constUnderDC(table, dc); isConst {
		return b.Const(v)
	}

	// Peel linear variables: if f|x=0 is exactly the complement of f|x=1,
	// then f = x XOR f|x=0. Completely-specified functions only — with
	// don't-cares the complement relation is ambiguous.
	if dc == nil {
		for v := 0; v < table.NumVars(); v++ {
			c0 := table.Cofactor(v, false)
			if c0.Equal(table.Cofactor(v, true).Not()) {
				rest := s.FromTable(b, c0, nil, vars)
				return b.Xor(vars[v], rest)
			}
		}
	}

	pos := s.minimize(table, dc)
	negOn := table.Not()
	if dc != nil {
		negOn = negOn.And(dc.Not())
	}
	neg := s.minimize(negOn, dc)

	best, negate := pos, false
	if gateCost(neg)+1 < gateCost(pos) {
		best, negate = neg, true
	}
	if len(best.Cubes) > shannonCubeLimit {
		// Shannon fallback: split on the most influential variable.
		if out, ok := s.shannonSplit(b, table, dc, vars); ok {
			return out
		}
	}
	out := coverToGates(b, best, vars)
	if negate {
		out = b.Not(out)
	}
	return out
}

// shannonSplit realizes f = MUX(x_v, f|x_v=0, f|x_v=1) on the variable whose
// cofactors differ the most. Returns ok=false when no variable splits (no
// support).
func (s *Synthesizer) shannonSplit(b *logic.Builder, table, dc *tt.Table, vars []logic.NodeID) (logic.NodeID, bool) {
	bestV, bestDiff := -1, -1
	for v := 0; v < table.NumVars(); v++ {
		d := table.Cofactor(v, false).HammingDistance(table.Cofactor(v, true))
		if d > bestDiff {
			bestDiff, bestV = d, v
		}
	}
	if bestV < 0 || bestDiff == 0 {
		return 0, false
	}
	var dc0, dc1 *tt.Table
	if dc != nil {
		dc0 = dc.Cofactor(bestV, false)
		dc1 = dc.Cofactor(bestV, true)
	}
	f0 := s.FromTable(b, table.Cofactor(bestV, false), dc0, vars)
	f1 := s.FromTable(b, table.Cofactor(bestV, true), dc1, vars)
	return b.Mux(vars[bestV], f0, f1), true
}

// gateCost estimates the gates needed to realize a cover as OR-of-ANDs:
// one inverter per distinct negated variable (inverters are shared), a
// (lits-1)-gate AND tree per cube, and a (cubes-1)-gate OR tree.
func gateCost(cv *espresso.Cover) int {
	var negVars uint32
	cost := 0
	for _, c := range cv.Cubes {
		negVars |= c.Neg
		if l := c.NumLiterals(); l > 1 {
			cost += l - 1
		}
	}
	if len(cv.Cubes) > 1 {
		cost += len(cv.Cubes) - 1
	}
	for v := negVars; v != 0; v &= v - 1 {
		cost++
	}
	return cost
}

// constUnderDC reports whether the incompletely specified function can be
// implemented as a constant.
func constUnderDC(on, dc *tt.Table) (isConst, value bool) {
	if dc == nil {
		return on.IsConst()
	}
	care := dc.Not()
	ones := on.And(care).CountOnes()
	if ones == 0 {
		return true, false
	}
	if ones == care.CountOnes() {
		return true, true
	}
	return false, false
}

// minimize returns the memoized cover of (on, dc), minimizing it on a miss.
// The key is the variable count and the ON and don't-care words with the
// bits above 2^n cleared; a nil dc keys as all-zero, which minimizes the
// same.
func (s *Synthesizer) minimize(on, dc *tt.Table) *espresso.Cover {
	n := on.NumVars()
	valid := tt.ValidBits(n)
	k := append(s.key[:0], byte(n))
	for _, w := range on.Words() {
		k = binary.LittleEndian.AppendUint64(k, w&valid)
	}
	if dc != nil {
		for _, w := range dc.Words() {
			k = binary.LittleEndian.AppendUint64(k, w&valid)
		}
	} else {
		for range on.Words() {
			k = binary.LittleEndian.AppendUint64(k, 0)
		}
	}
	s.key = k
	if cv, ok := s.covers[string(k)]; ok {
		return cv
	}
	cv := minimize(on, dc, s.opt)
	s.covers[string(k)] = cv
	return cv
}

func minimize(on, dc *tt.Table, opt Options) *espresso.Cover {
	if opt.Exact && on.NumVars() <= 10 {
		cv, err := espresso.MinimizeExact(on, dc)
		if err == nil {
			return cv
		}
		// Fall back to the heuristic on error.
	}
	return espresso.Minimize(on, dc)
}

// coverToGates lowers a cover to a balanced OR-of-ANDs gate tree.
func coverToGates(b *logic.Builder, cv *espresso.Cover, vars []logic.NodeID) logic.NodeID {
	if len(cv.Cubes) == 0 {
		return b.Const(false)
	}
	terms := make([]logic.NodeID, len(cv.Cubes))
	for i, c := range cv.Cubes {
		var lits []logic.NodeID
		for v := 0; v < cv.NumVars; v++ {
			bit := uint32(1) << uint(v)
			switch {
			case c.Pos&bit != 0:
				lits = append(lits, vars[v])
			case c.Neg&bit != 0:
				lits = append(lits, b.Not(vars[v]))
			}
		}
		terms[i] = b.AndTree(lits)
	}
	return b.OrTree(terms)
}

// CircuitFromMatrix synthesizes a k-input circuit whose m outputs realize
// the columns of the 2^k x m truth matrix. Output names are "y0..".
func CircuitFromMatrix(name string, M *tt.Matrix, opt Options) (*logic.Circuit, error) {
	k, err := matrixVars(M)
	if err != nil {
		return nil, err
	}
	b := logic.NewBuilder(name)
	vars := b.Inputs("x", k)
	s := New(opt)
	for j := 0; j < M.Cols; j++ {
		out := s.FromTable(b, M.Column(j), nil, vars)
		b.Output(fmt.Sprintf("y%d", j), out)
	}
	return b.C, nil
}

// ApproxBlock builds the BLASYS approximate subcircuit for a factorization
// (B, C): a compressor realizing B's columns over k inputs, followed by a
// decompressor combining the f compressor outputs into m outputs with OR
// gates (bmf.Or semiring) or XOR gates (bmf.Xor).
func ApproxBlock(name string, res *bmf.Result, sr bmf.Semiring, opt Options) (*logic.Circuit, error) {
	return New(opt).ApproxBlock(name, res, sr)
}

// ApproxBlock is the package-level ApproxBlock with the Synthesizer's
// options and memo.
func (s *Synthesizer) ApproxBlock(name string, res *bmf.Result, sr bmf.Semiring) (*logic.Circuit, error) {
	k, err := matrixVars(res.B)
	if err != nil {
		return nil, err
	}
	f := res.B.Cols
	m := res.C.Cols
	if res.C.Rows != f {
		return nil, fmt.Errorf("synth: ApproxBlock: B has %d factors but C has %d rows", f, res.C.Rows)
	}
	b := logic.NewBuilder(name)
	vars := b.Inputs("x", k)
	// Compressor: one minimized SOP per factor column of B.
	factors := make([]logic.NodeID, f)
	for i := 0; i < f; i++ {
		factors[i] = s.FromTable(b, res.B.Column(i), nil, vars)
	}
	// Decompressor: output j = OR/XOR of factors i with C[i][j] = 1.
	for j := 0; j < m; j++ {
		var ins []logic.NodeID
		for i := 0; i < f; i++ {
			if res.C.Get(i, j) {
				ins = append(ins, factors[i])
			}
		}
		var out logic.NodeID
		if sr == bmf.Xor {
			out = b.XorTree(ins)
		} else {
			out = b.OrTree(ins)
		}
		b.Output(fmt.Sprintf("y%d", j), out)
	}
	return b.C, nil
}

// ApproxBlockStructural builds the approximate subcircuit for a column-basis
// factorization (bmf.FactorizeColumns): the compressor reuses the accurate
// block's own output cones for the selected columns (dead cones are swept),
// and the decompressor OR/XOR-combines them per C. The result's area can
// therefore only shrink relative to the accurate block (plus the small
// decompressor), unlike general truth-table resynthesis.
func ApproxBlockStructural(name string, accurate *logic.Circuit, res *bmf.ColumnResult, sr bmf.Semiring) (*logic.Circuit, error) {
	m := res.C.Cols
	f := res.C.Rows
	if len(res.Columns) != f {
		return nil, fmt.Errorf("synth: ApproxBlockStructural: %d selected columns for %d factors", len(res.Columns), f)
	}
	if len(accurate.Outputs) != m {
		return nil, fmt.Errorf("synth: ApproxBlockStructural: accurate block has %d outputs, C has %d columns", len(accurate.Outputs), m)
	}
	b := logic.NewBuilder(name)
	env := make([]logic.NodeID, len(accurate.Inputs))
	for i := range env {
		env[i] = b.Input(fmt.Sprintf("x%d", i))
	}
	outs := logic.Instantiate(b, accurate, env)
	factors := make([]logic.NodeID, f)
	for i, col := range res.Columns {
		if col < 0 || col >= m {
			return nil, fmt.Errorf("synth: ApproxBlockStructural: selected column %d out of range", col)
		}
		factors[i] = outs[col]
	}
	for j := 0; j < m; j++ {
		var ins []logic.NodeID
		for i := 0; i < f; i++ {
			if res.C.Get(i, j) {
				ins = append(ins, factors[i])
			}
		}
		var out logic.NodeID
		if sr == bmf.Xor {
			out = b.XorTree(ins)
		} else {
			out = b.OrTree(ins)
		}
		b.Output(fmt.Sprintf("y%d", j), out)
	}
	return logic.Sweep(b.C), nil
}

func matrixVars(M *tt.Matrix) (int, error) {
	k := 0
	for 1<<uint(k) < M.Rows {
		k++
	}
	if 1<<uint(k) != M.Rows {
		return 0, fmt.Errorf("synth: matrix has %d rows, not a power of two", M.Rows)
	}
	return k, nil
}
