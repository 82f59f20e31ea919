// Package espresso implements two-level (sum-of-products) logic minimization
// in the style of the classic ESPRESSO heuristic: EXPAND against the OFF-set,
// IRREDUNDANT cover extraction, and REDUCE, iterated to a fixed point. An
// exact Quine–McCluskey mode is provided for small functions and used by the
// test suite to validate the heuristic's covers.
//
// Functions are given as truth tables (internal/tt.Table), which bounds the
// input count to what BLASYS needs (subcircuits of ≤ ~12 inputs) and lets all
// containment checks run exactly on packed bitvectors.
package espresso

import (
	"fmt"
	"math/bits"
	"strings"

	"github.com/blasys-go/blasys/internal/tt"
)

// Cube is a product term over up to 32 variables. For variable i:
// pos bit i set   -> literal x_i appears
// neg bit i set   -> literal ¬x_i appears
// neither         -> variable unconstrained (don't care)
// A cube with both bits set for some variable is empty (contradiction);
// such cubes are never stored in covers.
type Cube struct {
	Pos, Neg uint32
}

// FullCube is the universal cube (no literals; covers every minterm).
var FullCube = Cube{}

// NumLiterals counts literals in the cube.
func (c Cube) NumLiterals() int {
	return bits.OnesCount32(c.Pos) + bits.OnesCount32(c.Neg)
}

// Covers reports whether the cube covers minterm r (variable i = bit i of r).
func (c Cube) Covers(r uint32) bool {
	return c.Pos&^r == 0 && c.Neg&r == 0
}

// Contains reports whether c covers every minterm that d covers
// (c is a superset cube: its literal set is a subset of d's).
func (c Cube) Contains(d Cube) bool {
	return c.Pos&^d.Pos == 0 && c.Neg&^d.Neg == 0
}

// WithLiteral returns the cube with variable v constrained to the phase.
func (c Cube) WithLiteral(v int, phase bool) Cube {
	if phase {
		c.Pos |= 1 << uint(v)
	} else {
		c.Neg |= 1 << uint(v)
	}
	return c
}

// DropVar returns the cube with variable v unconstrained.
func (c Cube) DropVar(v int) Cube {
	mask := ^(uint32(1) << uint(v))
	c.Pos &= mask
	c.Neg &= mask
	return c
}

// MintermCube returns the full-literal cube for minterm r over nvars.
func MintermCube(nvars int, r uint32) Cube {
	mask := uint32(1)<<uint(nvars) - 1
	return Cube{Pos: r & mask, Neg: ^r & mask}
}

// String renders the cube in PLA notation over nvars variables
// (variable 0 leftmost): '1' = positive literal, '0' = negative, '-' = free.
func (c Cube) PLA(nvars int) string {
	var b strings.Builder
	for v := 0; v < nvars; v++ {
		switch {
		case c.Pos&(1<<uint(v)) != 0:
			b.WriteByte('1')
		case c.Neg&(1<<uint(v)) != 0:
			b.WriteByte('0')
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

// Bitvec returns the coverage of the cube as a truth table over nvars
// variables: entry r is 1 iff the cube covers r. Computed a word at a time
// from the cube's word mask.
func (c Cube) Bitvec(nvars int) *tt.Table {
	t := tt.NewTable(nvars)
	m := c.wordMask(nvars)
	words := t.Words()
	for wi := range words {
		words[wi] = m.at(wi)
	}
	return t
}

// wordMask is a cube's coverage of a truth table in word-level form. Word wi
// of the coverage is low when wi's bits agree with the cube's literals on
// variables 6 and up (hiPos must be set, hiNeg clear), and 0 otherwise: the
// variables below 6 index bits within a word, the rest index words.
type wordMask struct {
	low          uint64
	hiPos, hiNeg int
}

// wordMask returns the cube's word mask over nvars variables. low is the AND
// of the cube's literal patterns on variables 0..5, so for nvars < 6 it may
// have bits set above 2^nvars; AND it with masked words to count coverage.
// A variable with both literals (a contradictory cube, never stored in a
// cover) constrains as positive.
func (c Cube) wordMask(nvars int) wordMask {
	vars := uint32(1)<<uint(nvars) - 1
	pos := c.Pos & vars
	neg := c.Neg &^ c.Pos & vars
	low := ^uint64(0)
	for v := 0; v < 6; v++ {
		switch {
		case pos>>uint(v)&1 != 0:
			low &= tt.VarWord(v)
		case neg>>uint(v)&1 != 0:
			low &^= tt.VarWord(v)
		}
	}
	return wordMask{low: low, hiPos: int(pos >> 6), hiNeg: int(neg >> 6)}
}

// at returns the coverage word wi.
func (m wordMask) at(wi int) uint64 {
	if wi&m.hiPos != m.hiPos || wi&m.hiNeg != 0 {
		return 0
	}
	return m.low
}

// Cover is a set of cubes interpreted as their OR.
type Cover struct {
	NumVars int
	Cubes   []Cube
}

// Bitvec returns the union coverage of all cubes.
func (cv *Cover) Bitvec() *tt.Table {
	t := tt.NewTable(cv.NumVars)
	words := t.Words()
	for _, c := range cv.Cubes {
		m := c.wordMask(cv.NumVars)
		for wi := range words {
			words[wi] |= m.at(wi)
		}
	}
	return t
}

// NumLiterals sums literal counts over all cubes (the standard two-level
// cost proxy: one literal ≈ one AND-gate input).
func (cv *Cover) NumLiterals() int {
	n := 0
	for _, c := range cv.Cubes {
		n += c.NumLiterals()
	}
	return n
}

// Cost is the (cubes, literals) lexicographic minimization objective.
func (cv *Cover) Cost() (cubes, literals int) { return len(cv.Cubes), cv.NumLiterals() }

// String renders the cover in PLA form, one cube per line.
func (cv *Cover) String() string {
	lines := make([]string, len(cv.Cubes))
	for i, c := range cv.Cubes {
		lines[i] = c.PLA(cv.NumVars)
	}
	return strings.Join(lines, "\n")
}

// Verify checks that the cover equals on exactly the ON-set and covers no
// OFF-set minterm, treating dc as don't-care (may be nil).
func (cv *Cover) Verify(on, dc *tt.Table) error {
	cov := cv.Bitvec()
	for r := 0; r < on.Len(); r++ {
		inOn := on.Get(r)
		inDc := dc != nil && dc.Get(r)
		c := cov.Get(r)
		if inOn && !inDc && !c {
			return fmt.Errorf("espresso: minterm %d in ON-set not covered", r)
		}
		if !inOn && !inDc && c {
			return fmt.Errorf("espresso: minterm %d in OFF-set covered", r)
		}
	}
	return nil
}
