// Package techmap maps gate-level netlists onto a standard-cell library and
// reports physical design metrics (area, delay, power). It stands in for the
// paper's Synopsys Design Compiler + industrial 65 nm library flow.
//
// The mapper is structural and cut-based, the textbook approach used by
// industrial and academic mappers alike:
//
//  1. The input netlist is converted to an AND-inverter graph (AIG) with
//     structural hashing.
//  2. For every AIG node, all 4-feasible cuts are enumerated (priority cuts,
//     bounded per node), and each cut's local function is computed as a
//     16-bit truth table over its leaves.
//  3. Cut functions are matched against library cells under all input
//     permutations (permuted cell tables are precomputed into a lookup
//     table); complemented matches are allowed at the cost of an inverter.
//  4. A topological dynamic program selects the minimum area-flow match per
//     node, and a cover is extracted from the primary outputs.
//
// Metrics follow the conventions of the BLASYS paper's evaluation: area is
// the cell-area sum (µm²), delay the topological critical path (ns), and
// power the sum of switching power (toggle rates from Monte-Carlo
// simulation, one switch-energy per cell) and leakage.
package techmap

import (
	"fmt"
	"math/bits"
)

// Cell is one standard cell: a single-output combinational gate described by
// its truth table over NumInputs ordered input pins.
type Cell struct {
	Name      string
	NumInputs int
	// TT is the cell function: bit r gives the output for input assignment
	// r, with pin i at bit i of r. Only the low 2^NumInputs bits are used.
	TT uint16
	// Area in µm².
	Area float64
	// Delay is the pin-to-output intrinsic delay in ns.
	Delay float64
	// Energy is the switching energy per output transition in fJ.
	Energy float64
	// Leakage power in nW.
	Leakage float64
}

// Library is a set of cells plus the index structures used for boolean
// matching. Build instances with NewLibrary so the match tables exist.
type Library struct {
	Name  string
	Cells []Cell

	// match maps (numInputs, permuted truth table) to the cheapest cell
	// realizing it, with the permutation applied to cut leaves.
	match map[matchKey]matchEntry
	inv   int // index of the inverter cell
	buf   int // index of the buffer cell (or -1)
	tie0  int // index of the constant-0 cell
	tie1  int // index of the constant-1 cell
}

type matchKey struct {
	n  uint8
	tt uint16
}

type matchEntry struct {
	cell int
	// perm[cutLeafPos] = cell pin index receiving that leaf.
	perm [4]uint8
}

// NewLibrary indexes the cell list for matching. It requires an inverter
// (the 1-input cell with TT 0b01) and constant cells named here as tie
// cells; DefaultLibrary provides a complete set.
func NewLibrary(name string, cells []Cell) (*Library, error) {
	lib := &Library{Name: name, Cells: cells, match: make(map[matchKey]matchEntry), inv: -1, buf: -1, tie0: -1, tie1: -1}
	for i, c := range cells {
		if c.NumInputs < 0 || c.NumInputs > 4 {
			return nil, fmt.Errorf("techmap: cell %s has %d inputs (max 4)", c.Name, c.NumInputs)
		}
		mask := uint16(1)<<(1<<uint(c.NumInputs)) - 1
		tt := c.TT & mask
		switch {
		case c.NumInputs == 0 && tt == 0:
			lib.tie0 = i
		case c.NumInputs == 0 && tt == 1:
			lib.tie1 = i
		case c.NumInputs == 1 && tt == 0b01:
			if lib.inv == -1 || c.Area < cells[lib.inv].Area {
				lib.inv = i
			}
		case c.NumInputs == 1 && tt == 0b10:
			if lib.buf == -1 || c.Area < cells[lib.buf].Area {
				lib.buf = i
			}
		}
		lib.indexCell(i)
	}
	if lib.inv == -1 {
		return nil, fmt.Errorf("techmap: library %s has no inverter", name)
	}
	if lib.tie0 == -1 || lib.tie1 == -1 {
		return nil, fmt.Errorf("techmap: library %s lacks tie cells", name)
	}
	return lib, nil
}

// indexCell inserts every input permutation of the cell function into the
// match table, keeping the cheapest cell per function.
func (lib *Library) indexCell(ci int) {
	c := lib.Cells[ci]
	n := c.NumInputs
	perms := permutations(n)
	for _, p := range perms {
		tt := permuteTT(c.TT, n, p)
		key := matchKey{n: uint8(n), tt: tt}
		if old, ok := lib.match[key]; !ok || c.Area < lib.Cells[old.cell].Area {
			var pa [4]uint8
			copy(pa[:], p)
			lib.match[key] = matchEntry{cell: ci, perm: pa}
		}
	}
}

// permuteTT returns the truth table of f composed with the pin permutation:
// result(r) = tt(apply(p, r)) where leaf i of r drives pin p[i].
func permuteTT(ttab uint16, n int, p []uint8) uint16 {
	var out uint16
	for r := 0; r < 1<<uint(n); r++ {
		// Build the cell-pin assignment corresponding to leaf assignment r.
		var q int
		for leaf := 0; leaf < n; leaf++ {
			if r&(1<<uint(leaf)) != 0 {
				q |= 1 << uint(p[leaf])
			}
		}
		if ttab&(1<<uint(q)) != 0 {
			out |= 1 << uint(r)
		}
	}
	return out
}

func permutations(n int) [][]uint8 {
	base := make([]uint8, n)
	for i := range base {
		base[i] = uint8(i)
	}
	var out [][]uint8
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]uint8(nil), base...))
			return
		}
		for i := k; i < n; i++ {
			base[k], base[i] = base[i], base[k]
			rec(k + 1)
			base[k], base[i] = base[i], base[k]
		}
	}
	rec(0)
	return out
}

// CellByName returns the index of the named cell, or -1.
func (lib *Library) CellByName(name string) int {
	for i, c := range lib.Cells {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// lookup finds the cheapest cell matching the truth table over n cut leaves.
// It returns the entry and whether the match is on the complemented function
// (requiring an output inverter). ok is false if nothing matches.
func (lib *Library) lookup(n int, ttab uint16) (e matchEntry, negated, ok bool) {
	mask := uint16(1)<<(1<<uint(n)) - 1
	if e, found := lib.match[matchKey{uint8(n), ttab & mask}]; found {
		pos := e
		// Check whether the complement is cheaper even with an inverter.
		if ne, nfound := lib.match[matchKey{uint8(n), ^ttab & mask}]; nfound {
			if lib.Cells[ne.cell].Area+lib.Cells[lib.inv].Area < lib.Cells[pos.cell].Area {
				return ne, true, true
			}
		}
		return pos, false, true
	}
	if ne, nfound := lib.match[matchKey{uint8(n), ^ttab & mask}]; nfound {
		return ne, true, true
	}
	return matchEntry{}, false, false
}

// ttSupport returns a bitmask of leaves the n-leaf truth table depends on.
func ttSupport(ttab uint16, n int) uint8 {
	var sup uint8
	for v := 0; v < n; v++ {
		if ttCofactor(ttab, n, v, false) != ttCofactor(ttab, n, v, true) {
			sup |= 1 << uint(v)
		}
	}
	return sup
}

// ttCofactor fixes variable v of an n-variable table, leaving it padded.
func ttCofactor(ttab uint16, n, v int, val bool) uint16 {
	var out uint16
	for r := 0; r < 1<<uint(n); r++ {
		src := r
		if val {
			src |= 1 << uint(v)
		} else {
			src &^= 1 << uint(v)
		}
		if ttab&(1<<uint(src)) != 0 {
			out |= 1 << uint(r)
		}
	}
	return out
}

// ttCompress removes non-support variables, returning the compressed table
// and the new leaf count.
func ttCompress(ttab uint16, n int, sup uint8) (uint16, int) {
	m := bits.OnesCount8(sup)
	if m == n {
		return ttab, n
	}
	var out uint16
	for r := 0; r < 1<<uint(m); r++ {
		// Spread compressed assignment r onto the support positions.
		var q, bit int
		for v := 0; v < n; v++ {
			if sup&(1<<uint(v)) != 0 {
				if r&(1<<uint(bit)) != 0 {
					q |= 1 << uint(v)
				}
				bit++
			}
		}
		if ttab&(1<<uint(q)) != 0 {
			out |= 1 << uint(r)
		}
	}
	return out, m
}

// DefaultLibrary returns the synthetic 65 nm-flavoured library used for all
// experiments. Areas, delays, energies and leakages are representative of a
// low-power 65 nm process (relative cell costs follow typical standard-cell
// datasheets; absolute values are synthetic).
func DefaultLibrary() *Library {
	const (
		u   = 1.08 // one unit of area: minimal inverter footprint, µm²
		ePU = 0.55 // switching energy per unit area, fJ
		lPU = 0.9  // leakage per unit area, nW
	)
	mk := func(name string, n int, ttab uint16, area, delay float64) Cell {
		return Cell{Name: name, NumInputs: n, TT: ttab, Area: area,
			Delay: delay, Energy: area / u * ePU, Leakage: area / u * lPU}
	}
	cells := []Cell{
		mk("TIE0", 0, 0b0, 0.54, 0),
		mk("TIE1", 0, 0b1, 0.54, 0),
		mk("INV", 1, 0b01, 1.08, 0.022),
		mk("BUF", 1, 0b10, 1.44, 0.038),
		mk("NAND2", 2, 0b0111, 1.44, 0.030),
		mk("NOR2", 2, 0b0001, 1.44, 0.034),
		mk("AND2", 2, 0b1000, 1.80, 0.044),
		mk("OR2", 2, 0b1110, 1.80, 0.048),
		mk("XOR2", 2, 0b0110, 2.88, 0.056),
		mk("XNOR2", 2, 0b1001, 2.88, 0.054),
		mk("NAND3", 3, 0b01111111, 1.80, 0.039),
		mk("NOR3", 3, 0b00000001, 1.80, 0.047),
		mk("AND3", 3, 0b10000000, 2.16, 0.052),
		mk("OR3", 3, 0b11111110, 2.16, 0.058),
	}
	// Wider and complex cells are generated from predicates to avoid
	// hand-encoding mistakes in their truth tables.
	gen := func(name string, n int, f func(in []bool) bool, area, delay float64) Cell {
		var ttab uint16
		for r := 0; r < 1<<uint(n); r++ {
			in := make([]bool, n)
			for i := range in {
				in[i] = r&(1<<uint(i)) != 0
			}
			if f(in) {
				ttab |= 1 << uint(r)
			}
		}
		return mk(name, n, ttab, area, delay)
	}
	cells = append(cells,
		gen("AOI21", 3, func(in []bool) bool { return !((in[0] && in[1]) || in[2]) }, 1.80, 0.040),
		gen("OAI21", 3, func(in []bool) bool { return !((in[0] || in[1]) && in[2]) }, 1.80, 0.040),
		gen("AOI22", 4, func(in []bool) bool { return !((in[0] && in[1]) || (in[2] && in[3])) }, 2.16, 0.046),
		gen("OAI22", 4, func(in []bool) bool { return !((in[0] || in[1]) && (in[2] || in[3])) }, 2.16, 0.046),
		gen("MUX2", 3, func(in []bool) bool {
			if in[2] {
				return in[1]
			}
			return in[0]
		}, 2.52, 0.050),
		gen("XOR3", 3, func(in []bool) bool { return in[0] != in[1] != in[2] }, 4.32, 0.088),
		gen("MAJ3", 3, func(in []bool) bool {
			n := 0
			for _, v := range in {
				if v {
					n++
				}
			}
			return n >= 2
		}, 2.52, 0.050),
		gen("NAND4", 4, func(in []bool) bool { return !(in[0] && in[1] && in[2] && in[3]) }, 2.16, 0.048),
		gen("NOR4", 4, func(in []bool) bool { return !(in[0] || in[1] || in[2] || in[3]) }, 2.16, 0.056),
		gen("AND4", 4, func(in []bool) bool { return in[0] && in[1] && in[2] && in[3] }, 2.52, 0.061),
		gen("OR4", 4, func(in []bool) bool { return in[0] || in[1] || in[2] || in[3] }, 2.52, 0.067),
	)
	lib, err := NewLibrary("generic65", cells)
	if err != nil {
		panic("techmap: DefaultLibrary construction failed: " + err.Error())
	}
	return lib
}
