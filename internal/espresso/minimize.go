package espresso

import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/blasys-go/blasys/internal/tt"
)

// maxIter bounds Minimize's EXPAND/IRREDUNDANT/REDUCE iterations.
const maxIter = 3

// Minimize computes a sum-of-products cover of the incompletely specified
// function (on, dc): the cover includes every ON minterm, excludes every OFF
// minterm, and is free to include don't-cares. dc may be nil. The input
// tables must have at most 20 variables (and in practice BLASYS uses ≤ 12).
//
// The result is heuristically minimal in (cube count, literal count). Use
// MinimizeExact for a provably minimum cover of small functions.
func Minimize(on, dc *tt.Table) *Cover {
	nvars := on.NumVars()
	if nvars > 20 {
		panic(fmt.Sprintf("espresso: Minimize on %d variables (max 20)", nvars))
	}
	if dc != nil && dc.NumVars() != nvars {
		panic("espresso: ON-set and DC-set variable counts differ")
	}
	st := newState(on, dc)

	// Degenerate cases.
	onCount := popcount(st.on)
	if onCount == 0 {
		return &Cover{NumVars: nvars}
	}
	if popcount(st.off) == 0 {
		return &Cover{NumVars: nvars, Cubes: []Cube{FullCube}}
	}

	var cover *Cover
	if onCount > 64 {
		// Large ON-sets: seed with the (already irredundant) ISOP cover
		// instead of one cube per minterm.
		cover = ISOP(on, dc)
	} else {
		cover = st.mintermCover()
	}
	st.expand(cover)
	st.irredundant(cover)
	best := cover.clone()
	bestCubes, bestLits := best.Cost()

	for iter := 1; iter < maxIter; iter++ {
		st.reduce(cover)
		st.expand(cover)
		st.irredundant(cover)
		c, l := cover.Cost()
		if c < bestCubes || (c == bestCubes && l < bestLits) {
			best = cover.clone()
			bestCubes, bestLits = c, l
		} else {
			break
		}
	}
	return best
}

// state holds the function being minimized as packed words, with the bits
// above 2^nvars cleared (for nvars < 6), so that every coverage test is an
// AND of a cube's word mask against them.
type state struct {
	nvars int
	on    []uint64 // minterms that must be covered
	off   []uint64 // minterms that must not be covered
}

func newState(on, dc *tt.Table) *state {
	ow := on.Words()
	st := &state{nvars: on.NumVars(), on: make([]uint64, len(ow)), off: make([]uint64, len(ow))}
	valid := tt.ValidBits(st.nvars)
	for i, x := range ow {
		care := x
		if dc != nil {
			care |= dc.Words()[i]
		}
		st.on[i], st.off[i] = x&valid, ^care&valid
	}
	return st
}

func popcount(words []uint64) int {
	n := 0
	for _, x := range words {
		n += bits.OnesCount64(x)
	}
	return n
}

// coverWords writes the cube's coverage of the ON-set into dst.
func (st *state) coverWords(dst []uint64, c Cube) {
	m := c.wordMask(st.nvars)
	for wi, x := range st.on {
		dst[wi] = m.at(wi) & x
	}
}

func (cv *Cover) clone() *Cover {
	return &Cover{NumVars: cv.NumVars, Cubes: append([]Cube(nil), cv.Cubes...)}
}

// mintermCover builds the initial cover of single-minterm cubes.
func (st *state) mintermCover() *Cover {
	cv := &Cover{NumVars: st.nvars}
	for wi, x := range st.on {
		for ; x != 0; x &= x - 1 {
			r := wi<<6 | bits.TrailingZeros64(x)
			cv.Cubes = append(cv.Cubes, MintermCube(st.nvars, uint32(r)))
		}
	}
	return cv
}

// expandGain reports whether the cube avoids the OFF-set and, if so, how
// many ON minterms it covers.
func (st *state) expandGain(c Cube) (gain int, ok bool) {
	m := c.wordMask(st.nvars)
	for wi, x := range st.off {
		if m.at(wi)&x != 0 {
			return 0, false
		}
	}
	for wi, x := range st.on {
		gain += bits.OnesCount64(m.at(wi) & x)
	}
	return gain, true
}

// expand greedily raises each cube (drops literals) while it stays disjoint
// from the OFF-set, then removes cubes contained in other cubes. Cubes are
// processed largest-first so big primes absorb small ones early.
func (st *state) expand(cv *Cover) {
	sort.Slice(cv.Cubes, func(i, j int) bool {
		return cv.Cubes[i].NumLiterals() < cv.Cubes[j].NumLiterals()
	})
	for i := range cv.Cubes {
		cv.Cubes[i] = st.expandCube(cv.Cubes[i])
	}
	cv.Cubes = removeContained(cv.Cubes)
}

// expandCube drops literals one at a time. The drop order prefers literals
// whose removal frees the most ON-set minterms (a cheap proxy for ESPRESSO's
// blocking-matrix heuristic).
func (st *state) expandCube(c Cube) Cube {
	for {
		type cand struct {
			v    int
			gain int
		}
		var cands []cand
		for v := 0; v < st.nvars; v++ {
			bit := uint32(1) << uint(v)
			if c.Pos&bit == 0 && c.Neg&bit == 0 {
				continue
			}
			if g, ok := st.expandGain(c.DropVar(v)); ok {
				cands = append(cands, cand{v, g})
			}
		}
		if len(cands) == 0 {
			return c
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].gain > cands[j].gain })
		c = c.DropVar(cands[0].v)
	}
}

func removeContained(cubes []Cube) []Cube {
	var out []Cube
	for i, c := range cubes {
		contained := false
		for j, d := range cubes {
			if i == j {
				continue
			}
			if d.Contains(c) && (!c.Contains(d) || j < i) {
				contained = true
				break
			}
		}
		if !contained {
			out = append(out, c)
		}
	}
	return out
}

// irredundant extracts a small subcover that still covers the ON-set:
// essential cubes first, then greedy set cover on the remainder. A cube is
// essential when it covers an ON minterm no other cube covers; "seen once"
// and "seen twice" accumulators find those minterms a word at a time.
func (st *state) irredundant(cv *Cover) {
	n := len(cv.Cubes)
	if n <= 1 {
		return
	}
	nw := len(st.on)
	covs := make([]uint64, n*nw)
	once := make([]uint64, nw)
	twice := make([]uint64, nw)
	for i, c := range cv.Cubes {
		cov := covs[i*nw : (i+1)*nw]
		st.coverWords(cov, c)
		for wi, x := range cov {
			twice[wi] |= once[wi] & x
			once[wi] |= x
		}
	}
	keep := make([]bool, n)
	covered := make([]uint64, nw)
	for i := range cv.Cubes {
		cov := covs[i*nw : (i+1)*nw]
		for wi, x := range cov {
			if x&once[wi]&^twice[wi] != 0 {
				keep[i] = true
				orInto(covered, cov)
				break
			}
		}
	}
	// Greedy cover of the rest.
	remaining := make([]uint64, nw)
	for {
		for wi, x := range st.on {
			remaining[wi] = x &^ covered[wi]
		}
		if isZero(remaining) {
			break
		}
		bestI, bestGain := -1, 0
		for i := range cv.Cubes {
			if keep[i] {
				continue
			}
			g := 0
			for wi, x := range covs[i*nw : (i+1)*nw] {
				g += bits.OnesCount64(x & remaining[wi])
			}
			if g > bestGain {
				bestGain, bestI = g, i
			}
		}
		if bestI == -1 {
			// Should not happen: the union of all cubes covers ON.
			panic("espresso: irredundant could not complete cover")
		}
		keep[bestI] = true
		orInto(covered, covs[bestI*nw:(bestI+1)*nw])
	}
	out := cv.Cubes[:0]
	for i, k := range keep {
		if k {
			out = append(out, cv.Cubes[i])
		}
	}
	cv.Cubes = out
}

func orInto(dst, src []uint64) {
	for i, x := range src {
		dst[i] |= x
	}
}

// reduce shrinks cubes one at a time to the supercube of the ON minterms not
// covered by the rest of the (partially reduced) cover, giving the next
// expand pass room to move toward different primes. Processing sequentially
// against the current cover state preserves the covering invariant.
func (st *state) reduce(cv *Cover) {
	n := len(cv.Cubes)
	nw := len(st.on)
	covs := make([]uint64, n*nw)
	for i, c := range cv.Cubes {
		st.coverWords(covs[i*nw:(i+1)*nw], c)
	}
	// suffix[i] = OR of covs[i..n-1] in their original state.
	suffix := make([]uint64, (n+1)*nw)
	for i := n - 1; i >= 0; i-- {
		for wi := 0; wi < nw; wi++ {
			suffix[i*nw+wi] = suffix[(i+1)*nw+wi] | covs[i*nw+wi]
		}
	}
	prefix := make([]uint64, nw) // OR of already-reduced cubes
	needed := make([]uint64, nw)
	red := make([]uint64, nw)
	var out []Cube
	for i := range cv.Cubes {
		for wi := range needed {
			needed[wi] = covs[i*nw+wi] &^ (prefix[wi] | suffix[(i+1)*nw+wi])
		}
		if isZero(needed) {
			continue // fully redundant given the current cover
		}
		c := supercube(st.nvars, needed)
		out = append(out, c)
		st.coverWords(red, c)
		orInto(prefix, red)
	}
	cv.Cubes = out
}

// supercube returns the smallest cube covering every minterm set in the
// words (bits above 2^nvars clear). Variable v < 6 is fixed when the OR of
// the words has no minterm with the other value of v; variable v >= 6 when
// the indices of the non-zero words all agree on bit v-6.
func supercube(nvars int, words []uint64) Cube {
	var orW uint64
	andIdx, orIdx := -1, 0
	for wi, x := range words {
		if x != 0 {
			orW |= x
			andIdx &= wi
			orIdx |= wi
		}
	}
	var c Cube
	for v := 0; v < nvars; v++ {
		var all1, all0 bool
		if v < 6 {
			all1 = orW&^tt.VarWord(v) == 0
			all0 = orW&tt.VarWord(v) == 0
		} else {
			b := 1 << uint(v-6)
			all1 = andIdx&b != 0
			all0 = orIdx&b == 0
		}
		if all1 {
			c.Pos |= 1 << uint(v) // all minterms have bit v = 1
		} else if all0 {
			c.Neg |= 1 << uint(v) // all minterms have bit v = 0
		}
	}
	return c
}
