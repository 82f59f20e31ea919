package espresso

// Reference implementations: the original table-at-a-time espresso and ISOP,
// with entry-at-a-time cofactors, kept as oracles for the word-level
// kernels. Every cover they return must equal the production one exactly,
// cube for cube and in order.

import (
	"fmt"
	"sort"

	"github.com/blasys-go/blasys/internal/tt"
)

// minimizeRef is the original Minimize.
func minimizeRef(on, dc *tt.Table) *Cover {
	nvars := on.NumVars()
	if nvars > 20 {
		panic(fmt.Sprintf("espresso: Minimize on %d variables (max 20)", nvars))
	}
	if dc != nil && dc.NumVars() != nvars {
		panic("espresso: ON-set and DC-set variable counts differ")
	}
	maxIter := 3

	care := on.Clone()
	if dc != nil {
		// Minterms that must not be covered: NOT(on OR dc).
		care = on.Or(dc)
	}
	off := care.Not()

	// Degenerate cases.
	if on.CountOnes() == 0 {
		return &Cover{NumVars: nvars}
	}
	if off.CountOnes() == 0 {
		return &Cover{NumVars: nvars, Cubes: []Cube{FullCube}}
	}

	st := &refState{nvars: nvars, on: on, off: off}
	var cover *Cover
	if on.CountOnes() > 64 {
		// Large ON-sets: seed with the (already irredundant) ISOP cover
		// instead of one cube per minterm.
		cover = isopRef(on, dc)
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

type refState struct {
	nvars int
	on    *tt.Table // minterms that must be covered
	off   *tt.Table // minterms that must not be covered
}

// mintermCover builds the initial cover of single-minterm cubes.
func (st *refState) mintermCover() *Cover {
	cv := &Cover{NumVars: st.nvars}
	for r := 0; r < st.on.Len(); r++ {
		if st.on.Get(r) {
			cv.Cubes = append(cv.Cubes, MintermCube(st.nvars, uint32(r)))
		}
	}
	return cv
}

// intersectsOff reports whether the cube covers any OFF minterm.
func (st *refState) intersectsOff(c Cube) bool {
	return bitvecRef(c, st.nvars).And(st.off).CountOnes() != 0
}

// expand greedily raises each cube (drops literals) while it stays disjoint
// from the OFF-set, then removes cubes contained in other cubes. Cubes are
// processed largest-first so big primes absorb small ones early.
func (st *refState) expand(cv *Cover) {
	sort.Slice(cv.Cubes, func(i, j int) bool {
		return cv.Cubes[i].NumLiterals() < cv.Cubes[j].NumLiterals()
	})
	for i := range cv.Cubes {
		cv.Cubes[i] = st.expandCube(cv.Cubes[i])
	}
	cv.Cubes = removeContainedRef(cv.Cubes)
}

// expandCube drops literals one at a time. The drop order prefers literals
// whose removal frees the most ON-set minterms (a cheap proxy for ESPRESSO's
// blocking-matrix heuristic).
func (st *refState) expandCube(c Cube) Cube {
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
			d := c.DropVar(v)
			if !st.intersectsOff(d) {
				g := bitvecRef(d, st.nvars).And(st.on).CountOnes()
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

func removeContainedRef(cubes []Cube) []Cube {
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
// essential cubes first, then greedy set cover on the remainder.
func (st *refState) irredundant(cv *Cover) {
	n := len(cv.Cubes)
	if n <= 1 {
		return
	}
	covs := make([]*tt.Table, n)
	for i, c := range cv.Cubes {
		covs[i] = bitvecRef(c, st.nvars).And(st.on)
	}
	// Count how many cubes cover each ON minterm.
	counts := make([]int, st.on.Len())
	for _, cov := range covs {
		for r := 0; r < st.on.Len(); r++ {
			if cov.Get(r) {
				counts[r]++
			}
		}
	}
	keep := make([]bool, n)
	covered := tt.NewTable(st.nvars)
	for i, cov := range covs {
		for r := 0; r < st.on.Len(); r++ {
			if cov.Get(r) && counts[r] == 1 {
				keep[i] = true
				covered = covered.Or(cov)
				break
			}
		}
	}
	// Greedy cover of the rest.
	for {
		remaining := st.on.And(covered.Not())
		if remaining.CountOnes() == 0 {
			break
		}
		bestI, bestGain := -1, 0
		for i := range covs {
			if keep[i] {
				continue
			}
			g := covs[i].And(remaining).CountOnes()
			if g > bestGain {
				bestGain, bestI = g, i
			}
		}
		if bestI == -1 {
			// Should not happen: the union of all cubes covers ON.
			panic("espresso: irredundant could not complete cover")
		}
		keep[bestI] = true
		covered = covered.Or(covs[bestI])
	}
	out := cv.Cubes[:0]
	for i, k := range keep {
		if k {
			out = append(out, cv.Cubes[i])
		}
	}
	cv.Cubes = out
}

// reduce shrinks cubes one at a time to the supercube of the ON minterms not
// covered by the rest of the (partially reduced) cover, giving the next
// expand pass room to move toward different primes. Processing sequentially
// against the current cover state preserves the covering invariant.
func (st *refState) reduce(cv *Cover) {
	n := len(cv.Cubes)
	covs := make([]*tt.Table, n)
	for i, c := range cv.Cubes {
		covs[i] = bitvecRef(c, st.nvars).And(st.on)
	}
	// suffix[i] = OR of covs[i..n-1] in their original state.
	suffix := make([]*tt.Table, n+1)
	suffix[n] = tt.NewTable(st.nvars)
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1].Or(covs[i])
	}
	prefix := tt.NewTable(st.nvars) // OR of already-reduced cubes
	var out []Cube
	for i := range cv.Cubes {
		others := prefix.Or(suffix[i+1])
		needed := covs[i].And(others.Not())
		if needed.CountOnes() == 0 {
			continue // fully redundant given the current cover
		}
		red := supercubeRef(st.nvars, needed)
		out = append(out, red)
		prefix = prefix.Or(bitvecRef(red, st.nvars).And(st.on))
	}
	cv.Cubes = out
}

// supercubeRef returns the smallest cube covering every minterm set in t.
func supercubeRef(nvars int, t *tt.Table) Cube {
	var c Cube
	for v := 0; v < nvars; v++ {
		xv := tt.Var(nvars, v)
		if t.And(xv.Not()).CountOnes() == 0 {
			c.Pos |= 1 << uint(v) // all minterms have bit v = 1
		} else if t.And(xv).CountOnes() == 0 {
			c.Neg |= 1 << uint(v) // all minterms have bit v = 0
		}
	}
	return c
}

// isopRef is the original ISOP.
func isopRef(on, dc *tt.Table) *Cover {
	nvars := on.NumVars()
	upper := on.Clone()
	if dc != nil {
		upper = on.Or(dc)
	}
	cv := &Cover{NumVars: nvars}
	cubes, _ := isopRecRef(on, upper, nvars-1)
	cv.Cubes = cubes
	return cv
}

// isopRecRef returns a cover of (lower, upper) using variables [0, v] and the
// coverage table of the returned cover.
func isopRecRef(lower, upper *tt.Table, v int) ([]Cube, *tt.Table) {
	nvars := lower.NumVars()
	if lower.CountOnes() == 0 {
		return nil, tt.NewTable(nvars)
	}
	if isConstOneRef(upper) {
		// upper is the constant-1 function: the full cube suffices.
		return []Cube{FullCube}, tt.NewTable(nvars).Not()
	}
	// Find the top variable that lower or upper actually depends on.
	for v >= 0 && !dependsOnRef(lower, v) && !dependsOnRef(upper, v) {
		v--
	}
	if v < 0 {
		// No dependence and lower nonzero: upper must be constant 1,
		// handled above; reaching here means lower ⊆ upper = 1.
		return []Cube{FullCube}, tt.NewTable(nvars).Not()
	}

	l0, l1 := cofactorRef(lower, v, false), cofactorRef(lower, v, true)
	u0, u1 := cofactorRef(upper, v, false), cofactorRef(upper, v, true)

	// Cubes that must contain literal ¬x_v: cover of (l0 \ u1, u0).
	c0, cov0 := isopRecRef(l0.And(u1.Not()), u0, v-1)
	// Cubes that must contain literal x_v: cover of (l1 \ u0, u1).
	c1, cov1 := isopRecRef(l1.And(u0.Not()), u1, v-1)
	// Remaining minterms, coverable without x_v.
	lr := l0.And(cov0.Not()).Or(l1.And(cov1.Not()))
	cd, covd := isopRecRef(lr, u0.And(u1), v-1)

	xv := tt.Var(nvars, v)
	var out []Cube
	for _, c := range c0 {
		out = append(out, c.WithLiteral(v, false))
	}
	for _, c := range c1 {
		out = append(out, c.WithLiteral(v, true))
	}
	out = append(out, cd...)
	cover := cov0.And(xv.Not()).Or(cov1.And(xv)).Or(covd)
	return out, cover
}

// isConstOneRef reports whether t is the constant-1 function.
func isConstOneRef(t *tt.Table) bool {
	return t.CountOnes() == t.Len()
}

// bitvecRef is the original Cube.Bitvec: one table per literal.
func bitvecRef(c Cube, nvars int) *tt.Table {
	t := tt.NewTable(nvars)
	// Start from all-ones.
	t = t.Not()
	for v := 0; v < nvars; v++ {
		bit := uint32(1) << uint(v)
		if c.Pos&bit != 0 {
			t = t.And(tt.Var(nvars, v))
		} else if c.Neg&bit != 0 {
			t = t.And(tt.Var(nvars, v).Not())
		}
	}
	return t
}

func cofactorRef(t *tt.Table, i int, val bool) *tt.Table {
	c := tt.NewTable(t.NumVars())
	for r := 0; r < t.Len(); r++ {
		src := r
		if val {
			src = r | (1 << uint(i))
		} else {
			src = r &^ (1 << uint(i))
		}
		c.Set(r, t.Get(src))
	}
	return c
}

func dependsOnRef(t *tt.Table, i int) bool {
	return !cofactorRef(t, i, false).Equal(cofactorRef(t, i, true))
}
