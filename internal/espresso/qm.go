package espresso

import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/blasys-go/blasys/internal/tt"
)

// MinimizeExact computes a minimum-cube (ties broken by literal count) cover
// of the incompletely specified function (on, dc) using Quine–McCluskey
// prime generation followed by exact branch-and-bound unate covering. It is
// exponential and restricted to at most 10 variables; it exists as a quality
// oracle for Minimize and for the tiny functions in the illustrative
// experiments (paper Figure 3).
func MinimizeExact(on, dc *tt.Table) (*Cover, error) {
	nvars := on.NumVars()
	if nvars > 10 {
		return nil, fmt.Errorf("espresso: MinimizeExact on %d variables (max 10)", nvars)
	}
	if dc != nil && dc.NumVars() != nvars {
		return nil, fmt.Errorf("espresso: ON-set and DC-set variable counts differ")
	}
	if on.CountOnes() == 0 {
		return &Cover{NumVars: nvars}, nil
	}
	care := on.Clone()
	if dc != nil {
		care = on.Or(dc)
	}
	if care.CountOnes() == care.Len() {
		return &Cover{NumVars: nvars, Cubes: []Cube{FullCube}}, nil
	}

	primes := primeImplicants(nvars, care)

	// Build the covering problem: each ON minterm must be covered by some
	// prime (don't-cares need no coverage).
	var onMinterms []int
	for r := 0; r < on.Len(); r++ {
		if on.Get(r) {
			onMinterms = append(onMinterms, r)
		}
	}
	coverSets := make([][]int, len(primes)) // prime -> indices into onMinterms
	colCover := make([][]int, len(onMinterms))
	for pi, p := range primes {
		for mi, r := range onMinterms {
			if p.Covers(uint32(r)) {
				coverSets[pi] = append(coverSets[pi], mi)
				colCover[mi] = append(colCover[mi], pi)
			}
		}
	}
	sel := exactCover(len(onMinterms), coverSets, colCover, primes)
	cv := &Cover{NumVars: nvars}
	for _, pi := range sel {
		cv.Cubes = append(cv.Cubes, primes[pi])
	}
	return cv, nil
}

// primeImplicants generates all prime implicants of the care function via
// iterative cube merging (classic QM, with cube dedup at each level). The
// merging ranges over maps, so the primes are sorted by (Pos, Neg) before
// they are returned: the covering steps break ties by prime index, and an
// unsorted list would make the chosen cover vary from call to call.
func primeImplicants(nvars int, care *tt.Table) []Cube {
	cur := make(map[Cube]bool)
	for r := 0; r < care.Len(); r++ {
		if care.Get(r) {
			cur[MintermCube(nvars, uint32(r))] = false // value: merged flag
		}
	}
	var primes []Cube
	for len(cur) > 0 {
		next := make(map[Cube]bool)
		keys := make([]Cube, 0, len(cur))
		for c := range cur {
			keys = append(keys, c)
		}
		merged := make(map[Cube]bool, len(cur))
		for i := 0; i < len(keys); i++ {
			for j := i + 1; j < len(keys); j++ {
				a, b := keys[i], keys[j]
				// Mergeable iff same free variables and exactly one
				// literal differs in phase.
				if a.Pos|a.Neg != b.Pos|b.Neg {
					continue
				}
				diff := a.Pos ^ b.Pos
				if bits.OnesCount32(diff) != 1 || a.Neg^b.Neg != diff {
					continue
				}
				v := bits.TrailingZeros32(diff)
				next[a.DropVar(v)] = false
				merged[a] = true
				merged[b] = true
			}
		}
		for c := range cur {
			if !merged[c] {
				primes = append(primes, c)
			}
		}
		cur = next
	}
	primes = dedupCubes(primes)
	sort.Slice(primes, func(i, j int) bool {
		if primes[i].Pos != primes[j].Pos {
			return primes[i].Pos < primes[j].Pos
		}
		return primes[i].Neg < primes[j].Neg
	})
	return primes
}

func dedupCubes(cs []Cube) []Cube {
	seen := make(map[Cube]bool, len(cs))
	out := cs[:0]
	for _, c := range cs {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// exactCover solves the unate covering problem with branch and bound:
// minimize selected prime count, ties by total literals. Columns are ON
// minterms, rows are primes.
func exactCover(nCols int, coverSets [][]int, colCover [][]int, primes []Cube) []int {
	// Essential rows first: columns covered by exactly one prime.
	selected := make([]bool, len(primes))
	covered := make([]bool, nCols)
	var essential []int
	for c := 0; c < nCols; c++ {
		if len(colCover[c]) == 1 {
			p := colCover[c][0]
			if !selected[p] {
				selected[p] = true
				essential = append(essential, p)
				for _, cc := range coverSets[p] {
					covered[cc] = true
				}
			}
		}
	}
	var remaining []int
	for c := 0; c < nCols; c++ {
		if !covered[c] {
			remaining = append(remaining, c)
		}
	}
	if len(remaining) == 0 {
		return essential
	}

	// Branch and bound over the remaining columns/primes.
	bestSel := greedySeed(remaining, coverSets, colCover, selected)
	bestCost := coverCost(append(append([]int(nil), essential...), bestSel...), primes)
	var cur []int
	var search func(rem []int)
	search = func(rem []int) {
		if len(rem) == 0 {
			cand := append(append([]int(nil), essential...), cur...)
			if c := coverCost(cand, primes); less(c, bestCost) {
				bestCost = c
				bestSel = append([]int(nil), cur...)
			}
			return
		}
		if len(cur)+len(essential)+1 > bestCost.cubes {
			return // bound: even one more cube exceeds the best
		}
		// Branch on the hardest column (fewest covering primes).
		col := rem[0]
		for _, c := range rem {
			if len(colCover[c]) < len(colCover[col]) {
				col = c
			}
		}
		for _, p := range colCover[col] {
			cur = append(cur, p)
			// Remaining columns are those not covered by p.
			cov := make(map[int]bool, len(coverSets[p]))
			for _, c := range coverSets[p] {
				cov[c] = true
			}
			var nrem []int
			for _, c := range rem {
				if !cov[c] {
					nrem = append(nrem, c)
				}
			}
			search(nrem)
			cur = cur[:len(cur)-1]
		}
	}
	search(remaining)
	return append(essential, bestSel...)
}

type cost struct{ cubes, lits int }

func less(a, b cost) bool {
	if a.cubes != b.cubes {
		return a.cubes < b.cubes
	}
	return a.lits < b.lits
}

func coverCost(sel []int, primes []Cube) cost {
	seen := make(map[int]bool, len(sel))
	c := cost{}
	for _, p := range sel {
		if seen[p] {
			continue
		}
		seen[p] = true
		c.cubes++
		c.lits += primes[p].NumLiterals()
	}
	return c
}

// greedySeed produces an initial feasible selection for the bound.
func greedySeed(remaining []int, coverSets [][]int, colCover [][]int, already []bool) []int {
	need := make(map[int]bool, len(remaining))
	for _, c := range remaining {
		need[c] = true
	}
	var sel []int
	for len(need) > 0 {
		bestP, bestGain := -1, -1
		for p := range coverSets {
			if already[p] {
				continue
			}
			g := 0
			for _, c := range coverSets[p] {
				if need[c] {
					g++
				}
			}
			if g > bestGain {
				bestGain, bestP = g, p
			}
		}
		if bestP == -1 || bestGain == 0 {
			break
		}
		sel = append(sel, bestP)
		for _, c := range coverSets[bestP] {
			delete(need, c)
		}
	}
	sort.Ints(sel)
	return sel
}
