package espresso

import "github.com/blasys-go/blasys/internal/tt"

// ISOP computes an irredundant sum-of-products cover of the incompletely
// specified function (on, dc) using the Minato–Morreale recursion. It is
// much faster than starting Minimize from minterms and already yields an
// irredundant cover of prime-ish cubes; Minimize uses it as the initial
// cover for functions with many minterms.
//
// The recursion computes a cover F with on ⊆ F ⊆ on ∪ dc. It runs on packed
// words with the bits above 2^nvars cleared, drawing its temporaries from a
// free list: a call allocates eight word slices per level of recursion
// depth, not per recursive call.
func ISOP(on, dc *tt.Table) *Cover {
	nvars := on.NumVars()
	s := &isop{nvars: nvars, nw: len(on.Words()), one: tt.ValidBits(nvars)}
	lower, upper, cover := s.get(), s.get(), s.get()
	for i, x := range on.Words() {
		lower[i], upper[i] = x&s.one, x&s.one
		if dc != nil {
			upper[i] |= dc.Words()[i] & s.one
		}
	}
	return &Cover{NumVars: nvars, Cubes: s.rec(nil, lower, upper, nvars-1, cover)}
}

// isop is the state of one ISOP call: the table shape and a free list of
// word slices for the recursion's temporaries.
type isop struct {
	nvars, nw int
	one       uint64 // the constant-1 value of every word
	free      [][]uint64
}

func (s *isop) get() []uint64 {
	if n := len(s.free); n > 0 {
		w := s.free[n-1]
		s.free = s.free[:n-1]
		return w
	}
	return make([]uint64, s.nw)
}

func (s *isop) put(ws ...[]uint64) { s.free = append(s.free, ws...) }

// rec appends to out a cover of (lower, upper) using variables [0, v] and
// writes the cover's coverage into cover.
func (s *isop) rec(out []Cube, lower, upper []uint64, v int, cover []uint64) []Cube {
	if isZero(lower) {
		clear(cover)
		return out
	}
	if s.isOne(upper) {
		// upper is the constant-1 function: the full cube suffices.
		s.fillOne(cover)
		return append(out, FullCube)
	}
	// Find the top variable that lower or upper actually depends on.
	for v >= 0 && !tt.DependsOnWords(lower, s.nvars, v) && !tt.DependsOnWords(upper, s.nvars, v) {
		v--
	}
	if v < 0 {
		// No dependence and lower nonzero: upper must be constant 1,
		// handled above; reaching here means lower ⊆ upper = 1.
		s.fillOne(cover)
		return append(out, FullCube)
	}

	l0, l1, u0, u1 := s.get(), s.get(), s.get(), s.get()
	tt.CofactorWords(l0, lower, v, false)
	tt.CofactorWords(l1, lower, v, true)
	tt.CofactorWords(u0, upper, v, false)
	tt.CofactorWords(u1, upper, v, true)
	t, cov0, cov1, covd := s.get(), s.get(), s.get(), s.get()

	// Cubes that must contain literal ¬x_v: cover of (l0 \ u1, u0).
	for i := range t {
		t[i] = l0[i] &^ u1[i]
	}
	n0 := len(out)
	out = s.rec(out, t, u0, v-1, cov0)
	for i := n0; i < len(out); i++ {
		out[i] = out[i].WithLiteral(v, false)
	}
	// Cubes that must contain literal x_v: cover of (l1 \ u0, u1).
	for i := range t {
		t[i] = l1[i] &^ u0[i]
	}
	n1 := len(out)
	out = s.rec(out, t, u1, v-1, cov1)
	for i := n1; i < len(out); i++ {
		out[i] = out[i].WithLiteral(v, true)
	}
	// Remaining minterms, coverable without x_v.
	for i := range t {
		t[i] = l0[i]&^cov0[i] | l1[i]&^cov1[i]
		u0[i] &= u1[i]
	}
	out = s.rec(out, t, u0, v-1, covd)

	for i := range cover {
		xv := wordOfVar(v, i)
		cover[i] = cov0[i]&^xv | cov1[i]&xv | covd[i]
	}
	s.put(l0, l1, u0, u1, t, cov0, cov1, covd)
	return out
}

func (s *isop) isOne(ws []uint64) bool {
	for _, x := range ws {
		if x != s.one {
			return false
		}
	}
	return true
}

func (s *isop) fillOne(ws []uint64) {
	for i := range ws {
		ws[i] = s.one
	}
}

func isZero(ws []uint64) bool {
	for _, x := range ws {
		if x != 0 {
			return false
		}
	}
	return true
}

// wordOfVar returns word wi of the projection x_v.
func wordOfVar(v, wi int) uint64 {
	if v < 6 {
		return tt.VarWord(v)
	}
	if wi>>uint(v-6)&1 != 0 {
		return ^uint64(0)
	}
	return 0
}
