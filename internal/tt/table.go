// Package tt provides truth tables and Boolean bit matrices, the numeric
// substrate for Boolean matrix factorization and two-level synthesis.
//
// A Table is a single-output truth table over n variables stored as a packed
// bitvector of 2^n entries. Row indices encode input assignments with
// variable 0 in the least-significant bit: row r assigns input i the value
// (r>>i)&1.
//
// A Matrix is a dense Boolean matrix with at most 64 columns, stored
// row-major with one uint64 word per row. This is the shape used by the BMF
// algorithms: a k-input, m-output subcircuit has a 2^k x m matrix whose rows
// are input assignments and whose columns are outputs.
package tt

import (
	"fmt"
	"math/bits"
	"strings"
)

// Table is a single-output truth table over NumVars variables.
// Entry i holds the function value for input assignment i.
type Table struct {
	nvars int
	words []uint64
}

// NewTable returns an all-zero truth table over nvars variables.
// nvars must be between 0 and 24 (2^24 entries = 2 MiB) to guard against
// accidental exponential blowups; the BLASYS flow uses nvars <= 10.
func NewTable(nvars int) *Table {
	if nvars < 0 || nvars > 24 {
		panic(fmt.Sprintf("tt: NewTable(%d): variable count out of range [0,24]", nvars))
	}
	return &Table{nvars: nvars, words: make([]uint64, wordsFor(nvars))}
}

// TableFromBits builds a truth table from an explicit bit slice of length
// 2^nvars, with bit i giving the value at input assignment i.
func TableFromBits(nvars int, bits []bool) *Table {
	t := NewTable(nvars)
	if len(bits) != t.Len() {
		panic(fmt.Sprintf("tt: TableFromBits: got %d bits, want %d", len(bits), t.Len()))
	}
	for i, b := range bits {
		if b {
			t.Set(i, true)
		}
	}
	return t
}

// TableFromUint64 builds a truth table over nvars <= 6 variables from the
// canonical packed representation (bit i = value at assignment i).
func TableFromUint64(nvars int, v uint64) *Table {
	if nvars > 6 {
		panic("tt: TableFromUint64 requires nvars <= 6")
	}
	t := NewTable(nvars)
	t.words[0] = v & ValidBits(nvars)
	return t
}

// ValidBits returns the bits of a table word that hold entries: all 64 for
// nvars >= 6, else the low 2^nvars. Bits outside it (set by Not, for
// instance) are ignored by every query.
func ValidBits(nvars int) uint64 {
	if nvars >= 6 {
		return ^uint64(0)
	}
	return 1<<(uint(1)<<uint(nvars)) - 1
}

func wordsFor(nvars int) int {
	n := 1 << uint(nvars)
	return (n + 63) / 64
}

// NumVars returns the number of input variables.
func (t *Table) NumVars() int { return t.nvars }

// Len returns the number of entries, 2^NumVars.
func (t *Table) Len() int { return 1 << uint(t.nvars) }

// Get returns entry i.
func (t *Table) Get(i int) bool {
	return t.words[i>>6]&(1<<uint(i&63)) != 0
}

// Set assigns entry i.
func (t *Table) Set(i int, v bool) {
	if v {
		t.words[i>>6] |= 1 << uint(i&63)
	} else {
		t.words[i>>6] &^= 1 << uint(i&63)
	}
}

// CountOnes returns the number of 1 entries (the ON-set size).
func (t *Table) CountOnes() int {
	n := 0
	for _, w := range t.maskedWords() {
		n += bits.OnesCount64(w)
	}
	return n
}

// maskedWords returns the words with any bits beyond 2^nvars cleared.
// For nvars >= 6 all word bits are in range so words are returned as-is.
func (t *Table) maskedWords() []uint64 {
	if t.nvars >= 6 {
		return t.words
	}
	w := t.words[0] & ValidBits(t.nvars)
	return []uint64{w}
}

// IsConst reports whether the table is constant, and the constant value.
func (t *Table) IsConst() (isConst, value bool) {
	ones := t.CountOnes()
	if ones == 0 {
		return true, false
	}
	if ones == t.Len() {
		return true, true
	}
	return false, false
}

// Equal reports whether t and o represent the same function.
func (t *Table) Equal(o *Table) bool {
	if t.nvars != o.nvars {
		return false
	}
	tw, ow := t.maskedWords(), o.maskedWords()
	for i := range tw {
		if tw[i] != ow[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (t *Table) Clone() *Table {
	c := NewTable(t.nvars)
	copy(c.words, t.words)
	return c
}

// Not returns the complement function.
func (t *Table) Not() *Table {
	c := t.Clone()
	for i := range c.words {
		c.words[i] = ^c.words[i]
	}
	return c
}

// And returns t AND o. Panics if variable counts differ.
func (t *Table) And(o *Table) *Table { return t.binop(o, func(a, b uint64) uint64 { return a & b }) }

// Or returns t OR o.
func (t *Table) Or(o *Table) *Table { return t.binop(o, func(a, b uint64) uint64 { return a | b }) }

// Xor returns t XOR o.
func (t *Table) Xor(o *Table) *Table { return t.binop(o, func(a, b uint64) uint64 { return a ^ b }) }

func (t *Table) binop(o *Table, f func(a, b uint64) uint64) *Table {
	if t.nvars != o.nvars {
		panic("tt: binop on tables with different variable counts")
	}
	c := NewTable(t.nvars)
	for i := range c.words {
		c.words[i] = f(t.words[i], o.words[i])
	}
	return c
}

// HammingDistance counts entries where t and o differ.
func (t *Table) HammingDistance(o *Table) int {
	if t.nvars != o.nvars {
		panic("tt: HammingDistance on tables with different variable counts")
	}
	tw, ow := t.maskedWords(), o.maskedWords()
	n := 0
	for i := range tw {
		n += bits.OnesCount64(tw[i] ^ ow[i])
	}
	return n
}

// varWords[i] is the in-word pattern of variable i < 6: bit j is set iff
// (j>>i)&1 == 1. Every word of a table repeats it, since variables 0..5 index
// the bits within a word and variables 6 and up index the words.
var varWords = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// VarWord returns the 64-entry word pattern of variable i < 6: bit j is set
// iff variable i is 1 at in-word assignment j. It equals every word of
// Var(n, i) for n >= 6.
func VarWord(i int) uint64 { return varWords[i] }

// Var returns the projection function x_i over nvars variables.
func Var(nvars, i int) *Table {
	if i < 0 || i >= nvars {
		panic(fmt.Sprintf("tt: Var(%d) out of range for %d variables", i, nvars))
	}
	t := NewTable(nvars)
	if i < 6 {
		for w := range t.words {
			t.words[w] = varWords[i]
		}
	} else {
		// Whole words alternate in runs of 2^(i-6).
		run := 1 << uint(i-6)
		for w := range t.words {
			if (w/run)%2 == 1 {
				t.words[w] = ^uint64(0)
			}
		}
	}
	return t
}

// Cofactor returns the cofactor of t with variable i fixed to val, as a
// table over the same variable count (variable i becomes don't-care).
// Entries above 2^nvars (present when nvars < 6) come out cleared.
func (t *Table) Cofactor(i int, val bool) *Table {
	c := NewTable(t.nvars)
	CofactorWords(c.words, t.words, i, val)
	c.words[0] &= ValidBits(t.nvars)
	return c
}

// CofactorWords writes into dst the words of the cofactor of the table with
// words src on variable i fixed to val; dst and src have the same length and
// may be the same slice. It is Cofactor's kernel and works a word at a time.
// For i < 6 the variable indexes bits within a word: the entries with
// x_i = val are kept and copied onto their partners, a shift of 2^i away.
// For i >= 6 it indexes words, which are copied whole. Entries in range stay
// in range, so words with the bits above 2^nvars clear stay that way.
func CofactorWords(dst, src []uint64, i int, val bool) {
	if i >= 6 {
		run := 1 << uint(i-6)
		for w := range dst {
			if val {
				dst[w] = src[w|run]
			} else {
				dst[w] = src[w&^run]
			}
		}
		return
	}
	s := uint(1) << uint(i)
	m := varWords[i]
	for w, x := range src {
		if val {
			x &= m
			dst[w] = x | x>>s
		} else {
			x &^= m
			dst[w] = x | x<<s
		}
	}
}

// DependsOn reports whether the function actually depends on variable i,
// i.e. whether its two cofactors on x_i differ.
func (t *Table) DependsOn(i int) bool { return DependsOnWords(t.words, t.nvars, i) }

// DependsOnWords is DependsOn on the words of an nvars-variable table. It
// compares the two cofactors in place, without building either.
func DependsOnWords(words []uint64, nvars, i int) bool {
	if i >= 6 {
		run := 1 << uint(i-6)
		for w, x := range words {
			if w&run == 0 && x != words[w|run] {
				return true
			}
		}
		return false
	}
	s := uint(1) << uint(i)
	// Entries with x_i = 0, each compared with its x_i = 1 partner.
	m := ^varWords[i] & ValidBits(nvars)
	for _, x := range words {
		if (x^x>>s)&m != 0 {
			return true
		}
	}
	return false
}

// String renders the table as a 0/1 string from entry 0 upward, in groups of
// eight for readability. Intended for debugging and test failure messages.
func (t *Table) String() string {
	var b strings.Builder
	for i := 0; i < t.Len(); i++ {
		if i > 0 && i%8 == 0 {
			b.WriteByte(' ')
		}
		if t.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Words exposes the packed 64-entry words of the table. The slice aliases
// the table's storage, so writing through it changes the table. Word w holds
// entries [64w, 64w+63] with entry 64w+j in bit j; for fewer than 6
// variables, bits above 2^NumVars may be set and are ignored by every
// query.
func (t *Table) Words() []uint64 { return t.words }
