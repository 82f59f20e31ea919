package main

import (
	"math"
	"testing"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/qor"
)

// fig3Table is the accurate circuit's truth table printed in the paper's
// Figure 3: rows for inputs 0000..1111, columns z1..z4.
var fig3Table = [16]string{
	"0001", "1001", "1011", "1011",
	"0000", "1000", "1011", "1011",
	"1010", "1010", "1000", "1000",
	"1001", "1101", "1110", "1010",
}

func mustScalar(t *testing.T, c *logic.Circuit) *scalarCircuit {
	t.Helper()
	s, err := newScalarCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// setWord assigns the low n bits of v to in[off : off+n], LSB first.
func setWord(in []bool, off, n int, v uint64) {
	for i := 0; i < n; i++ {
		in[off+i] = v>>uint(i)&1 == 1
	}
}

func word(out []bool) uint64 {
	var v uint64
	for i, b := range out {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}

func TestScalarFig3TruthTable(t *testing.T) {
	s := mustScalar(t, bench.Fig3().Circ)
	in, out := make([]bool, 4), make([]bool, 4)
	for r, row := range fig3Table {
		// Row r is the input word r, input 0 its least significant bit.
		setWord(in, 0, 4, uint64(r))
		s.eval(in, out)
		for j := 0; j < 4; j++ {
			if want := row[j] == '1'; out[j] != want {
				t.Errorf("row %04b: z%d = %v, the paper prints %v", r, j+1, out[j], want)
			}
		}
	}
}

func eightBitCircuit(op func(b *logic.Builder, x, y []logic.NodeID) []logic.NodeID) *logic.Circuit {
	b := logic.NewBuilder("op8")
	x, y := b.Inputs("a", 8), b.Inputs("b", 8)
	b.Outputs("z", op(b, x, y))
	return b.C
}

func TestScalarEightBitAddAndMultiply(t *testing.T) {
	add := mustScalar(t, eightBitCircuit(bench.Add))
	mul := mustScalar(t, eightBitCircuit(bench.Mul))
	in := make([]bool, 16)
	sum, prod := make([]bool, 9), make([]bool, 16)
	for a := uint64(0); a < 256; a++ {
		for b := uint64(0); b < 256; b++ {
			setWord(in, 0, 8, a)
			setWord(in, 8, 8, b)
			add.eval(in, sum)
			mul.eval(in, prod)
			if got := word(sum); got != a+b {
				t.Fatalf("%d + %d = %d", a, b, got)
			}
			if got := word(prod); got != a*b {
				t.Fatalf("%d * %d = %d", a, b, got)
			}
		}
	}
}

func TestScalarMuxSelectsThirdFaninWhenSet(t *testing.T) {
	c := logic.New("mux")
	s, a, b := c.AddInput("s"), c.AddInput("a"), c.AddInput("b")
	c.AddOutput("y", c.AddGate(logic.Mux, s, a, b))
	m := mustScalar(t, c)
	out := make([]bool, 1)
	for x := 0; x < 8; x++ {
		in := []bool{x&1 == 1, x&2 == 2, x&4 == 4}
		m.eval(in, out)
		want := in[1]
		if in[0] {
			want = in[2]
		}
		if out[0] != want {
			t.Errorf("mux(%v) = %v, want %v", in, out[0], want)
		}
	}
}

// truncatedAdder is the 8-bit adder with its least significant sum bit
// forced to zero: R' = R - (R mod 2).
func truncatedAdder() *logic.Circuit {
	b := logic.NewBuilder("op8")
	x, y := b.Inputs("a", 8), b.Inputs("b", 8)
	sum := bench.Add(b, x, y)
	sum[0] = b.Const(false)
	b.Outputs("z", sum)
	return b.C
}

func TestExhaustiveErrorMatchesHandComputedEq1(t *testing.T) {
	ref := bench.Circuit{Circ: eightBitCircuit(bench.Add), Spec: qor.Unsigned("z", 9)}
	want := 0.0
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if r := a + b; r%2 == 1 {
				want += 1 / float64(r)
			}
		}
	}
	want /= 65536
	est, err := measureError(newCheckSpec(ref, 1<<16, 0.05, 1), truncatedAdder())
	if err != nil {
		t.Fatal(err)
	}
	if !est.exhaustive || est.se != 0 || math.Abs(est.mean-want) > 1e-12 {
		t.Fatalf("got %+v, want exhaustive mean %v", est, want)
	}
	// Below 2^16 samples the check samples and reports a standard error.
	est, err = measureError(newCheckSpec(ref, 1<<12, 0.05, 1), truncatedAdder())
	if err != nil {
		t.Fatal(err)
	}
	if est.exhaustive || est.se <= 0 || math.Abs(est.mean-want) > 4*est.se {
		t.Fatalf("sampled estimate %+v is not within 4 SE of %v", est, want)
	}
}

func TestVerifyAcceptsAccurateAndRejectsBrokenResults(t *testing.T) {
	for _, tc := range []struct {
		b   bench.Circuit
		bit int // an output bit whose loss is far outside 5%
	}{{bench.Mult8(), 14}, {bench.SAD(), 10}} {
		b := tc.b
		cs := newCheckSpec(b, 1<<13, 0.05, 7)
		est, err := verify(cs, b.Circ)
		if err != nil || est.mean != 0 {
			t.Errorf("%s: accurate circuit: %+v, %v", b.Name, est, err)
		}
		broken := b.Circ.Clone()
		broken.Outputs[tc.bit] = broken.ConstNode(false)
		if _, err := verify(cs, broken); err == nil {
			t.Errorf("%s: a result with a grounded high output bit passed", b.Name)
		}
	}
	short := bench.Mult8().Circ.Clone()
	short.Outputs, short.OutputNames = short.Outputs[:15], short.OutputNames[:15]
	if _, err := verify(newCheckSpec(bench.Mult8(), 1<<13, 0.05, 7), short); err == nil {
		t.Error("a result missing an output passed")
	}
}
