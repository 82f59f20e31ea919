package logic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/blasys-go/blasys/internal/tt"
)

// referenceEval evaluates one node recursively for a single sample, serving
// as an independent oracle for the word-parallel simulator.
func referenceEval(c *Circuit, id NodeID, inputs map[NodeID]bool) bool {
	n := &c.Nodes[id]
	switch n.Op {
	case Const0:
		return false
	case Const1:
		return true
	case Input:
		return inputs[id]
	}
	a := referenceEval(c, n.Fanin[0], inputs)
	var b, s bool
	if n.Nfanin > 1 {
		b = referenceEval(c, n.Fanin[1], inputs)
	}
	if n.Nfanin > 2 {
		s = referenceEval(c, n.Fanin[2], inputs)
	}
	switch n.Op {
	case Buf:
		return a
	case Not:
		return !a
	case And:
		return a && b
	case Or:
		return a || b
	case Xor:
		return a != b
	case Nand:
		return !(a && b)
	case Nor:
		return !(a || b)
	case Xnor:
		return a == b
	case Mux:
		if a {
			return s
		}
		return b
	}
	panic("unknown op")
}

func TestSimulatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		c := randomCircuit(rng, 3+rng.Intn(6), 5+rng.Intn(60), 1+rng.Intn(5))
		sim := NewSimulator(c)
		inWords := make([]uint64, len(c.Inputs))
		RandomInputWords(rng, inWords)
		out := sim.Run(inWords, nil)
		// Check 8 random sample lanes against the recursive oracle.
		for s := 0; s < 8; s++ {
			lane := rng.Intn(64)
			env := make(map[NodeID]bool)
			for i, in := range c.Inputs {
				env[in] = inWords[i]&(1<<uint(lane)) != 0
			}
			for o, outNode := range c.Outputs {
				want := referenceEval(c, outNode, env)
				got := out[o]&(1<<uint(lane)) != 0
				if got != want {
					t.Fatalf("trial %d lane %d output %d: sim=%v, ref=%v", trial, lane, o, got, want)
				}
			}
		}
	}
}

func TestTruthTablesAdder(t *testing.T) {
	// 2-bit adder: 4 inputs, 3 outputs; verify against arithmetic.
	b := NewBuilder("add2")
	a0, a1 := b.Input("a0"), b.Input("a1")
	x0, x1 := b.Input("b0"), b.Input("b1")
	s0 := b.Xor(a0, x0)
	c0 := b.And(a0, x0)
	s1 := b.Xor(b.Xor(a1, x1), c0)
	c1 := b.Or(b.And(a1, x1), b.And(b.Xor(a1, x1), c0))
	b.Outputs("s", []NodeID{s0, s1, c1})
	tabs := b.C.TruthTables()
	for r := 0; r < 16; r++ {
		a := uint64(r) & 3
		x := (uint64(r) >> 2) & 3
		sum := a + x
		for bit := 0; bit < 3; bit++ {
			want := (sum>>uint(bit))&1 == 1
			if tabs[bit].Get(r) != want {
				t.Errorf("row %d bit %d: got %v, want %v", r, bit, tabs[bit].Get(r), want)
			}
		}
	}
}

func TestTruthMatrixMatchesTables(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := randomCircuit(rng, 7, 40, 6)
	tabs := c.TruthTables()
	mat := c.TruthMatrix()
	if mat.Rows != 1<<7 || mat.Cols != len(c.Outputs) {
		t.Fatalf("matrix shape %dx%d", mat.Rows, mat.Cols)
	}
	for j, tab := range tabs {
		if !mat.Column(j).Equal(tab) {
			t.Errorf("column %d mismatch", j)
		}
	}
}

func TestCountingPattern(t *testing.T) {
	// countingPattern must reproduce binary counting across batches.
	for i := 0; i < 9; i++ {
		for base := 0; base < 512; base += 64 {
			w := countingPattern(i, base)
			for j := 0; j < 64; j++ {
				want := ((base+j)>>uint(i))&1 == 1
				got := w&(1<<uint(j)) != 0
				if got != want {
					t.Fatalf("var %d base %d lane %d: got %v, want %v", i, base, j, got, want)
				}
			}
		}
	}
}

func TestEvalUintAgainstTruthTables(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 2+rng.Intn(5), 3+rng.Intn(30), 1+rng.Intn(4))
		tabs := c.TruthTables()
		for trial := 0; trial < 10; trial++ {
			r := rng.Intn(1 << uint(len(c.Inputs)))
			y := c.EvalUint(uint64(r))
			for o, tab := range tabs {
				if tab.Get(r) != ((y>>uint(o))&1 == 1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestVarTableMatchesSimulatedProjection(t *testing.T) {
	// A wire from input i must have truth table tt.Var.
	for nvars := 1; nvars <= 8; nvars++ {
		b := NewBuilder("proj")
		ins := b.Inputs("x", nvars)
		for i := 0; i < nvars; i++ {
			b.Output("", ins[i])
		}
		tabs := b.C.TruthTables()
		for i := 0; i < nvars; i++ {
			if !tabs[i].Equal(tt.Var(nvars, i)) {
				t.Errorf("nvars=%d input %d: projection mismatch", nvars, i)
			}
		}
	}
}

// TestSimulatorReset verifies that a simulator rebound to a different
// circuit produces the same words as a fresh simulator.
func TestSimulatorReset(t *testing.T) {
	big := New("big")
	ins := big.AddInputs("x", 4)
	acc := ins[0]
	for _, in := range ins[1:] {
		acc = big.AddGate(Xor, acc, in)
	}
	big.AddOutput("p", acc)

	small := New("small")
	a := small.AddInput("a")
	b := small.AddInput("b")
	small.AddOutput("o", small.AddGate(And, a, b))

	sim := NewSimulator(big)
	in4 := []uint64{0xdead, 0xbeef, 0x1234, 0x5678}
	want := NewSimulator(big).Run(in4, nil)
	got := sim.Run(in4, nil)
	if want[0] != got[0] {
		t.Fatalf("big: %x != %x", got[0], want[0])
	}

	sim.Reset(small)
	in2 := []uint64{0xf0f0, 0xff00}
	want = NewSimulator(small).Run(in2, nil)
	got = sim.Run(in2, nil)
	if want[0] != got[0] {
		t.Fatalf("after Reset to small: %x != %x", got[0], want[0])
	}

	// And back to the larger circuit: the buffer must regrow.
	sim.Reset(big)
	want = NewSimulator(big).Run(in4, nil)
	got = sim.Run(in4, nil)
	if want[0] != got[0] {
		t.Fatalf("after Reset to big: %x != %x", got[0], want[0])
	}
}
