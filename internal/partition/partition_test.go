package partition

import (
	"math/rand"
	"testing"

	"github.com/blasys-go/blasys/internal/logic"
)

func randomCircuit(rng *rand.Rand, nin, ngates, nout int) *logic.Circuit {
	b := logic.NewBuilder("rand")
	ids := b.Inputs("i", nin)
	ops := []logic.Op{logic.And, logic.Or, logic.Xor, logic.Nand, logic.Nor, logic.Not}
	for g := 0; g < ngates; g++ {
		op := ops[rng.Intn(len(ops))]
		pick := func() logic.NodeID { return ids[len(ids)-1-rng.Intn(min(len(ids), 12))] }
		var id logic.NodeID
		if op.Arity() == 1 {
			id = b.Gate(op, pick())
		} else {
			id = b.Gate(op, pick(), pick())
		}
		ids = append(ids, id)
	}
	for o := 0; o < nout; o++ {
		b.Output("", ids[len(ids)-1-rng.Intn(min(len(ids)-nin, ngates))])
	}
	return logic.Sweep(b.C)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func rippleAdder(n int) *logic.Circuit {
	b := logic.NewBuilder("adder")
	as := b.Inputs("a", n)
	bs := b.Inputs("b", n)
	carry := b.Const(false)
	var sums []logic.NodeID
	for i := 0; i < n; i++ {
		axb := b.Xor(as[i], bs[i])
		sums = append(sums, b.Xor(axb, carry))
		carry = b.Or(b.And(as[i], bs[i]), b.And(axb, carry))
	}
	sums = append(sums, carry)
	b.Outputs("s", sums)
	return b.C
}

func TestDecomposeValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	opt := Options{MaxInputs: 8, MaxOutputs: 6}
	for trial := 0; trial < 20; trial++ {
		c := logic.ReorderDFS(randomCircuit(rng, 4+rng.Intn(8), 20+rng.Intn(200), 2+rng.Intn(6)))
		blocks, err := Decompose(c, opt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := Validate(c, blocks, opt); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestDecomposeAdderReasonableBlockCount(t *testing.T) {
	c := logic.ReorderDFS(rippleAdder(32))
	opt := Options{MaxInputs: 10, MaxOutputs: 10}
	blocks, err := Decompose(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(c, blocks, opt); err != nil {
		t.Fatal(err)
	}
	gates := c.NumGates()
	// With k=m=10, a 32-bit ripple adder (~160 gates) should need a modest
	// number of blocks — not one per gate.
	if len(blocks) > gates/3 {
		t.Errorf("decomposition too fine: %d blocks for %d gates", len(blocks), gates)
	}
	for bi, b := range blocks {
		if len(b.Outputs) == 0 {
			t.Errorf("block %d has no outputs", bi)
		}
	}
}

func TestDecomposeRespectsLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		c := logic.ReorderDFS(randomCircuit(rng, 6, 150, 4))
		for _, opt := range []Options{
			{MaxInputs: 4, MaxOutputs: 2},
			{MaxInputs: 6, MaxOutputs: 4},
			{MaxInputs: 10, MaxOutputs: 10},
		} {
			blocks, err := Decompose(c, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := Validate(c, blocks, opt); err != nil {
				t.Fatalf("trial %d opt %+v: %v", trial, opt, err)
			}
		}
	}
}

func TestIdentitySubstitutionPreservesFunction(t *testing.T) {
	// Replacing every block with its own extracted circuit must be a
	// functional no-op: this exercises Extract + Substitutions +
	// ReplaceBlocks end to end.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 12; trial++ {
		c := logic.ReorderDFS(randomCircuit(rng, 5+rng.Intn(5), 30+rng.Intn(150), 3))
		opt := Options{MaxInputs: 9, MaxOutputs: 7}
		blocks, err := Decompose(c, opt)
		if err != nil {
			t.Fatal(err)
		}
		impls := make(map[int]*logic.Circuit, len(blocks))
		for bi := range blocks {
			impl, err := Extract(c, blocks[bi])
			if err != nil {
				t.Fatalf("trial %d block %d: %v", trial, bi, err)
			}
			impls[bi] = impl
		}
		got, err := logic.ReplaceBlocks(c, Substitutions(blocks, impls))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		simA, simB := logic.NewSimulator(c), logic.NewSimulator(got)
		in := make([]uint64, len(c.Inputs))
		outA := make([]uint64, len(c.Outputs))
		outB := make([]uint64, len(c.Outputs))
		for batch := 0; batch < 6; batch++ {
			logic.RandomInputWords(rng, in)
			simA.Run(in, outA)
			simB.Run(in, outB)
			for o := range outA {
				if outA[o] != outB[o] {
					t.Fatalf("trial %d: identity substitution changed output %d", trial, o)
				}
			}
		}
	}
}

func TestExtractBlockIO(t *testing.T) {
	c := logic.ReorderDFS(rippleAdder(8))
	opt := Options{MaxInputs: 10, MaxOutputs: 10}
	blocks, err := Decompose(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	for bi, b := range blocks {
		sub, err := Extract(c, b)
		if err != nil {
			t.Fatalf("block %d: %v", bi, err)
		}
		if len(sub.Inputs) != len(b.Inputs) || len(sub.Outputs) != len(b.Outputs) {
			t.Errorf("block %d: extracted I/O %d/%d, want %d/%d",
				bi, len(sub.Inputs), len(sub.Outputs), len(b.Inputs), len(b.Outputs))
		}
		if err := sub.Validate(); err != nil {
			t.Errorf("block %d: %v", bi, err)
		}
	}
}

func TestTruthMatrixMatchesDirectSimulation(t *testing.T) {
	c := logic.ReorderDFS(rippleAdder(4))
	blocks, err := Decompose(c, Options{MaxInputs: 8, MaxOutputs: 8})
	if err != nil {
		t.Fatal(err)
	}
	for bi, b := range blocks {
		M, err := TruthMatrix(c, b)
		if err != nil {
			t.Fatalf("block %d: %v", bi, err)
		}
		sub, err := Extract(c, b)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < M.Rows; r++ {
			y := sub.EvalUint(uint64(r))
			for j := 0; j < M.Cols; j++ {
				if M.Get(r, j) != ((y>>uint(j))&1 == 1) {
					t.Fatalf("block %d row %d col %d mismatch", bi, r, j)
				}
			}
		}
	}
}

func TestRefinementDoesNotBreakValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := logic.ReorderDFS(randomCircuit(rng, 8, 300, 6))
	opt := Options{MaxInputs: 10, MaxOutputs: 8}
	ref, err := Decompose(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(c, ref, opt); err != nil {
		t.Fatalf("refined: %v", err)
	}
	// The greedy intervals refinement starts from.
	d := newDecomposer(c, opt)
	unref := d.blocks(d.greedyIntervals())
	if err := Validate(c, unref, opt); err != nil {
		t.Fatalf("unrefined: %v", err)
	}
	// Refinement must not increase total boundary nets.
	cost := func(bs []Block) int {
		n := 0
		for _, b := range bs {
			n += len(b.Inputs) + len(b.Outputs)
		}
		return n
	}
	if cost(ref) > cost(unref) {
		t.Errorf("refinement increased boundary cost: %d > %d", cost(ref), cost(unref))
	}
}

func TestDecomposeErrors(t *testing.T) {
	c := rippleAdder(4)
	if _, err := Decompose(c, Options{MaxInputs: 2, MaxOutputs: 4}); err == nil {
		t.Error("accepted MaxInputs < 3")
	}
	if _, err := Decompose(c, Options{MaxInputs: 5, MaxOutputs: 0}); err == nil {
		t.Error("accepted MaxOutputs < 1")
	}
}

func TestReorderDFSEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		c := randomCircuit(rng, 6, 120, 4)
		r := logic.ReorderDFS(c)
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		simA, simB := logic.NewSimulator(c), logic.NewSimulator(r)
		in := make([]uint64, len(c.Inputs))
		outA := make([]uint64, len(c.Outputs))
		outB := make([]uint64, len(c.Outputs))
		for batch := 0; batch < 4; batch++ {
			logic.RandomInputWords(rng, in)
			simA.Run(in, outA)
			simB.Run(in, outB)
			for o := range outA {
				if outA[o] != outB[o] {
					t.Fatalf("trial %d: ReorderDFS changed function", trial)
				}
			}
		}
	}
}
