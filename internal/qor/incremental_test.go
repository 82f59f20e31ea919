package qor

import (
	"testing"

	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/partition"
)

// ripple builds a small ripple-carry adder and its k×m decomposition.
func ripple(t *testing.T, bits int) (*logic.Circuit, OutputSpec, []partition.Block) {
	t.Helper()
	b := logic.NewBuilder("add")
	x := make([]logic.NodeID, bits)
	y := make([]logic.NodeID, bits)
	for i := range x {
		x[i] = b.Input("x")
	}
	for i := range y {
		y[i] = b.Input("y")
	}
	carry := b.C.ConstNode(false)
	for i := 0; i < bits; i++ {
		axb := b.Gate(logic.Xor, x[i], y[i])
		b.Output("s", b.Gate(logic.Xor, axb, carry))
		carry = b.Gate(logic.Or, b.Gate(logic.And, x[i], y[i]), b.Gate(logic.And, axb, carry))
	}
	b.Output("s", carry)
	prepared := logic.ReorderDFS(b.C)
	blocks, err := partition.Decompose(prepared, partition.Options{MaxInputs: 5, MaxOutputs: 3})
	if err != nil {
		t.Fatal(err)
	}
	return prepared, Unsigned("s", bits+1), blocks
}

// constImpl builds a block implementation driving every output with a
// constant — maximally wrong, so substitution effects are visible at the
// primary outputs.
func constImpl(nIn, nOut int, v bool) *logic.Circuit {
	c := logic.New("const")
	for i := 0; i < nIn; i++ {
		c.AddInput("i")
	}
	for i := 0; i < nOut; i++ {
		c.AddOutput("o", c.ConstNode(v))
	}
	return c
}

// TestIncrementalMatchesFullOnSubstitution substitutes a degraded block via
// the incremental comparer and via an explicit ReplaceBlocks rebuild, and
// requires bit-identical reports — including after a commit, and for a
// candidate stacked on a committed substitution.
func TestIncrementalMatchesFullOnSubstitution(t *testing.T) {
	prepared, spec, blocks := ripple(t, 8)
	if len(blocks) < 2 {
		t.Fatalf("want >= 2 blocks, got %d", len(blocks))
	}
	ic, err := NewIncrementalComparer(prepared, spec, blocks, 1<<9, 7)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := NewEvaluator(prepared, spec, 1<<9, 7)
	if err != nil {
		t.Fatal(err)
	}
	full := func(impls map[int]*logic.Circuit) Report {
		t.Helper()
		circ, err := logic.ReplaceBlocks(prepared, partition.Substitutions(blocks, impls))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eval.Compare(circ)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// Accurate baseline: everything must be error-free.
	if rep := ic.CommittedReport(); rep.ErrRate != 0 || rep.MeanHam != 0 {
		t.Fatalf("accurate committed report has error: %+v", rep)
	}

	impl0 := constImpl(len(blocks[0].Inputs), len(blocks[0].Outputs), false)
	fast, err := ic.CompareCandidate(0, impl0)
	if err != nil {
		t.Fatal(err)
	}
	if slow := full(map[int]*logic.Circuit{0: impl0}); fast != slow {
		t.Fatalf("candidate: incremental %+v != full %+v", fast, slow)
	}
	if fast.ErrRate == 0 {
		t.Fatal("constant block should cause errors")
	}

	// Commit block 0, then stack a candidate on block 1.
	committed, err := ic.Commit(0, impl0)
	if err != nil {
		t.Fatal(err)
	}
	if committed != fast {
		t.Fatalf("commit report %+v != candidate report %+v", committed, fast)
	}
	// Re-proposing the committed implementation leaves every batch's block
	// outputs equal to the cache, so the evaluation folds cached partials
	// throughout and must reproduce the commit's report exactly.
	if again, err := ic.CompareCandidate(0, impl0); err != nil {
		t.Fatal(err)
	} else if again != committed {
		t.Fatalf("re-proposed committed impl: %+v != commit report %+v", again, committed)
	}
	bi := len(blocks) - 1
	impl1 := constImpl(len(blocks[bi].Inputs), len(blocks[bi].Outputs), true)
	fast, err = ic.CompareCandidate(bi, impl1)
	if err != nil {
		t.Fatal(err)
	}
	if slow := full(map[int]*logic.Circuit{0: impl0, bi: impl1}); fast != slow {
		t.Fatalf("stacked candidate: incremental %+v != full %+v", fast, slow)
	}
}

// TestBatchCleanWave evaluates a wave of candidates on one block in which
// re-proposals of the committed implementation (clean in every batch)
// alternate with a genuinely dirty candidate. Each clean evaluation must
// reproduce the commit's report, and no clean evaluation may disturb the
// dirty candidate's report through state the comparer reuses between calls.
func TestBatchCleanWave(t *testing.T) {
	prepared, spec, blocks := ripple(t, 8)
	ic, err := NewIncrementalComparer(prepared, spec, blocks, 1<<9, 7)
	if err != nil {
		t.Fatal(err)
	}
	b := blocks[0]
	committed := constImpl(len(b.Inputs), len(b.Outputs), true)
	want, err := ic.Commit(0, committed)
	if err != nil {
		t.Fatal(err)
	}
	dirty := constImpl(len(b.Inputs), len(b.Outputs), false)
	first, err := ic.CompareCandidate(0, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if first == want {
		t.Fatal("dirty candidate should differ from the committed report")
	}
	for i := 0; i < 3; i++ {
		for _, clean := range []bool{true, true, false} {
			impl := dirty
			if clean {
				impl = committed
			}
			rep, err := ic.CompareCandidate(0, impl)
			if err != nil {
				t.Fatal(err)
			}
			if clean && rep != want {
				t.Fatalf("wave %d: clean candidate %+v != commit report %+v", i, rep, want)
			}
			if !clean && rep != first {
				t.Fatalf("wave %d: dirty candidate %+v != its first report %+v", i, rep, first)
			}
		}
	}
}

func TestIncrementalValidation(t *testing.T) {
	prepared, spec, blocks := ripple(t, 4)
	ic, err := NewIncrementalComparer(prepared, spec, blocks, 1<<8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ic.CompareCandidate(-1, constImpl(1, 1, false)); err == nil {
		t.Error("negative block index accepted")
	}
	if _, err := ic.CompareCandidate(len(blocks), constImpl(1, 1, false)); err == nil {
		t.Error("out-of-range block index accepted")
	}
	if _, err := ic.CompareCandidate(0, nil); err == nil {
		t.Error("nil implementation accepted")
	}
	wrong := constImpl(len(blocks[0].Inputs)+1, len(blocks[0].Outputs), false)
	if _, err := ic.CompareCandidate(0, wrong); err == nil {
		t.Error("I/O mismatch accepted")
	}
	if _, err := ic.Commit(0, wrong); err == nil {
		t.Error("Commit with I/O mismatch accepted")
	}
}

// TestIncrementalConcurrentCandidates exercises the scratch pool under
// concurrent CompareCandidate calls (run with -race).
func TestIncrementalConcurrentCandidates(t *testing.T) {
	prepared, spec, blocks := ripple(t, 8)
	ic, err := NewIncrementalComparer(prepared, spec, blocks, 1<<9, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Report, len(blocks))
	impls := make([]*logic.Circuit, len(blocks))
	for bi := range blocks {
		impls[bi] = constImpl(len(blocks[bi].Inputs), len(blocks[bi].Outputs), bi%2 == 0)
		if want[bi], err = ic.CompareCandidate(bi, impls[bi]); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 8
	errc := make(chan error, rounds*len(blocks))
	for r := 0; r < rounds; r++ {
		for bi := range blocks {
			go func(bi int) {
				rep, err := ic.CompareCandidate(bi, impls[bi])
				if err == nil && rep != want[bi] {
					t.Errorf("block %d: concurrent report diverged", bi)
				}
				errc <- err
			}(bi)
		}
	}
	for i := 0; i < rounds*len(blocks); i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
