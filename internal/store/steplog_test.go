package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/core"
)

// walkStates runs a full exploration curve of a benchmark circuit and
// returns the state the Checkpoint hook captured after every committed step.
func walkStates(t *testing.T, name string, lazy bool) []core.ExplorerState {
	t.Helper()
	bm, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	var states []core.ExplorerState
	cfg := core.Config{Samples: 1 << 8, Seed: 1, ExploreFully: true, Lazy: lazy, Parallelism: 2, Sequence: bm.Seq}
	cfg.Checkpoint = func(st core.ExplorerState) { states = append(states, st) }
	if _, err := core.Approximate(bm.Circ, bm.Spec, cfg); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(states) < 8 {
		t.Fatalf("%s walk has only %d steps", name, len(states))
	}
	return states
}

// stateAt returns &states[k], or nil for k < 0 (the empty state).
func stateAt(states []core.ExplorerState, k int) *core.ExplorerState {
	if k < 0 {
		return nil
	}
	return &states[k]
}

// logOp is one write to a job's exploration files, followed by a check of
// what replay folds them into.
type logOp struct {
	kind string // append | torn | snapshot | reopen
	k    int    // state written (append, torn, snapshot)
	base int    // state the record extends; -1 = the empty state
	want int    // state the fold must equal afterwards; -1 = none
}

// appendAll appends records from..to, each based on its predecessor, and
// expects the fold to follow.
func appendAll(from, to int) []logOp {
	var ops []logOp
	for k := from; k <= to; k++ {
		ops = append(ops, logOp{kind: "append", k: k, base: k - 1, want: k})
	}
	return ops
}

func concatOps(parts ...[]logOp) []logOp {
	var out []logOp
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestStepLogFoldMatchesCapture: after every write to a job's step log (and
// snapshot), folding what is on disk gives exactly the state the explorer
// captured at the last durable step — equal structs and identical
// serialized bytes — for an exhaustive and a lazy walk, through failed,
// retried and torn appends, snapshots at any step and a snapshot-only store.
func TestStepLogFoldMatchesCapture(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		states := walkStates(t, "Adder32", lazy)
		n := len(states)
		m := n / 3
		scripts := map[string][]logOp{
			"every step": appendAll(0, n-1),
			// A failed append leaves the base where it was, so the next
			// record is based one state further back and holds two steps.
			"missing record": concatOps(appendAll(0, m-1),
				[]logOp{{kind: "append", k: m + 1, base: m - 1, want: m + 1}},
				appendAll(m+2, n-1)),
			// A write that landed but whose fsync failed is retried whole.
			"duplicate record": concatOps(appendAll(0, m),
				[]logOp{{kind: "append", k: m, base: m - 1, want: m}},
				appendAll(m+1, n-1)),
			// A crash tears the last line; the restarted process reopens the
			// log and its first append must not glue onto the fragment.
			"torn final line": concatOps(appendAll(0, m),
				[]logOp{{kind: "torn", k: m + 1, base: m, want: m}, {kind: "reopen", want: m}},
				appendAll(m+1, n-1)),
			// Reconciliation writes the state whole, based at step 0.
			"whole-state record": concatOps(appendAll(0, m),
				[]logOp{{kind: "append", k: 2 * m, base: -1, want: 2 * m}},
				appendAll(2*m+1, n-1)),
			// Records both older and newer than the snapshot.
			"snapshot between records": concatOps(appendAll(0, 2*m),
				[]logOp{{kind: "snapshot", k: m, want: 2 * m}},
				appendAll(2*m+1, n-1)),
			"snapshot ahead of records": concatOps(appendAll(0, 2),
				[]logOp{{kind: "snapshot", k: m, want: m}},
				appendAll(m+1, n-1)),
			"snapshot only": {{kind: "snapshot", k: 0, want: 0}, {kind: "snapshot", k: m, want: m}, {kind: "snapshot", k: n - 1, want: n - 1}},
		}
		for name, ops := range scripts {
			t.Run(fmt.Sprintf("lazy=%t/%s", lazy, name), func(t *testing.T) {
				runLogScript(t, states, ops)
			})
		}
	}
}

func runLogScript(t *testing.T, states []core.ExplorerState, ops []logOp) {
	s := openTestStore(t)
	const id = "job-fold"
	jnl, err := s.Journal(id)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		switch op.kind {
		case "append":
			if err := jnl.Checkpoint(&states[op.k], PositionOf(stateAt(states, op.base))); err != nil {
				t.Fatalf("op %d: Checkpoint: %v", i, err)
			}
		case "torn":
			line, err := stepLine(&states[op.k], PositionOf(stateAt(states, op.base)))
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(s.jobPath(id, stepsExt), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(line[:len(line)/2]); err != nil {
				t.Fatal(err)
			}
			f.Close()
		case "snapshot":
			if err := s.WriteCheckpoint(id, &states[op.k]); err != nil {
				t.Fatalf("op %d: WriteCheckpoint: %v", i, err)
			}
		case "reopen":
			if err := jnl.Close(); err != nil {
				t.Fatal(err)
			}
			if jnl, err = s.Journal(id); err != nil {
				t.Fatal(err)
			}
		}
		got := s.loadCheckpoint(id)
		want := stateAt(states, op.want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d (%s k=%d base=%d): fold reaches step %d, want step %d (or differs in content)",
				i, op.kind, op.k, op.base, PositionOf(got).Step, PositionOf(want).Step)
		}
		if want != nil {
			var gb, wb bytes.Buffer
			if _, err := got.WriteTo(&gb); err != nil {
				t.Fatal(err)
			}
			if _, err := want.WriteTo(&wb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
				t.Fatalf("op %d: folded state serializes differently from the captured one", i)
			}
		}
	}
}

// TestStepLogWriteAmplification: a full curve's step log stays within 1.5x
// of the final state's compact JSON, where rewriting the whole state after
// every step wrote 25-113x it.
func TestStepLogWriteAmplification(t *testing.T) {
	for _, name := range []string{"Adder32", "Mult8", "SAD"} {
		states := walkStates(t, name, false)
		s := openTestStore(t)
		jnl, err := s.Journal("job-amp")
		if err != nil {
			t.Fatal(err)
		}
		var base Position
		for k := range states {
			if err := jnl.Checkpoint(&states[k], base); err != nil {
				t.Fatal(err)
			}
			base = PositionOf(&states[k])
		}
		fi, err := os.Stat(s.jobPath("job-amp", stepsExt))
		if err != nil {
			t.Fatal(err)
		}
		final, err := json.Marshal(&states[len(states)-1])
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(fi.Size()) / float64(len(final))
		t.Logf("%s: %d steps, step log %d B, final state %d B (%.2fx)", name, len(states), fi.Size(), len(final), ratio)
		if ratio > 1.5 {
			t.Errorf("%s: step log is %.2fx the final state, want <= 1.5x", name, ratio)
		}
	}
}
