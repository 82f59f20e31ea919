package store

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/qor"
)

func openTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func smallCircuit() *logic.Circuit {
	b := logic.NewBuilder("small")
	as := b.Inputs("a", 3)
	bs := b.Inputs("b", 3)
	var outs []logic.NodeID
	carry := b.Const(false)
	for i := 0; i < 3; i++ {
		axb := b.Xor(as[i], bs[i])
		outs = append(outs, b.Xor(axb, carry))
		carry = b.Or(b.And(as[i], bs[i]), b.And(axb, carry))
	}
	outs = append(outs, carry)
	b.Outputs("s", outs)
	return b.C
}

func TestJournalReplayRoundTrip(t *testing.T) {
	s := openTestStore(t)
	circ := smallCircuit()
	spec := qor.Unsigned("s", len(circ.Outputs))
	cfg := core.Config{K: 4, M: 3, Samples: 512, Seed: 9, ExploreFully: true, MaxSteps: 3}

	req, err := NewRequestRecord(circ, spec, cfg, "", "", 0)
	if err != nil {
		t.Fatalf("NewRequestRecord: %v", err)
	}
	j, err := s.Journal("job-test")
	if err != nil {
		t.Fatalf("Journal: %v", err)
	}
	if err := j.Request(req); err != nil {
		t.Fatalf("Request: %v", err)
	}
	if err := j.State("running", ""); err != nil {
		t.Fatalf("State: %v", err)
	}
	if err := j.Trace(core.TracePoint{Step: 0, BlockIndex: 2, NewDegree: 1}); err != nil {
		t.Fatalf("Trace: %v", err)
	}
	if err := j.State("done", ""); err != nil {
		t.Fatalf("State: %v", err)
	}

	recs, err := s.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("Replay returned %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.ID != "job-test" || rec.State != "done" || !rec.Terminal() {
		t.Fatalf("record = %+v", rec)
	}
	if len(rec.Trace) != 1 || rec.Trace[0].BlockIndex != 2 {
		t.Fatalf("trace not replayed: %+v", rec.Trace)
	}
	if rec.CorruptLines != 0 {
		t.Fatalf("unexpected corrupt lines: %d", rec.CorruptLines)
	}

	// The request materializes back to an equivalent circuit and config.
	mc, mspec, mcfg, err := rec.Request.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if mc.NumInputs() != circ.NumInputs() || mc.NumOutputs() != circ.NumOutputs() {
		t.Fatalf("materialized circuit %d/%d ports, want %d/%d",
			mc.NumInputs(), mc.NumOutputs(), circ.NumInputs(), circ.NumOutputs())
	}
	if len(mspec.Groups) != 1 || len(mspec.Groups[0].Bits) != len(circ.Outputs) {
		t.Fatalf("materialized spec = %+v", mspec)
	}
	if mcfg.K != cfg.K || mcfg.M != cfg.M || mcfg.Samples != cfg.Samples || mcfg.Seed != cfg.Seed ||
		mcfg.ExploreFully != cfg.ExploreFully || mcfg.MaxSteps != cfg.MaxSteps {
		t.Fatalf("materialized config = %+v, want %+v", mcfg, cfg)
	}
}

func TestBenchmarkRequestMaterializesIdentically(t *testing.T) {
	bm, err := bench.ByName("Fig3")
	if err != nil {
		t.Fatalf("bench.ByName: %v", err)
	}
	req, err := NewRequestRecord(bm.Circ, bm.Spec, core.Config{}, "Fig3", "", 0)
	if err != nil {
		t.Fatalf("NewRequestRecord: %v", err)
	}
	if req.CircuitBLIF != "" {
		t.Fatal("benchmark request should not serialize the circuit")
	}
	mc, _, _, err := req.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if mc.Name != bm.Circ.Name || len(mc.Nodes) != len(bm.Circ.Nodes) {
		t.Fatalf("benchmark did not materialize to the identical circuit")
	}
}

func TestReplaySkipsCorruptLines(t *testing.T) {
	s := openTestStore(t)
	var warnings strings.Builder
	s.SetSlogger(slog.New(slog.NewTextHandler(&warnings, nil)))
	req, err := NewRequestRecord(smallCircuit(), qor.Unsigned("s", 4), core.Config{}, "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Journal("job-corrupt")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Request(req); err != nil {
		t.Fatal(err)
	}
	if err := j.State("running", ""); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the journal: a garbage line in the middle and a truncated
	// record at the tail, as a crash mid-append would leave.
	path := filepath.Join(s.Dir(), jobsSubdir, "job-corrupt"+journalExt)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(f, `{"type":"trace","trace":{`) // truncated JSON
	fmt.Fprintln(f, `not json at all`)
	fmt.Fprintln(f, `{"type":"state","state":"running"}`) // still readable after damage
	f.Close()

	recs, err := s.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("Replay returned %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.State != "running" {
		t.Fatalf("state = %q, want running (record after the damage must still fold)", rec.State)
	}
	if rec.CorruptLines != 2 {
		t.Fatalf("CorruptLines = %d, want 2", rec.CorruptLines)
	}
	if !strings.Contains(warnings.String(), "skipping record") {
		t.Fatalf("corrupt lines were skipped silently; want a logged warning, got %q", warnings.String())
	}
}

// TestReplayReadsPastOverLongLine: a line longer than replay reads is
// skipped and counted, and replay reads on, so a journal's later records
// and a step log's later records still fold. Before, replay stopped at such
// a line: a job done after it replayed as running, and re-ran from step 0
// because its step log was gone.
func TestReplayReadsPastOverLongLine(t *testing.T) {
	s := openTestStore(t)
	s.SetSlogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	states := walkStates(t, "Adder32", false)
	req, err := NewRequestRecord(smallCircuit(), qor.Unsigned("s", 4), core.Config{}, "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := s.Journal("job-long")
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Request(req); err != nil {
		t.Fatal(err)
	}
	if err := jnl.State("running", ""); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Checkpoint(&states[0], Position{}); err != nil {
		t.Fatal(err)
	}
	// The cap is lowered past every record written here, and one line of
	// each file is longer than it.
	defer func(n int) { maxLine = n }(maxLine)
	maxLine = 0
	for _, ext := range []string{journalExt, stepsExt} {
		data, err := os.ReadFile(filepath.Join(s.Dir(), jobsSubdir, "job-long"+ext))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.SplitAfter(string(data), "\n") {
			maxLine = max(maxLine, len(line)+1024)
		}
	}
	long := strings.Repeat("x", 2*maxLine) + "\n"
	for _, ext := range []string{journalExt, stepsExt} {
		f, err := os.OpenFile(filepath.Join(s.Dir(), jobsSubdir, "job-long"+ext), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(long); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if err := jnl.Checkpoint(&states[1], PositionOf(&states[0])); err != nil {
		t.Fatal(err)
	}
	if err := jnl.State("cancelled", ""); err != nil {
		t.Fatal(err)
	}

	recs, err := s.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("Replay returned %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.State != "cancelled" || rec.CorruptLines != 1 {
		t.Fatalf("replayed %s with %d corrupt lines, want cancelled with 1", rec.State, rec.CorruptLines)
	}
	if got := PositionOf(rec.Checkpoint); got != PositionOf(&states[1]) {
		t.Fatalf("step log folds to %+v, want %+v", got, PositionOf(&states[1]))
	}
	if len(rec.Trace) != 2 {
		t.Fatalf("trace has %d points, want 2 (one per folded step)", len(rec.Trace))
	}
}

func TestReplaySkipsJournalWithoutRequest(t *testing.T) {
	s := openTestStore(t)
	j, err := s.Journal("job-headless")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.State("running", ""); err != nil {
		t.Fatal(err)
	}
	recs, err := s.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("a journal with no request record must not replay; got %+v", recs[0])
	}
}

func TestCheckpointRoundTripAndCorruption(t *testing.T) {
	s := openTestStore(t)
	if cp, err := s.ReadCheckpoint("job-x"); err != nil || cp != nil {
		t.Fatalf("missing checkpoint: got (%v, %v), want (nil, nil)", cp, err)
	}
	st := &core.ExplorerState{
		Step:    1,
		Degrees: []int{3, 2},
		Steps:   []core.Step{{BlockIndex: 1, NewDegree: 2, ModelArea: 10}},
		Frontier: []core.FrontierPoint{
			{Step: -1, BlockIndex: -1, ModelArea: 12, Committed: true},
			{Step: 0, BlockIndex: 1, Degree: 2, ModelArea: 10, Error: 0.01, Committed: true},
		},
		AccurateModelArea: 12,
		Seed:              3,
		Samples:           1024,
	}
	if err := s.WriteCheckpoint("job-x", st); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	got, err := s.ReadCheckpoint("job-x")
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	if got == nil || got.Step != 1 || len(got.Frontier) != 2 || got.Degrees[0] != 3 {
		t.Fatalf("checkpoint round trip = %+v", got)
	}

	// A corrupt checkpoint must not poison replay: the job degrades to
	// resuming from step 0.
	path := filepath.Join(s.Dir(), jobsSubdir, "job-x"+checkpointExt)
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadCheckpoint("job-x"); err == nil {
		t.Fatal("corrupt checkpoint read did not error")
	}
	req, err := NewRequestRecord(smallCircuit(), qor.Unsigned("s", 4), core.Config{}, "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Journal("job-x")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Request(req); err != nil {
		t.Fatal(err)
	}
	if err := j.State("running", ""); err != nil {
		t.Fatal(err)
	}
	recs, err := s.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(recs) != 1 || recs[0].Checkpoint != nil {
		t.Fatalf("corrupt checkpoint should replay as nil: %+v", recs)
	}
}

func TestValidID(t *testing.T) {
	for _, bad := range []string{"", "a/b", `a\b`, "..", "x..y"} {
		if err := validID(bad); err == nil {
			t.Errorf("validID(%q) accepted", bad)
		}
	}
	if err := validID("job-0123abcd"); err != nil {
		t.Errorf("validID rejected a normal id: %v", err)
	}
}

func TestResultRecordRoundTrip(t *testing.T) {
	circ := smallCircuit()
	spec := qor.Unsigned("s", len(circ.Outputs))
	res, err := core.Approximate(circ, spec, core.Config{K: 4, M: 3, Samples: 512, Seed: 2, ExploreFully: true, MaxSteps: 4})
	if err != nil {
		t.Fatalf("Approximate: %v", err)
	}
	rr, err := NewResultRecord(res)
	if err != nil {
		t.Fatalf("NewResultRecord: %v", err)
	}
	if rr.BestStep != res.BestStep || len(rr.Steps) != len(res.Steps) {
		t.Fatalf("record = %+v", rr)
	}
	if !strings.Contains(rr.BestBLIF, ".model") {
		t.Fatalf("BestBLIF does not look like BLIF: %q", rr.BestBLIF[:min(40, len(rr.BestBLIF))])
	}
	best, err := rr.BestCircuit()
	if err != nil {
		t.Fatalf("BestCircuit: %v", err)
	}
	if best.NumOutputs() != circ.NumOutputs() {
		t.Fatalf("restored circuit has %d outputs, want %d", best.NumOutputs(), circ.NumOutputs())
	}
	fr := rr.RestoreFrontier()
	if fr == nil {
		t.Fatal("RestoreFrontier returned nil")
	}
	if fr.Size() != res.Frontier.Size() || len(fr.Front()) != len(res.Frontier.Front()) {
		t.Fatalf("restored frontier %d/%d points, want %d/%d",
			fr.Size(), len(fr.Front()), res.Frontier.Size(), len(res.Frontier.Front()))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
