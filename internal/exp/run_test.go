package exp

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

func runGrid(t *testing.T, manifest string) *Run {
	t.Helper()
	m, err := ParseManifest([]byte(manifest))
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{OutDir: t.TempDir(), Stamp: "0000-00-00_000000", Logf: t.Logf}
	run, err := r.Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

const microGrid = `{
	"name": "micro",
	"hypothesis": "the harness is deterministic across worker counts",
	"type": "deterministic",
	"seeds": [42],
	"samples": 256,
	"max_steps": 2,
	"axes": {"circuit": ["Fig3"], "workers": [1, 2]},
	"pass": {"kind": "equal", "compare_axis": "workers"}
}`

// TestRunSeedPinnedDeterminism runs the same tiny grid twice and asserts
// every non-timing field of every row — hashes, steps, eval counts, QoR —
// is identical between the runs.
func TestRunSeedPinnedDeterminism(t *testing.T) {
	a := runGrid(t, microGrid)
	b := runGrid(t, microGrid)
	if !a.Summary.Pass || !b.Summary.Pass {
		t.Fatalf("runs did not pass: %q / %q", a.Summary.Verdict, b.Summary.Verdict)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if ra.Cell != rb.Cell || ra.Seed != rb.Seed || ra.Repeat != rb.Repeat {
			t.Fatalf("row %d identity differs: %+v vs %+v", i, ra, rb)
		}
		if ra.ResultHash != rb.ResultHash {
			t.Errorf("row %d (%s): hash %s vs %s", i, ra.Cell, ra.ResultHash, rb.ResultHash)
		}
		if ra.Steps != rb.Steps || ra.Evals != rb.Evals {
			t.Errorf("row %d (%s): steps/evals %d/%d vs %d/%d", i, ra.Cell, ra.Steps, ra.Evals, rb.Steps, rb.Evals)
		}
		if ra.BestError != rb.BestError || ra.NormArea != rb.NormArea {
			t.Errorf("row %d (%s): QoR %v/%v vs %v/%v", i, ra.Cell, ra.BestError, ra.NormArea, rb.BestError, rb.NormArea)
		}
	}
}

// TestRunWritesArtifacts checks the run-folder contract: manifest copy,
// rows.csv, per-cell JSON, and both summary tables.
func TestRunWritesArtifacts(t *testing.T) {
	run := runGrid(t, microGrid)
	for _, name := range []string{"manifest.json", "rows.csv", "summary.md", "summary_grouped.csv",
		filepath.Join("cells", "fig3_w1.json"), filepath.Join("cells", "fig3_w2.json")} {
		p := filepath.Join(run.Dir, name)
		info, err := os.Stat(p)
		if err != nil {
			t.Errorf("missing artifact %s: %v", name, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("artifact %s is empty", name)
		}
	}
}

// TestRunEngineFaultCells drives the engine+store path: a faults axis with
// a fault-free baseline and an absorbable schedule must produce
// byte-identical results.
func TestRunEngineFaultCells(t *testing.T) {
	run := runGrid(t, `{
		"name": "chaos-micro",
		"hypothesis": "absorbable faults do not change results",
		"type": "deterministic",
		"seeds": [42],
		"samples": 256,
		"max_steps": 2,
		"axes": {"circuit": ["Fig3"], "faults": ["", "journal.append:after=1,times=2,err=eio"]},
		"pass": {"kind": "equal", "compare_axis": "faults"}
	}`)
	if !run.Summary.Pass {
		t.Fatalf("chaos micro grid failed: %q", run.Summary.Verdict)
	}
	if len(run.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(run.Rows))
	}
	if run.Rows[0].ResultHash != run.Rows[1].ResultHash {
		t.Errorf("fault schedule changed the result: %s vs %s", run.Rows[0].ResultHash, run.Rows[1].ResultHash)
	}
}
