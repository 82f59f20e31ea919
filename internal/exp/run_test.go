package exp

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// TestRowsDescribeReturnedCircuit pins that a row reports the circuit the
// run returned. At a 1e-9 threshold Adder32's first step already exceeds the
// budget, so the run returns the accurate circuit: error 0, area 1, not the
// values of the step it committed.
func TestRowsDescribeReturnedCircuit(t *testing.T) {
	run := runGrid(t, `{
		"name": "returned",
		"hypothesis": "rows describe the returned circuit",
		"type": "deterministic",
		"seeds": [1],
		"samples": 1024,
		"threshold": 1e-9,
		"axes": {"circuit": ["Adder32"], "workers": [1, 2]},
		"pass": {"kind": "equal", "compare_axis": "workers"}
	}`)
	for _, r := range run.Rows {
		if r.Steps == 0 || r.BestError != 0 || r.NormArea != 1 {
			t.Errorf("%s: %d steps, best error %g, norm area %g; want the accurate circuit (0, 1)",
				r.Cell, r.Steps, r.BestError, r.NormArea)
		}
	}
}

const paperGrid = `{
	"name": "paper-micro",
	"hypothesis": "the paper workload reads every budget from one walk",
	"type": "statistical",
	"workload": "paper",
	"seeds": [1, 2, 3],
	"samples": 256,
	"final_samples": 1024,
	"axes": {"circuit": ["BUT"], "basis": ["columns", "asso"]},
	"pass": {"kind": "paper"}
}`

// TestPaperWorkload runs a small paper grid and checks that each row reads
// both budgets and the trace from its one walk, and that the verdict and
// summary name every failing (cell, criterion) pair.
func TestPaperWorkload(t *testing.T) {
	run := runGrid(t, paperGrid)
	if len(run.Rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(run.Rows))
	}
	for _, r := range run.Rows {
		p := r.Paper
		if p == nil || len(p.Budgets) != 2 || len(p.Trace) != r.Steps+1 || p.Inputs != 16 || p.Outputs != 18 {
			t.Fatalf("%s seed %d: outcome %+v does not cover both budgets and the %d-step walk", r.Cell, r.Seed, p, r.Steps)
		}
		if b := p.Budgets[0]; b.BestStep < 0 && (b.AreaSavings != 0 || r.BestError != 0 || r.NormArea != 1) {
			t.Errorf("%s seed %d: the accurate circuit reads savings %g, error %g, area %g", r.Cell, r.Seed, b.AreaSavings, r.BestError, r.NormArea)
		}
	}
	summary, err := os.ReadFile(filepath.Join(run.Dir, "summary.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(summary), "**Verdict: "+run.Summary.Verdict+"**") {
		t.Errorf("summary.md does not state the verdict %q", run.Summary.Verdict)
	}
	for _, c := range run.Summary.Paper {
		named := strings.Contains(run.Summary.Verdict, c.Cell+" "+c.Criterion)
		listed := strings.Contains(string(summary), fmt.Sprintf("| %s | %s | %s | %s |", c.Cell, c.Criterion, seedList(c.FailedSeeds), passMark(c.Pass)))
		if named == c.Pass || !listed {
			t.Errorf("check %+v: named in the verdict %t, listed in summary.md %t", c, named, listed)
		}
	}
	allPass := true
	for _, c := range run.Summary.Paper {
		allPass = allPass && c.Pass
	}
	if len(run.Summary.Paper) != 6 || run.Summary.Pass != allPass {
		t.Errorf("%d checks, verdict %q", len(run.Summary.Paper), run.Summary.Verdict)
	}
}
