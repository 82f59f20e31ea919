package exp

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

func goldenManifest(t *testing.T) *Manifest {
	t.Helper()
	m, err := ParseManifest([]byte(`{
		"name": "golden",
		"hypothesis": "incremental evaluation is faster on every seed",
		"type": "statistical",
		"seeds": [1, 2, 3],
		"repeats": 2,
		"axes": {"circuit": ["Fig3"], "incremental": [false, true]},
		"pass": {"kind": "ratio", "metric": "evals_per_sec",
		         "compare_axis": "incremental", "baseline": "false",
		         "direction": "up", "min_ratio": 1.2}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// goldenRows builds a fixed synthetic row set: baseline 1000 evals/s,
// incremental 3-5x that, slight per-seed and per-repeat variation.
func goldenRows(m *Manifest) []Row {
	var rows []Row
	for ci, cell := range m.Cells() {
		for si, seed := range m.Seeds {
			for rep := 0; rep < m.Repeats; rep++ {
				eps := 1000.0 + 10*float64(si) + float64(rep)
				hash := "aaaa0000"
				if cell.Incremental {
					eps *= 3 + float64(si)
					hash = "bbbb1111"
				}
				evals := 40
				rows = append(rows, Row{
					Cell:        m.CellID(cell),
					Circuit:     cell.Circuit,
					Workers:     cell.Workers,
					Incremental: cell.Incremental,
					Cache:       cell.Cache,
					Faults:      cell.FaultsLabel,
					Seed:        seed,
					Repeat:      rep,
					WallSeconds: 0.25 - 0.05*float64(ci),
					Steps:       4,
					Evals:       evals,
					EvalSeconds: float64(evals) / eps,
					EvalsPerSec: eps,
					BestError:   0.03,
					NormArea:    0.64,
					ResultHash:  hash,
				})
			}
		}
	}
	return rows
}

func checkGolden(t *testing.T, name string, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestSummaryGolden pins the full rendered summary against golden files:
// summarization is a pure function of (manifest, rows), so the output is
// byte-stable.
func TestSummaryGolden(t *testing.T) {
	m := goldenManifest(t)
	sum := Summarize(m, goldenRows(m))
	if !sum.Pass {
		t.Fatalf("golden summary should pass, got verdict %q", sum.Verdict)
	}
	checkGolden(t, "summary.md.golden", sum.Markdown(m, "1999-12-31_235959"))
	checkGolden(t, "summary_grouped.csv.golden", sum.GroupedCSV())
}

func TestSummaryRatioVerdicts(t *testing.T) {
	m := goldenManifest(t)
	rows := goldenRows(m)
	sum := Summarize(m, rows)
	if len(sum.Comparisons) != 1 {
		t.Fatalf("got %d comparisons, want 1", len(sum.Comparisons))
	}
	c := sum.Comparisons[0]
	if !c.Directional || !c.Pass || c.Effect != "significant" {
		t.Errorf("comparison = %+v, want directional significant pass", c)
	}
	if len(c.Seeds) != 3 {
		t.Errorf("got %d seed ratios, want 3", len(c.Seeds))
	}

	// Invert one seed's direction: directional consistency must fail even
	// though the mean ratio stays far above the bar.
	for i := range rows {
		if rows[i].Incremental && rows[i].Seed == 2 {
			rows[i].EvalsPerSec = 500
		}
	}
	sum = Summarize(m, rows)
	if sum.Pass {
		t.Error("summary passed with one seed moving the wrong way")
	}
	if c := sum.Comparisons[0]; c.Directional {
		t.Error("comparison still marked directional")
	}
}

// TestSummaryOverheadBound pins the MinRatio < 1 semantics: the criterion is
// an overhead bound, so a non-directional comparison still passes as long as
// no seed falls below the floor — and still fails when one does.
func TestSummaryOverheadBound(t *testing.T) {
	m := goldenManifest(t)
	m.Pass.MinRatio = 0.85
	rows := goldenRows(m)
	// One seed moves the wrong way but stays above the floor: ratio 0.9.
	for i := range rows {
		if rows[i].Incremental && rows[i].Seed == 2 {
			rows[i].EvalsPerSec = 0.9 * (1000.0 + 10 + float64(rows[i].Repeat))
		}
	}
	sum := Summarize(m, rows)
	c := sum.Comparisons[0]
	if c.Directional {
		t.Error("comparison marked directional with a seed below 1")
	}
	if !sum.Pass {
		t.Errorf("overhead bound failed with all seeds above the floor: %q", sum.Verdict)
	}
	// Push that seed below the floor: the bound must bite.
	for i := range rows {
		if rows[i].Incremental && rows[i].Seed == 2 {
			rows[i].EvalsPerSec = 500
		}
	}
	if sum = Summarize(m, rows); sum.Pass {
		t.Error("overhead bound passed with a seed below the floor")
	}
}

func TestSummaryEqualVerdicts(t *testing.T) {
	m, err := ParseManifest([]byte(`{
		"name": "eq",
		"hypothesis": "workers is pure scheduling",
		"type": "deterministic",
		"seeds": [7],
		"axes": {"circuit": ["Fig3"], "workers": [1, 2]},
		"pass": {"kind": "equal", "compare_axis": "workers"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{Cell: "fig3_w1", Circuit: "Fig3", Workers: 1, Incremental: true, Cache: "cold", Faults: "none", Seed: 7, ResultHash: "h1"},
		{Cell: "fig3_w2", Circuit: "Fig3", Workers: 2, Incremental: true, Cache: "cold", Faults: "none", Seed: 7, ResultHash: "h1"},
	}
	if sum := Summarize(m, rows); !sum.Pass {
		t.Errorf("identical hashes failed: %q", sum.Verdict)
	}
	rows[1].ResultHash = "h2"
	sum := Summarize(m, rows)
	if sum.Pass {
		t.Errorf("diverging hashes passed: %q", sum.Verdict)
	}
	if len(sum.Equal) != 1 || len(sum.Equal[0].Hashes) != 2 {
		t.Errorf("equal checks = %+v", sum.Equal)
	}
}
