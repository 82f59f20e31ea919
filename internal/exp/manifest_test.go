package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func validManifest() string {
	return `{
		"name": "t",
		"hypothesis": "incremental is faster",
		"type": "statistical",
		"seeds": [1, 2, 3],
		"axes": {"circuit": ["Fig3"], "incremental": [false, true]},
		"pass": {"kind": "ratio", "metric": "evals_per_sec",
		         "compare_axis": "incremental", "baseline": "false", "direction": "up"}
	}`
}

func TestParseManifestDefaults(t *testing.T) {
	m, err := ParseManifest([]byte(validManifest()))
	if err != nil {
		t.Fatal(err)
	}
	if m.Workload != WorkloadExplore {
		t.Errorf("default workload = %q, want %q", m.Workload, WorkloadExplore)
	}
	if m.Repeats != 1 || m.Samples != 1<<12 || m.FaultSeed != 1 {
		t.Errorf("defaults = repeats %d samples %d faultSeed %d", m.Repeats, m.Samples, m.FaultSeed)
	}
	if m.Pass.MinRatio != 1.0 {
		t.Errorf("default min_ratio = %v, want 1.0", m.Pass.MinRatio)
	}
}

func TestParseManifestRejects(t *testing.T) {
	mutate := func(f func(s string) string) string { return f(validManifest()) }
	cases := map[string]string{
		"unknown field": mutate(func(s string) string {
			return strings.Replace(s, `"name"`, `"nmae"`, 1)
		}),
		"missing hypothesis": mutate(func(s string) string {
			return strings.Replace(s, "incremental is faster", "", 1)
		}),
		"two seeds statistical": mutate(func(s string) string {
			return strings.Replace(s, "[1, 2, 3]", "[1, 2]", 1)
		}),
		"duplicate seeds": mutate(func(s string) string {
			return strings.Replace(s, "[1, 2, 3]", "[1, 2, 2]", 1)
		}),
		"ratio on deterministic": mutate(func(s string) string {
			return strings.Replace(s, `"statistical"`, `"deterministic"`, 1)
		}),
		"bad direction": mutate(func(s string) string {
			return strings.Replace(s, `"up"`, `"sideways"`, 1)
		}),
		"unknown metric": mutate(func(s string) string {
			return strings.Replace(s, "evals_per_sec", "vibes", 1)
		}),
		"baseline not on axis": mutate(func(s string) string {
			return strings.Replace(s, `"baseline": "false"`, `"baseline": "maybe"`, 1)
		}),
		"single-value compare axis": mutate(func(s string) string {
			return strings.Replace(s, "[false, true]", "[true]", 1)
		}),
		"bad cache value": mutate(func(s string) string {
			return strings.Replace(s, `"incremental": [false, true]`,
				`"incremental": [false, true], "cache": ["tepid"]`, 1)
		}),
		"no circuits": mutate(func(s string) string {
			return strings.Replace(s, `["Fig3"]`, `[]`, 1)
		}),
		"unknown basis": mutate(func(s string) string {
			return strings.Replace(s, `"incremental": [false, true]`,
				`"incremental": [false, true], "basis": ["rows"]`, 1)
		}),
		"paper kind on explore": mutate(func(s string) string {
			return strings.Replace(s, `"kind": "ratio"`, `"kind": "paper"`, 1)
		}),
		"paper step cap":     strings.Replace(paperGrid, `"samples": 256`, `"samples": 256, "max_steps": 30`, 1),
		"paper threshold":    strings.Replace(paperGrid, `"samples": 256`, `"samples": 256, "threshold": 0.25`, 1),
		"paper explore kind": strings.Replace(paperGrid, `"kind": "paper"`, `"kind": "equal", "compare_axis": "basis"`, 1),
		"paper one seed":     strings.Replace(paperGrid, `[1, 2, 3]`, `[1]`, 1),
	}
	if _, err := ParseManifest([]byte(paperGrid)); err != nil {
		t.Errorf("paper grid rejected: %v", err)
	}
	for name, bad := range cases {
		if _, err := ParseManifest([]byte(bad)); err == nil {
			t.Errorf("%s: accepted, want error", name)
		}
	}
}

func TestCellsExpansionOrder(t *testing.T) {
	m, err := ParseManifest([]byte(`{
		"name": "grid",
		"hypothesis": "expansion is the deterministic cross-product",
		"type": "deterministic",
		"seeds": [1],
		"axes": {"circuit": ["Fig3", "BUT"], "workers": [1, 2], "incremental": [false, true]},
		"pass": {"kind": "equal", "compare_axis": "workers"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cells := m.Cells()
	if len(cells) != 8 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	var ids []string
	for _, c := range cells {
		ids = append(ids, m.CellID(c))
	}
	want := []string{
		"fig3_w1_inc-false", "fig3_w1_inc-true", "fig3_w2_inc-false", "fig3_w2_inc-true",
		"but_w1_inc-false", "but_w1_inc-true", "but_w2_inc-false", "but_w2_inc-true",
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("cell %d = %q, want %q (full order %v)", i, ids[i], want[i], ids)
		}
	}
	// Group key drops the compare axis: w1 and w2 cells share groups.
	if g1, g2 := m.GroupKey(cells[0]), m.GroupKey(cells[2]); g1 != g2 {
		t.Errorf("GroupKey differs across compare axis: %q vs %q", g1, g2)
	}
	if g1, g2 := m.GroupKey(cells[0]), m.GroupKey(cells[1]); g1 == g2 {
		t.Errorf("GroupKey %q collapsed the incremental axis", g1)
	}
}

func TestCellsFaultAxisRoutesThroughEngine(t *testing.T) {
	m, err := ParseManifest([]byte(`{
		"name": "f",
		"hypothesis": "faults do not change results",
		"type": "deterministic",
		"seeds": [1],
		"axes": {"circuit": ["Fig3"], "faults": ["", "journal.append:err=eio"]},
		"pass": {"kind": "equal", "compare_axis": "faults"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cells := m.Cells()
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	for _, c := range cells {
		if !c.UseEngine {
			t.Errorf("cell %s: UseEngine = false, want true (faults axis declared)", m.CellID(c))
		}
	}
	if cells[0].FaultsLabel != "none" || cells[1].FaultsLabel != "f1" {
		t.Errorf("fault labels = %q, %q", cells[0].FaultsLabel, cells[1].FaultsLabel)
	}
}

// TestInTreeGridsParse pins that every committed grid manifest, the paper
// grids included, parses and validates.
func TestInTreeGridsParse(t *testing.T) {
	grids, err := filepath.Glob("../../scripts/experiments/*.json")
	paper, _ := filepath.Glob("../../scripts/paper/*.json")
	if err != nil || len(grids) == 0 || len(paper) == 0 {
		t.Fatalf("no in-tree grids found: %v", err)
	}
	grids = append(grids, paper...)
	for _, g := range grids {
		data, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseManifest(data); err != nil {
			t.Errorf("%s: %v", filepath.Base(g), err)
		}
	}
}
