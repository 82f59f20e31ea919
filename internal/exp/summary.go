package exp

import (
	"fmt"
	"os"
	"strings"
)

// summaryMetrics are the row fields the grouped tables aggregate, in column
// order.
var summaryMetrics = []string{
	"wall_seconds", "evals", "evals_per_sec", "steps", "best_error", "norm_area",
}

// Stat is a mean/min/max aggregate over a sample of rows.
type Stat struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	N    int     `json:"n"`
}

func computeStat(vals []float64) Stat {
	if len(vals) == 0 {
		return Stat{}
	}
	s := Stat{Min: vals[0], Max: vals[0], N: len(vals)}
	var sum float64
	for _, v := range vals {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(vals))
	return s
}

// CellSummary aggregates all rows of one cell across seeds and repeats.
type CellSummary struct {
	Cell string `json:"cell"`
	// Group is the cell's comparison group (identity minus the compare axis).
	Group string `json:"group"`
	// AxisValue is the cell's compare-axis token.
	AxisValue string          `json:"axis_value"`
	N         int             `json:"n"`
	Metrics   map[string]Stat `json:"metrics"`
	// Hashes lists the distinct result hashes seen across the cell's rows —
	// more than one means the cell is non-deterministic, a bug regardless of
	// the grid's pass criterion.
	Hashes []string `json:"hashes"`
}

// SeedRatio is one seed's variant-vs-baseline comparison. Ratio is
// normalized so that >1 always means "moved in the predicted direction".
type SeedRatio struct {
	Seed     int64   `json:"seed"`
	Baseline float64 `json:"baseline"`
	Variant  float64 `json:"variant"`
	Ratio    float64 `json:"ratio"`
}

// Comparison is one (group, variant) ratio verdict under the experiment
// standards: directional consistency requires the predicted direction on
// every seed; effect size is significant (>20% on all seeds), weak, or
// inconclusive (<10% on any seed).
type Comparison struct {
	Group   string      `json:"group"`
	Variant string      `json:"variant"`
	Metric  string      `json:"metric"`
	Seeds   []SeedRatio `json:"seeds"`
	Mean    float64     `json:"mean"`
	Min     float64     `json:"min"`
	Max     float64     `json:"max"`
	// Directional reports whether the predicted direction held on all seeds.
	Directional bool `json:"directional"`
	// Effect is "significant", "weak", or "inconclusive".
	Effect string `json:"effect"`
	Pass   bool   `json:"pass"`
}

// EqualCheck is one (group, seed) byte-identity verdict: every compare-axis
// value (and every repeat) must produce the same result hash.
type EqualCheck struct {
	Group  string   `json:"group"`
	Seed   int64    `json:"seed"`
	Hashes []string `json:"hashes"`
	Pass   bool     `json:"pass"`
}

// Summary is the evaluated outcome of a grid run.
type Summary struct {
	Cells       []CellSummary `json:"cells"`
	Comparisons []Comparison  `json:"comparisons,omitempty"`
	Equal       []EqualCheck  `json:"equal,omitempty"`
	Paper       []PaperCheck  `json:"paper,omitempty"`
	Pass        bool          `json:"pass"`
	Verdict     string        `json:"verdict"`
	// byCell holds the rows of each cell, for the paper tables.
	byCell map[string][]Row
}

// Summarize evaluates a grid's rows: per-cell mean/min/max aggregates plus
// the manifest's pass criterion (per-seed ratio comparisons, per-seed
// byte-identity, or the paper criteria). It is a pure function of
// (manifest, rows), so summaries regenerate exactly from committed raw rows.
func Summarize(m *Manifest, rows []Row) *Summary {
	cells := map[string]Cell{}
	for _, c := range m.Cells() {
		cells[m.CellID(c)] = c
	}
	byCell := map[string][]Row{}
	s := &Summary{byCell: byCell}
	var cellOrder []string
	for _, r := range rows {
		if _, ok := byCell[r.Cell]; !ok {
			cellOrder = append(cellOrder, r.Cell)
		}
		byCell[r.Cell] = append(byCell[r.Cell], r)
	}
	for _, id := range cellOrder {
		cellRows := byCell[id]
		cs := CellSummary{
			Cell:      id,
			Group:     m.GroupKey(cells[id]),
			AxisValue: cells[id].axisToken(m.Pass.CompareAxis),
			N:         len(cellRows),
			Metrics:   map[string]Stat{},
		}
		for _, name := range summaryMetrics {
			var vals []float64
			for _, r := range cellRows {
				v, err := r.Metric(name)
				if err != nil {
					continue
				}
				vals = append(vals, v)
			}
			cs.Metrics[name] = computeStat(vals)
		}
		cs.Hashes = distinctHashes(cellRows)
		s.Cells = append(s.Cells, cs)
	}

	// Every pass kind is a list of checks; the grid passes when there is at
	// least one and all of them hold.
	var holds []bool
	var criterion, checks string
	var failing []string
	switch m.Pass.Kind {
	case KindRatio:
		s.Comparisons = compareRatios(m, rows, cells)
		for _, c := range s.Comparisons {
			holds = append(holds, c.Pass)
		}
		criterion = "ratio on " + m.Pass.Metric
		checks = fmt.Sprintf("comparisons hold on all seeds (direction %s, min per-seed ratio %.2f)", m.Pass.Direction, m.Pass.MinRatio)
	case KindEqual:
		s.Equal = compareEqual(m, rows, cells)
		for _, e := range s.Equal {
			holds = append(holds, e.Pass)
		}
		criterion, checks = "byte-identity across "+m.Pass.CompareAxis, "(group, seed) checks byte-identical"
	case KindPaper:
		s.Paper = checkPaper(s.Cells, byCell)
		for _, c := range s.Paper {
			holds = append(holds, c.Pass)
			if !c.Pass {
				failing = append(failing, c.Cell+" "+c.Criterion)
			}
		}
		criterion, checks = "paper criteria", "(cell, criterion) checks hold on every seed"
	}
	passed := 0
	for _, ok := range holds {
		if ok {
			passed++
		}
	}
	s.Pass = len(holds) > 0 && passed == len(holds)
	verb := "FAIL"
	if s.Pass {
		verb = "PASS"
	}
	s.Verdict = fmt.Sprintf("%s (%s): %d/%d %s", verb, criterion, passed, len(holds), checks)
	if len(failing) > 0 {
		s.Verdict += "; failing: " + strings.Join(failing, ", ")
	}
	return s
}

func distinctHashes(rows []Row) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range rows {
		if !seen[r.ResultHash] {
			seen[r.ResultHash] = true
			out = append(out, r.ResultHash)
		}
	}
	return out
}

// meanMetric averages the metric over a cell's repeats for one seed.
func meanMetric(rows []Row, cells map[string]Cell, m *Manifest, token string, seed int64) (float64, bool) {
	var vals []float64
	for _, r := range rows {
		if r.Seed != seed || cells[r.Cell].axisToken(m.Pass.CompareAxis) != token {
			continue
		}
		v, err := r.Metric(m.Pass.Metric)
		if err != nil {
			return 0, false
		}
		vals = append(vals, v)
	}
	if len(vals) == 0 {
		return 0, false
	}
	return computeStat(vals).Mean, true
}

func compareRatios(m *Manifest, rows []Row, cells map[string]Cell) []Comparison {
	byGroup := map[string][]Row{}
	var groupOrder []string
	for _, r := range rows {
		g := m.GroupKey(cells[r.Cell])
		if _, ok := byGroup[g]; !ok {
			groupOrder = append(groupOrder, g)
		}
		byGroup[g] = append(byGroup[g], r)
	}
	var variants []string
	for _, tok := range m.axisTokens(m.Pass.CompareAxis) {
		if tok != m.Pass.Baseline {
			variants = append(variants, tok)
		}
	}
	var out []Comparison
	for _, g := range groupOrder {
		grows := byGroup[g]
		for _, variant := range variants {
			cmp := Comparison{Group: g, Variant: variant, Metric: m.Pass.Metric, Directional: true, Pass: true}
			minEffect, maxEffect := 0.0, 0.0
			for i, seed := range m.Seeds {
				base, okB := meanMetric(grows, cells, m, m.Pass.Baseline, seed)
				varv, okV := meanMetric(grows, cells, m, variant, seed)
				sr := SeedRatio{Seed: seed, Baseline: base, Variant: varv}
				if okB && okV && base > 0 && varv > 0 {
					if m.Pass.Direction == "down" {
						sr.Ratio = base / varv
					} else {
						sr.Ratio = varv / base
					}
				}
				cmp.Seeds = append(cmp.Seeds, sr)
				cmp.Mean += sr.Ratio
				if i == 0 || sr.Ratio < minEffect {
					minEffect = sr.Ratio
				}
				if i == 0 || sr.Ratio > maxEffect {
					maxEffect = sr.Ratio
				}
				if sr.Ratio <= 1 {
					cmp.Directional = false
				}
				if sr.Ratio < m.Pass.MinRatio {
					cmp.Pass = false
				}
			}
			if n := len(cmp.Seeds); n > 0 {
				cmp.Mean /= float64(n)
			}
			cmp.Min, cmp.Max = minEffect, maxEffect
			// A MinRatio below 1 is an overhead bound, not a speedup claim:
			// only the per-seed floor applies, not directional consistency
			// (see Pass.MinRatio).
			if m.Pass.MinRatio >= 1 && !cmp.Directional {
				cmp.Pass = false
			}
			switch {
			case cmp.Min >= 1.2:
				cmp.Effect = "significant"
			case cmp.Min < 1.1:
				cmp.Effect = "inconclusive"
			default:
				cmp.Effect = "weak"
			}
			out = append(out, cmp)
		}
	}
	return out
}

func compareEqual(m *Manifest, rows []Row, cells map[string]Cell) []EqualCheck {
	type key struct {
		group string
		seed  int64
	}
	byKey := map[key][]Row{}
	var order []key
	for _, r := range rows {
		k := key{m.GroupKey(cells[r.Cell]), r.Seed}
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], r)
	}
	var out []EqualCheck
	for _, k := range order {
		hashes := distinctHashes(byKey[k])
		out = append(out, EqualCheck{Group: k.group, Seed: k.seed, Hashes: hashes, Pass: len(hashes) == 1})
	}
	return out
}

// fmtF renders a float compactly for tables (4 significant digits).
func fmtF(v float64) string {
	return fmt.Sprintf("%.4g", v)
}

// Markdown renders the human-readable summary table set.
func (s *Summary) Markdown(m *Manifest, stamp string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Experiment: %s\n\n", m.Name)
	fmt.Fprintf(&b, "- **Hypothesis:** %s\n", m.Hypothesis)
	fmt.Fprintf(&b, "- **Type:** %s · **Workload:** %s · **Pass:** %s", m.Type, m.Workload, m.Pass.Kind)
	switch m.Pass.Kind {
	case KindRatio:
		fmt.Fprintf(&b, " (%s across %s, baseline %s, direction %s, min ratio %.2f)",
			m.Pass.Metric, m.Pass.CompareAxis, m.Pass.Baseline, m.Pass.Direction, m.Pass.MinRatio)
	case KindEqual:
		fmt.Fprintf(&b, " (result hashes across %s)", m.Pass.CompareAxis)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "- **Seeds:** %s · **Repeats:** %d · **Samples:** %d", seedList(m.Seeds), m.Repeats, m.Samples)
	if m.Workload == WorkloadPaper {
		fmt.Fprintf(&b, " · **Final samples:** %d", m.FinalSamples)
	}
	b.WriteString("\n")
	if stamp != "" {
		fmt.Fprintf(&b, "- **Run:** %s\n", stamp)
	}
	fmt.Fprintf(&b, "\n**Verdict: %s**\n\n", s.Verdict)

	b.WriteString("## Cells\n\n")
	b.WriteString("| cell | n | wall s (mean/min/max) | evals | evals/s (mean) | steps | best error | norm area | hashes |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|\n")
	for _, c := range s.Cells {
		w := c.Metrics["wall_seconds"]
		fmt.Fprintf(&b, "| %s | %d | %s / %s / %s | %s | %s | %s | %s | %s | %d |\n",
			c.Cell, c.N, fmtF(w.Mean), fmtF(w.Min), fmtF(w.Max),
			fmtF(c.Metrics["evals"].Mean), fmtF(c.Metrics["evals_per_sec"].Mean),
			fmtF(c.Metrics["steps"].Mean), fmtF(c.Metrics["best_error"].Mean),
			fmtF(c.Metrics["norm_area"].Mean), len(c.Hashes))
	}

	if len(s.Comparisons) > 0 {
		fmt.Fprintf(&b, "\n## Comparisons (%s, %s=<variant> vs %s)\n\n", m.Pass.Metric, m.Pass.CompareAxis, m.Pass.Baseline)
		b.WriteString("| group | variant | per-seed ratio | mean | min | max | effect | pass |\n")
		b.WriteString("|---|---|---|---|---|---|---|---|\n")
		for _, c := range s.Comparisons {
			var seeds []string
			for _, sr := range c.Seeds {
				seeds = append(seeds, fmt.Sprintf("%d:%.2f", sr.Seed, sr.Ratio))
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %.2f | %.2f | %.2f | %s | %s |\n",
				c.Group, c.Variant, strings.Join(seeds, " "), c.Mean, c.Min, c.Max, c.Effect, passMark(c.Pass))
		}
	}

	if len(s.Equal) > 0 {
		fmt.Fprintf(&b, "\n## Byte-identity across %s\n\n", m.Pass.CompareAxis)
		b.WriteString("| group | seed | distinct hashes | pass |\n")
		b.WriteString("|---|---|---|---|\n")
		for _, e := range s.Equal {
			fmt.Fprintf(&b, "| %s | %d | %d | %s |\n", e.Group, e.Seed, len(e.Hashes), passMark(e.Pass))
		}
	}

	if m.Pass.Kind == KindPaper {
		s.paperMarkdown(&b)
	}

	b.WriteString("\nRaw rows: `rows.csv` · per-cell detail: `cells/*.json` · grouped aggregates: `summary_grouped.csv`\n")
	return b.String()
}

func passMark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

func seedList(seeds []int64) string {
	var out []string
	for _, s := range seeds {
		out = append(out, fmt.Sprintf("%d", s))
	}
	return strings.Join(out, ",")
}

// GroupedCSV renders per-cell mean/min/max aggregates, one row per
// (cell, metric), in deterministic cell and metric order.
func (s *Summary) GroupedCSV() string {
	var b strings.Builder
	b.WriteString("group,cell,metric,mean,min,max,n\n")
	for _, c := range s.Cells {
		for _, name := range summaryMetrics {
			st := c.Metrics[name]
			fmt.Fprintf(&b, "%s,%s,%s,%s,%s,%s,%d\n",
				c.Group, c.Cell, name, fmtF(st.Mean), fmtF(st.Min), fmtF(st.Max), st.N)
		}
	}
	return b.String()
}

// rowsCSVHeader is the raw-row column order.
var rowsCSVHeader = []string{
	"cell", "circuit", "workers", "incremental", "cache", "faults", "basis", "weighted",
	"seed", "repeat", "wall_seconds", "profile_seconds", "explore_seconds",
	"steps", "evals", "eval_seconds", "evals_per_sec", "best_error", "norm_area", "result_hash",
}

func writeRowsCSV(path string, rows []Row) error {
	var b strings.Builder
	b.WriteString(strings.Join(rowsCSVHeader, ","))
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%d,%t,%s,%s,%s,%t,%d,%d,%s,%s,%s,%d,%d,%s,%s,%s,%s,%s\n",
			r.Cell, r.Circuit, r.Workers, r.Incremental, r.Cache, r.Faults, r.Basis, r.Weighted,
			r.Seed, r.Repeat, fmtF(r.WallSeconds), fmtF(r.ProfileSeconds), fmtF(r.ExploreSeconds),
			r.Steps, r.Evals, fmtF(r.EvalSeconds), fmtF(r.EvalsPerSec),
			fmtF(r.BestError), fmtF(r.NormArea), r.ResultHash)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
