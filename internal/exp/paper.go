package exp

import (
	"context"
	"fmt"
	"strings"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/salsa"
	"github.com/blasys-go/blasys/internal/techmap"
)

// The paper workload reproduces Tables 1–3 and Figs. 4–5 of Hashemi, Tann &
// Reda, "BLASYS" (DAC'18), from one exhaustive walk per (cell, seed). The
// walk does not depend on the error budget, so core.Result.BestStepAt reads
// each budget's circuit from it: the one a walk stopped at that budget
// returns. Its criteria are fixed in paperCriteria, and every failing
// (cell, criterion) pair fails the verdict.

// paperBudgets are the error budgets of Table 2 (the first) and Table 3.
var paperBudgets = []float64{0.05, 0.25}

// published holds the paper's numbers per circuit, in percent: Table 2's
// area, power and delay savings at 5%, then Table 3's area savings of BLASYS
// and of the SALSA baseline at 5% and at 25%. Table 1's absolute values come
// from the paper's 65 nm library; only its I/O counts carry over (pinned by
// internal/bench).
var published = map[string][7]float64{
	"Adder32": {44.78, 63.79, 12.07, 44.9, 20.5, 48.2, 23.2},
	"Mult8":   {28.77, 26.87, 12.32, 28.8, 1.8, 63.2, 8.9},
	"BUT":     {7.87, 11.25, 2.23, 7.9, 5.0, 26.4, 24.7},
	"MAC":     {47.55, 55.58, 64.41, 47.6, 1.7, 65.9, 8.2},
	"SAD":     {32.80, 41.47, 69.14, 32.8, 3.3, 38.1, 15.8},
	"FIR":     {19.52, 22.26, 12.18, 19.5, 3.2, 34.0, 15.8},
}

// PaperOutcome is what one walk gives the paper's tables and figures.
type PaperOutcome struct {
	// Inputs, Outputs and Accurate are Table 1: the accurate circuit's I/O
	// counts and mapped area (µm²), power (µW) and delay (ns).
	Inputs   int             `json:"inputs"`
	Outputs  int             `json:"outputs"`
	Accurate techmap.Metrics `json:"accurate"`
	// Budgets are Tables 2 and 3, one per paperBudgets value.
	Budgets []BudgetOutcome `json:"budgets"`
	// Trace is the walk's trade-off curve, Figs. 4 and 5.
	Trace []core.TracePoint `json:"trace"`
}

// BudgetOutcome is the circuit the walk returns at one error budget and the
// baseline's at the same budget. Savings are percent of the accurate
// design's mapped metric.
type BudgetOutcome struct {
	Threshold    float64 `json:"threshold"`
	BestStep     int     `json:"best_step"`
	AreaSavings  float64 `json:"area_savings"`
	PowerSavings float64 `json:"power_savings"`
	DelaySavings float64 `json:"delay_savings"`
	// FinalError is the returned circuit's error at the manifest's
	// final_samples.
	FinalError float64 `json:"final_error"`
	// BaselineAreaSavings is the SALSA-style baseline's (internal/salsa).
	BaselineAreaSavings float64 `json:"baseline_area_savings"`
}

// paperCriteria are the paper workload's pass criteria. A criterion holds
// for a cell when it holds on every seed.
var paperCriteria = []struct {
	name, desc string
	holds      func(p *PaperOutcome) bool
}{
	{"table2", "positive area savings, final error within the 5% budget", func(p *PaperOutcome) bool {
		b := p.Budgets[0]
		return b.AreaSavings > 0 && b.FinalError <= b.Threshold
	}},
	{"table3", "more area savings than the baseline at 5% and at 25%", func(p *PaperOutcome) bool {
		for _, b := range p.Budgets {
			if b.AreaSavings <= b.BaselineAreaSavings {
				return false
			}
		}
		return true
	}},
	{"monotone", "model area never grows along the walk, so it falls as the error budget grows (Figs. 4-5)", func(p *PaperOutcome) bool {
		n, _ := growth(p.Trace)
		return n == 0
	}},
}

// runPaperCell walks the circuit once, exhaustively and with its own
// Sequence, and reads every budget from that walk.
func runPaperCell(ctx context.Context, m *Manifest, cfg core.Config, bc bench.Circuit, row Row) (Row, error) {
	cfg.ExploreFully, cfg.Sequence = true, bc.Seq
	res, err := walk(ctx, cfg, bc, &row)
	if err != nil {
		return row, err
	}
	acc, _, err := res.FinalMetrics(-1, m.FinalSamples)
	if err != nil {
		return row, err
	}
	p := &PaperOutcome{Inputs: bc.Circ.NumInputs(), Outputs: bc.Circ.NumOutputs(), Accurate: acc, Trace: res.Trace()}
	for _, thr := range paperBudgets {
		step := res.BestStepAt(thr)
		met, rep, err := res.FinalMetrics(step, m.FinalSamples)
		if err != nil {
			return row, err
		}
		base, err := salsa.Approximate(bc.Circ, bc.Spec, salsa.Config{
			Threshold: thr, Samples: cfg.Samples, Seed: cfg.Seed, Sequence: bc.Seq,
		})
		if err != nil {
			return row, err
		}
		baseMapped, err := techmap.Map(base.Circuit, res.Config.Lib)
		if err != nil {
			return row, err
		}
		p.Budgets = append(p.Budgets, BudgetOutcome{
			Threshold:           thr,
			BestStep:            step,
			AreaSavings:         savings(acc.Area, met.Area),
			PowerSavings:        savings(acc.Power, met.Power),
			DelaySavings:        savings(acc.Delay, met.Delay),
			FinalError:          rep.Value(res.Config.Metric),
			BaselineAreaSavings: savings(acc.Area, baseMapped.Area()),
		})
	}
	row.Paper = p
	fillOutcome(&row, res, p.Budgets[0].BestStep)
	row.ResultHash, err = hashExploreResult(res)
	return row, err
}

// savings is the percentage of the accurate value an approximation saves.
func savings(accurate, approx float64) float64 {
	if accurate == 0 {
		return 0
	}
	return 100 * (accurate - approx) / accurate
}

// PaperCheck is one (cell, criterion) verdict.
type PaperCheck struct {
	Cell      string `json:"cell"`
	Criterion string `json:"criterion"`
	// FailedSeeds lists the seeds the criterion fails on.
	FailedSeeds []int64 `json:"failed_seeds,omitempty"`
	Pass        bool    `json:"pass"`
}

// outcome returns the row's paper outcome, or nil when it does not cover
// every budget.
func outcome(r Row) *PaperOutcome {
	if r.Paper == nil || len(r.Paper.Budgets) != len(paperBudgets) {
		return nil
	}
	return r.Paper
}

// checkPaper applies every criterion to every cell, in cell order. A row
// without an outcome fails every criterion.
func checkPaper(cells []CellSummary, byCell map[string][]Row) []PaperCheck {
	var out []PaperCheck
	for _, c := range cells {
		for _, crit := range paperCriteria {
			chk := PaperCheck{Cell: c.Cell, Criterion: crit.name}
			for _, r := range byCell[c.Cell] {
				if p := outcome(r); p == nil || !crit.holds(p) {
					chk.FailedSeeds = append(chk.FailedSeeds, r.Seed)
				}
			}
			chk.Pass = len(chk.FailedSeeds) == 0
			out = append(out, chk)
		}
	}
	return out
}

// paperStat renders a per-seed value of a cell's rows as mean (min–max).
func paperStat(rows []Row, f func(p *PaperOutcome) float64) string {
	var vals []float64
	for _, r := range rows {
		if p := outcome(r); p != nil {
			vals = append(vals, f(p))
		}
	}
	if len(vals) == 0 {
		return "–"
	}
	st := computeStat(vals)
	return fmt.Sprintf("%.1f (%.1f–%.1f)", st.Mean, st.Min, st.Max)
}

// paperMarkdown renders the checks and Tables 1–3 and Figs. 4–5 beside the
// published numbers.
func (s *Summary) paperMarkdown(b *strings.Builder) {
	byCell := s.byCell
	b.WriteString("\n## Checks\n\n")
	for _, crit := range paperCriteria {
		fmt.Fprintf(b, "- `%s`: %s, on every seed.\n", crit.name, crit.desc)
	}
	b.WriteString("\n| cell | criterion | failing seeds | pass |\n|---|---|---|---|\n")
	for _, c := range s.Paper {
		fmt.Fprintf(b, "| %s | %s | %s | %s |\n", c.Cell, c.Criterion, seedList(c.FailedSeeds), passMark(c.Pass))
	}

	b.WriteString("\n## Table 1: accurate designs (mean over seeds; the paper's I/O)\n\n")
	b.WriteString("| circuit | I/O | area µm² | power µW | delay ns |\n|---|---|---|---|---|\n")
	seen := map[string]bool{}
	for _, c := range s.Cells {
		rows := byCell[c.Cell]
		p := outcome(rows[0])
		if seen[rows[0].Circuit] || p == nil {
			continue
		}
		seen[rows[0].Circuit] = true
		fmt.Fprintf(b, "| %s | %d/%d | %s | %s | %s |\n", rows[0].Circuit, p.Inputs, p.Outputs,
			paperStat(rows, func(p *PaperOutcome) float64 { return p.Accurate.Area }),
			paperStat(rows, func(p *PaperOutcome) float64 { return p.Accurate.Power }),
			paperStat(rows, func(p *PaperOutcome) float64 { return p.Accurate.Delay }))
	}

	b.WriteString("\n## Table 2: savings at the 5% budget, % (mean (min–max) over seeds)\n\n")
	b.WriteString("| cell | area | paper | power | paper | delay | paper | final error |\n|---|---|---|---|---|---|---|---|\n")
	for _, c := range s.Cells {
		rows := byCell[c.Cell]
		pub := publishedCell(rows[0].Circuit)
		fmt.Fprintf(b, "| %s | %s | %s | %s | %s | %s | %s | %s |\n", c.Cell,
			paperStat(rows, func(p *PaperOutcome) float64 { return p.Budgets[0].AreaSavings }), pub[0],
			paperStat(rows, func(p *PaperOutcome) float64 { return p.Budgets[0].PowerSavings }), pub[1],
			paperStat(rows, func(p *PaperOutcome) float64 { return p.Budgets[0].DelaySavings }), pub[2],
			paperStat(rows, func(p *PaperOutcome) float64 { return 100 * p.Budgets[0].FinalError })+" %")
	}

	b.WriteString("\n## Table 3: area savings against the SALSA-style baseline, %\n\n")
	b.WriteString("| cell | budget | BLASYS | paper | baseline | paper SALSA |\n|---|---|---|---|---|---|\n")
	for _, c := range s.Cells {
		rows := byCell[c.Cell]
		pub := publishedCell(rows[0].Circuit)
		for i, thr := range paperBudgets {
			fmt.Fprintf(b, "| %s | %g%% | %s | %s | %s | %s |\n", c.Cell, 100*thr,
				paperStat(rows, func(p *PaperOutcome) float64 { return p.Budgets[i].AreaSavings }), pub[3+2*i],
				paperStat(rows, func(p *PaperOutcome) float64 { return p.Budgets[i].BaselineAreaSavings }), pub[4+2*i])
		}
	}

	b.WriteString("\n## Figs. 4–5: the walk's curve, % of the accurate model area (traces in `cells/<cell>.json`)\n\n")
	b.WriteString("| cell | steps | at 5% | at 25% | smallest | steps that grow it | largest growth |\n|---|---|---|---|---|---|---|\n")
	areaAt := func(p *PaperOutcome, i int) float64 { return 100 * p.Trace[p.Budgets[i].BestStep+1].NormModelArea }
	for _, c := range s.Cells {
		rows := byCell[c.Cell]
		fmt.Fprintf(b, "| %s | %s | %s | %s | %s | %s | %s |\n", c.Cell, fmtF(c.Metrics["steps"].Mean),
			paperStat(rows, func(p *PaperOutcome) float64 { return areaAt(p, 0) }),
			paperStat(rows, func(p *PaperOutcome) float64 { return areaAt(p, 1) }),
			paperStat(rows, func(p *PaperOutcome) float64 {
				least := 1.0
				for _, tp := range p.Trace {
					least = min(least, tp.NormModelArea)
				}
				return 100 * least
			}),
			paperStat(rows, func(p *PaperOutcome) float64 { n, _ := growth(p.Trace); return float64(n) }),
			paperStat(rows, func(p *PaperOutcome) float64 { _, most := growth(p.Trace); return 100 * most }))
	}
}

// growth counts the steps that grow the walk's model area and returns the
// largest growth, as a fraction of the accurate area.
func growth(trace []core.TracePoint) (n int, most float64) {
	for i := 1; i < len(trace); i++ {
		if d := trace[i].NormModelArea - trace[i-1].NormModelArea; d > 0 {
			n, most = n+1, max(most, d)
		}
	}
	return n, most
}

// publishedCell renders a circuit's published numbers ("–" for circuits the
// paper does not report).
func publishedCell(circuit string) []string {
	out := make([]string, 7)
	pub, ok := published[circuit]
	for i := range out {
		out[i] = "–"
		if ok {
			out[i] = fmt.Sprintf("%.1f", pub[i])
		}
	}
	return out
}
