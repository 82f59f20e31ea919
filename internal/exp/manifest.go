// Package exp is the reproducible experiment harness: it turns a JSON grid
// manifest (axes over circuit, workers, incremental on/off, cache warmth,
// fault schedule, factor basis, weighted QoR; a fixed seed list; repeats)
// into a full cross-product of experiment cells, executes every cell
// through the library API (core.Approximate, or the durable engine when a
// fault axis is declared), and writes a dated output folder with per-cell
// JSON, per-seed raw rows, and auto-built summary tables. The paper
// workload (paper.go) reads the paper's tables and figures from one
// exhaustive walk per cell and grades them against the published numbers.
//
// The harness follows the hypothesis-driven experiment standards this repo
// adopted from the inference-sim project (see docs/EXPERIMENTS.md):
//
//   - Deterministic experiments verify exact properties (byte-identity of
//     results across a scheduling axis, chaos byte-identity under fault
//     schedules). A single seed suffices; one mismatch is a bug.
//   - Statistical experiments compare a metric across configurations and
//     require a minimum of three seeds with directional consistency: the
//     predicted direction must hold on every seed, or the hypothesis is not
//     confirmed. Effect sizes are classified significant (>20% on all
//     seeds), weak, or inconclusive (<10% on any seed).
//
// Every quantitative claim in DESIGN.md names the in-tree grid
// (scripts/experiments/*.json) and the run folder that regenerates it; see
// cmd/blasys-exp for the one-command entry point.
package exp

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"github.com/blasys-go/blasys/internal/core"
)

// Manifest is one experiment grid: the scalars shared by every cell, the
// axes whose cross-product defines the cells, and the pass criteria the
// summary is judged under.
type Manifest struct {
	// Name labels the run folder and summary (lowercase, no spaces).
	Name string `json:"name"`
	// Hypothesis states the claim under test, in one sentence.
	Hypothesis string `json:"hypothesis"`
	// Type classifies the experiment: "deterministic" (exact property,
	// single seed sufficient) or "statistical" (metric comparison, minimum
	// three seeds, directional consistency required).
	Type string `json:"type"`
	// Workload selects what each cell executes: "explore" (the default —
	// one Approximate run) or "paper" (one exhaustive walk read at the
	// paper's error budgets; see paper.go).
	Workload string `json:"workload,omitempty"`
	// Seeds is the fixed seed list; every cell runs once per seed (times
	// Repeats). Statistical manifests need at least three.
	Seeds []int64 `json:"seeds"`
	// Repeats is the number of independent repeats per (cell, seed);
	// default 1. Repeats of a deterministic flow re-measure wall time, not
	// results — result hashes must agree across repeats.
	Repeats int `json:"repeats,omitempty"`
	// Samples is the Monte-Carlo sample count per evaluation (default 4096).
	Samples int `json:"samples,omitempty"`
	// FinalSamples is the sample count of the paper workload's final
	// reports (default 2^20, the paper's one million).
	FinalSamples int `json:"final_samples,omitempty"`
	// Threshold is the exploration QoR budget (default: core's 5%).
	Threshold float64 `json:"threshold,omitempty"`
	// MaxSteps caps exploration steps (0 = until threshold/exhaustion).
	MaxSteps int `json:"max_steps,omitempty"`
	// ExploreFully ignores the threshold and walks every block to degree 1.
	ExploreFully bool `json:"explore_fully,omitempty"`
	// FaultSeed seeds the fault injector for cells with a non-empty fault
	// schedule (default 1). Schedules are deterministic given this seed.
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// Axes define the grid; nil axes collapse to a single default value.
	Axes Axes `json:"axes"`
	// Pass is the machine-checked pass criterion.
	Pass Pass `json:"pass"`
}

// Axes are the grid dimensions. Every combination of one value per declared
// axis is one cell; omitted axes contribute their single default value
// (workers 1, incremental on, cold cache, no faults).
type Axes struct {
	// Circuit lists circuit specs for bench.Resolve: Table 1 names
	// ("Mult8") or seeded random circuits ("rand:7", "rand:7:8x80x6").
	Circuit []string `json:"circuit"`
	// Workers values map to core.Config.Workers.
	Workers []int `json:"workers,omitempty"`
	// Incremental false selects the paper-literal rebuild+resimulate path
	// (core.Config.DisableIncremental).
	Incremental []bool `json:"incremental,omitempty"`
	// Cache warmth: "cold" (fresh factorization cache) or "warm" (the cell
	// runs once un-timed to fill a cache, then the timed run reuses it).
	Cache []string `json:"cache,omitempty"`
	// Faults lists fault schedules in the internal/faults wire form
	// ("journal.append:after=2,times=3,err=eio"; "" = fault-free).
	// Declaring this axis — even with only "" — routes every cell of the
	// grid through a durable engine + store so schedules have I/O to bite
	// and the fault-free baseline exercises the identical code path.
	Faults []string `json:"faults,omitempty"`
	// Basis values ("columns", "asso") map to core.Config.Basis.
	Basis []string `json:"basis,omitempty"`
	// Weighted values map to core.Config.Weighted (the paper's WQoR).
	Weighted []bool `json:"weighted,omitempty"`
}

// Pass is the machine-checked pass criterion for a grid.
type Pass struct {
	// Kind: "ratio" compares Metric across CompareAxis values against the
	// Baseline value per seed; "equal" requires identical result hashes
	// across CompareAxis values per seed (byte-identity); "paper" applies
	// the paper workload's fixed criteria (paperCriteria) to every cell.
	Kind string `json:"kind"`
	// Metric names the row field ratio comparisons read: "evals_per_sec",
	// "wall_seconds", "explore_seconds", "steps", "best_error", "norm_area".
	Metric string `json:"metric,omitempty"`
	// CompareAxis is the axis under test: "circuit", "workers",
	// "incremental", "cache", or "faults".
	CompareAxis string `json:"compare_axis"`
	// Baseline is the CompareAxis value (in axis-token string form, e.g.
	// "false", "1", "none") the others are measured against. Required for
	// ratio comparisons; unused for equal.
	Baseline string `json:"baseline,omitempty"`
	// Direction is the predicted direction of the variant relative to the
	// baseline: "up" (metric increases) or "down" (decreases). Ratios are
	// normalized so >1 always means "as predicted".
	Direction string `json:"direction,omitempty"`
	// MinRatio is the minimum normalized per-seed ratio for a pass
	// (default 1.0 — direction alone). A MinRatio below 1 turns the
	// criterion into an overhead bound instead of a speedup claim:
	// directional consistency is not required, only that no seed falls
	// below the bound. That is the honest form for a scaling axis on
	// hardware that cannot show the gain (e.g. a workers axis on a
	// single-core host, where extra workers may only add overhead).
	MinRatio float64 `json:"min_ratio,omitempty"`
}

// Experiment types and pass kinds.
const (
	TypeDeterministic = "deterministic"
	TypeStatistical   = "statistical"

	WorkloadExplore = "explore"
	WorkloadPaper   = "paper"

	KindRatio = "ratio"
	KindEqual = "equal"
	KindPaper = "paper"
)

// MinStatisticalSeeds is the seed floor for statistical experiments, per the
// experiment standards (docs/EXPERIMENTS.md).
const MinStatisticalSeeds = 3

// ParseManifest decodes and validates a grid manifest. Unknown fields are
// rejected so a typoed axis name fails loudly instead of silently collapsing
// an axis to its default.
func ParseManifest(data []byte) (*Manifest, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	m := &Manifest{}
	if err := dec.Decode(m); err != nil {
		return nil, fmt.Errorf("exp: parse manifest: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return m.withDefaults(), nil
}

func (m *Manifest) withDefaults() *Manifest {
	if m.Workload == "" {
		m.Workload = WorkloadExplore
	}
	if m.Repeats <= 0 {
		m.Repeats = 1
	}
	if m.Samples <= 0 {
		m.Samples = 1 << 12
	}
	if m.FinalSamples <= 0 {
		m.FinalSamples = 1 << 20
	}
	if m.FaultSeed == 0 {
		m.FaultSeed = 1
	}
	if m.Pass.MinRatio == 0 {
		m.Pass.MinRatio = 1.0
	}
	return m
}

func (m *Manifest) validate() error {
	if m.Name == "" || strings.ContainsAny(m.Name, " /\\") {
		return fmt.Errorf("exp: manifest needs a name without spaces or slashes, got %q", m.Name)
	}
	if m.Hypothesis == "" {
		return fmt.Errorf("exp: manifest %s: a hypothesis is required — state the claim under test", m.Name)
	}
	switch m.Type {
	case TypeDeterministic:
		if len(m.Seeds) < 1 {
			return fmt.Errorf("exp: manifest %s: at least one seed required", m.Name)
		}
	case TypeStatistical:
		if len(m.Seeds) < MinStatisticalSeeds {
			return fmt.Errorf("exp: manifest %s: statistical experiments need >= %d seeds, got %d",
				m.Name, MinStatisticalSeeds, len(m.Seeds))
		}
	default:
		return fmt.Errorf("exp: manifest %s: type must be %q or %q, got %q",
			m.Name, TypeDeterministic, TypeStatistical, m.Type)
	}
	seen := map[int64]bool{}
	for _, s := range m.Seeds {
		if seen[s] {
			return fmt.Errorf("exp: manifest %s: duplicate seed %d", m.Name, s)
		}
		seen[s] = true
	}
	if err := m.validateAxes(); err != nil {
		return err
	}
	switch m.Workload {
	case "", WorkloadExplore:
	case WorkloadPaper:
		// A step cap or threshold would cut the walk every budget is read
		// from, so a smoke run shrinks samples or circuits instead.
		if m.Type != TypeStatistical || m.Pass.Kind != KindPaper || m.MaxSteps != 0 || m.Threshold != 0 ||
			m.ExploreFully || m.Repeats > 1 || len(m.Axes.Faults) > 0 {
			return fmt.Errorf("exp: manifest %s: the paper workload is %s, takes pass kind %q, and takes no max_steps, threshold, explore_fully, repeats or faults axis",
				m.Name, TypeStatistical, KindPaper)
		}
		return nil
	default:
		return fmt.Errorf("exp: manifest %s: unknown workload %q", m.Name, m.Workload)
	}
	switch m.Pass.Kind {
	case KindEqual:
	case KindRatio:
		if m.Type == TypeDeterministic {
			return fmt.Errorf("exp: manifest %s: ratio comparisons are statistical; use type %q", m.Name, TypeStatistical)
		}
		if m.Pass.Baseline == "" {
			return fmt.Errorf("exp: manifest %s: ratio pass needs a baseline value", m.Name)
		}
		if m.Pass.Direction != "up" && m.Pass.Direction != "down" {
			return fmt.Errorf("exp: manifest %s: ratio pass direction must be \"up\" or \"down\", got %q", m.Name, m.Pass.Direction)
		}
		if _, err := (Row{}).Metric(m.Pass.Metric); err != nil {
			return fmt.Errorf("exp: manifest %s: %v", m.Name, err)
		}
	default:
		return fmt.Errorf("exp: manifest %s: pass kind must be %q or %q, got %q",
			m.Name, KindRatio, KindEqual, m.Pass.Kind)
	}
	if !axisNameKnown(m.Pass.CompareAxis) {
		return fmt.Errorf("exp: manifest %s: unknown compare_axis %q", m.Name, m.Pass.CompareAxis)
	}
	if len(m.axisTokens(m.Pass.CompareAxis)) < 2 {
		return fmt.Errorf("exp: manifest %s: compare_axis %q needs at least two values", m.Name, m.Pass.CompareAxis)
	}
	if m.Pass.Kind == KindRatio {
		found := false
		for _, tok := range m.axisTokens(m.Pass.CompareAxis) {
			if tok == m.Pass.Baseline {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("exp: manifest %s: baseline %q is not a value of axis %q",
				m.Name, m.Pass.Baseline, m.Pass.CompareAxis)
		}
	}
	return nil
}

// validateAxes checks the axis values every workload shares.
func (m *Manifest) validateAxes() error {
	if len(m.Axes.Circuit) == 0 {
		return fmt.Errorf("exp: manifest %s: the circuit axis needs at least one value", m.Name)
	}
	for _, c := range m.Axes.Cache {
		if c != "cold" && c != "warm" {
			return fmt.Errorf("exp: manifest %s: cache axis values must be \"cold\" or \"warm\", got %q", m.Name, c)
		}
	}
	for _, b := range m.Axes.Basis {
		if _, err := parseBasis(b); err != nil {
			return fmt.Errorf("exp: manifest %s: %v", m.Name, err)
		}
	}
	return nil
}

// parseBasis maps a basis axis value to the core factor family.
func parseBasis(name string) (core.Basis, error) {
	for _, b := range []core.Basis{core.BasisColumns, core.BasisASSO} {
		if b.String() == name {
			return b, nil
		}
	}
	return 0, fmt.Errorf("basis axis values must be \"columns\" or \"asso\", got %q", name)
}

// Cell is one grid point: a full configuration to run per (seed, repeat).
type Cell struct {
	Circuit     string `json:"circuit"`
	Workers     int    `json:"workers"`
	Incremental bool   `json:"incremental"`
	Cache       string `json:"cache"`
	Faults      string `json:"faults"`
	// FaultsLabel is the short token naming the schedule in IDs and
	// summaries ("none", or "f<i>" by axis position).
	FaultsLabel string `json:"faults_label"`
	// UseEngine routes the cell through a durable engine + store (set for
	// every cell of a grid that declares a faults axis).
	UseEngine bool   `json:"use_engine"`
	Basis     string `json:"basis"`
	Weighted  bool   `json:"weighted"`
}

var axisNames = []string{"circuit", "workers", "incremental", "cache", "faults", "basis", "weighted"}

func axisNameKnown(name string) bool {
	for _, n := range axisNames {
		if n == name {
			return true
		}
	}
	return false
}

// axisTokens returns the declared values of an axis in string-token form
// (the form IDs, group keys, and Pass.Baseline use), or the single default
// token when the axis is not declared.
func (m *Manifest) axisTokens(axis string) []string {
	switch axis {
	case "circuit":
		return circuitTokens(m.Axes.Circuit)
	case "workers":
		if len(m.Axes.Workers) == 0 {
			return []string{"1"}
		}
		return intTokens(m.Axes.Workers)
	case "incremental":
		if len(m.Axes.Incremental) == 0 {
			return []string{"true"}
		}
		return boolTokens(m.Axes.Incremental)
	case "cache":
		if len(m.Axes.Cache) == 0 {
			return []string{"cold"}
		}
		return append([]string(nil), m.Axes.Cache...)
	case "faults":
		if len(m.Axes.Faults) == 0 {
			return []string{"none"}
		}
		out := make([]string, len(m.Axes.Faults))
		for i, f := range m.Axes.Faults {
			out[i] = faultsToken(f, i)
		}
		return out
	case "basis":
		if len(m.Axes.Basis) == 0 {
			return []string{core.BasisColumns.String()}
		}
		return append([]string(nil), m.Axes.Basis...)
	case "weighted":
		if len(m.Axes.Weighted) == 0 {
			return []string{"false"}
		}
		return boolTokens(m.Axes.Weighted)
	}
	return nil
}

func intTokens(vals []int) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = strconv.Itoa(v)
	}
	return out
}

func boolTokens(vals []bool) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = strconv.FormatBool(v)
	}
	return out
}

func circuitTokens(specs []string) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = circuitToken(s)
	}
	return out
}

// circuitToken lowercases a circuit spec into an ID-safe token.
func circuitToken(spec string) string {
	s := strings.ToLower(spec)
	s = strings.NewReplacer(":", "-", "/", "-").Replace(s)
	return s
}

func faultsToken(schedule string, idx int) string {
	if schedule == "" {
		return "none"
	}
	return fmt.Sprintf("f%d", idx)
}

// Cells expands the manifest's axes into the full grid, in deterministic
// nested order (circuit outermost, faults innermost — the order axes are
// declared in the Axes struct).
func (m *Manifest) Cells() []Cell {
	workers := m.Axes.Workers
	if len(workers) == 0 {
		workers = []int{1}
	}
	incr := m.Axes.Incremental
	if len(incr) == 0 {
		incr = []bool{true}
	}
	caches := m.Axes.Cache
	if len(caches) == 0 {
		caches = []string{"cold"}
	}
	faultAxes := m.Axes.Faults
	useEngine := len(faultAxes) > 0
	if len(faultAxes) == 0 {
		faultAxes = []string{""}
	}
	bases := m.axisTokens("basis")
	weighted := m.Axes.Weighted
	if len(weighted) == 0 {
		weighted = []bool{false}
	}
	var cells []Cell
	for _, circ := range m.Axes.Circuit {
		for _, w := range workers {
			for _, inc := range incr {
				for _, cache := range caches {
					for fi, flt := range faultAxes {
						for _, basis := range bases {
							for _, wq := range weighted {
								cells = append(cells, Cell{
									Circuit:     circ,
									Workers:     w,
									Incremental: inc,
									Cache:       cache,
									Faults:      flt,
									FaultsLabel: faultsToken(flt, fi),
									UseEngine:   useEngine,
									Basis:       basis,
									Weighted:    wq,
								})
							}
						}
					}
				}
			}
		}
	}
	return cells
}

// axisToken renders one of the cell's axis values as its ID/group token.
func (c Cell) axisToken(axis string) string {
	switch axis {
	case "circuit":
		return circuitToken(c.Circuit)
	case "workers":
		return strconv.Itoa(c.Workers)
	case "incremental":
		return strconv.FormatBool(c.Incremental)
	case "cache":
		return c.Cache
	case "faults":
		return c.FaultsLabel
	case "basis":
		return c.Basis
	case "weighted":
		return strconv.FormatBool(c.Weighted)
	}
	return ""
}

// declaredAxes lists the axes the manifest actually declares (the ones worth
// naming in cell IDs and group keys). Circuit is always declared.
func (m *Manifest) declaredAxes() []string {
	axes := []string{"circuit"}
	if len(m.Axes.Workers) > 0 {
		axes = append(axes, "workers")
	}
	if len(m.Axes.Incremental) > 0 {
		axes = append(axes, "incremental")
	}
	if len(m.Axes.Cache) > 0 {
		axes = append(axes, "cache")
	}
	if len(m.Axes.Faults) > 0 {
		axes = append(axes, "faults")
	}
	if len(m.Axes.Basis) > 0 {
		axes = append(axes, "basis")
	}
	if len(m.Axes.Weighted) > 0 {
		axes = append(axes, "weighted")
	}
	return axes
}

// CellID is the cell's stable identifier: its declared-axis tokens joined
// with '_', prefixed by axis letters for the non-circuit axes
// (e.g. "mult8_w2_inc-true", "mult8_asso_weighted-true").
func (m *Manifest) CellID(c Cell) string {
	parts := []string{}
	for _, axis := range m.declaredAxes() {
		tok := c.axisToken(axis)
		switch axis {
		case "circuit":
			parts = append(parts, tok)
		case "workers":
			parts = append(parts, "w"+tok)
		case "incremental":
			parts = append(parts, "inc-"+tok)
		case "weighted":
			parts = append(parts, "weighted-"+tok)
		default: // cache, faults, basis
			parts = append(parts, tok)
		}
	}
	return strings.Join(parts, "_")
}

// GroupKey is the cell's identity with the compare axis removed: cells
// sharing a GroupKey differ only in the compare-axis value (and seed/repeat)
// and are compared against each other by the pass criteria.
func (m *Manifest) GroupKey(c Cell) string {
	parts := []string{}
	for _, axis := range m.declaredAxes() {
		if axis == m.Pass.CompareAxis {
			continue
		}
		parts = append(parts, c.axisToken(axis))
	}
	if len(parts) == 0 {
		return "all"
	}
	return strings.Join(parts, "_")
}
