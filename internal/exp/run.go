package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/blif"
	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/engine"
	"github.com/blasys-go/blasys/internal/faults"
	"github.com/blasys-go/blasys/internal/store"
	"github.com/blasys-go/blasys/internal/telemetry"
)

// hCandidateEval is the pipeline's candidate-evaluation histogram, shared
// with internal/core through the process-global registry: per-cell deltas of
// its count and sum give the exact number of candidate evaluations and their
// summed latency for whatever ran between two snapshots (cells run
// serially, so deltas attribute exactly).
var hCandidateEval = telemetry.Default().Histogram(
	"blasys_core_candidate_eval_seconds",
	"Latency of one candidate QoR evaluation inside the sweep.",
	telemetry.DurationBuckets)

// Row is one raw measurement: one (cell, seed, repeat) execution.
type Row struct {
	Cell        string  `json:"cell"`
	Circuit     string  `json:"circuit"`
	Workers     int     `json:"workers"`
	Incremental bool    `json:"incremental"`
	Cache       string  `json:"cache"`
	Faults      string  `json:"faults"`
	Basis       string  `json:"basis"`
	Weighted    bool    `json:"weighted"`
	Seed        int64   `json:"seed"`
	Repeat      int     `json:"repeat"`
	WallSeconds float64 `json:"wall_seconds"`
	// ProfileSeconds and ExploreSeconds split the wall time by flow phase
	// (from the telemetry span timeline).
	ProfileSeconds float64 `json:"profile_seconds"`
	ExploreSeconds float64 `json:"explore_seconds"`
	// Steps is the number of committed exploration steps.
	Steps int `json:"steps"`
	// Evals counts candidate QoR evaluations (pipeline histogram delta).
	Evals int `json:"evals"`
	// EvalSeconds is the summed latency of those evaluations; EvalsPerSec
	// is Evals/EvalSeconds — pure evaluation throughput, the
	// candidate-evals/sec of BENCH_<date>.json.
	EvalSeconds float64 `json:"eval_seconds"`
	EvalsPerSec float64 `json:"evals_per_sec"`
	// BestError and NormArea describe the circuit the run returned (the
	// accurate circuit reads 0 and 1): its error and its model area over
	// the accurate circuit's.
	BestError float64 `json:"best_error"`
	NormArea  float64 `json:"norm_area"`
	// ResultHash fingerprints everything deterministic about the outcome:
	// the committed trajectory (per-step reports, bit-exact), every
	// frontier point, and the result netlist's BLIF bytes. Two runs agree
	// on ResultHash iff they are byte-identical in the repo's sense.
	ResultHash string `json:"result_hash"`
	// Paper is the paper workload's outcome (nil for other workloads).
	Paper *PaperOutcome `json:"paper,omitempty"`
}

// Metric extracts a named scalar from the row (the field ratio pass criteria
// compare).
func (r Row) Metric(name string) (float64, error) {
	switch name {
	case "wall_seconds":
		return r.WallSeconds, nil
	case "profile_seconds":
		return r.ProfileSeconds, nil
	case "explore_seconds":
		return r.ExploreSeconds, nil
	case "steps":
		return float64(r.Steps), nil
	case "evals":
		return float64(r.Evals), nil
	case "evals_per_sec":
		return r.EvalsPerSec, nil
	case "best_error":
		return r.BestError, nil
	case "norm_area":
		return r.NormArea, nil
	}
	return 0, fmt.Errorf("unknown metric %q (known: wall_seconds, profile_seconds, explore_seconds, steps, evals, evals_per_sec, best_error, norm_area)", name)
}

// Runner executes manifests and writes run folders.
type Runner struct {
	// OutDir is the root output directory; each Run writes
	// <OutDir>/<Stamp>_<name>/.
	OutDir string
	// Stamp dates the run folder (callers pass time.Now().Format(StampFormat);
	// tests pin a constant).
	Stamp string
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// StampFormat is the run-folder timestamp layout.
const StampFormat = "2006-01-02_150405"

// Run is a completed grid execution.
type Run struct {
	Manifest *Manifest
	// Dir is the run folder everything was written to.
	Dir     string
	Rows    []Row
	Summary *Summary
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// Run executes every cell of the manifest per seed and repeat, writes the
// run folder (manifest copy, per-cell JSON, raw rows CSV, summary tables),
// and returns the rows plus the evaluated summary. The error reports
// execution problems only; whether the grid met its pass criteria is
// Summary.Pass.
func (r *Runner) Run(ctx context.Context, m *Manifest) (*Run, error) {
	cells := m.Cells()
	dir := filepath.Join(r.OutDir, r.Stamp+"_"+m.Name)
	if err := os.MkdirAll(filepath.Join(dir, "cells"), 0o755); err != nil {
		return nil, err
	}
	mjson, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), append(mjson, '\n'), 0o644); err != nil {
		return nil, err
	}
	r.logf("exp %s: %d cells x %d seeds x %d repeats -> %s",
		m.Name, len(cells), len(m.Seeds), m.Repeats, dir)

	var rows []Row
	for _, cell := range cells {
		id := m.CellID(cell)
		var cellRows []Row
		for _, seed := range m.Seeds {
			for rep := 0; rep < m.Repeats; rep++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				row, err := r.runCell(ctx, m, cell, seed, rep)
				if err != nil {
					return nil, fmt.Errorf("exp %s: cell %s seed %d repeat %d: %w", m.Name, id, seed, rep, err)
				}
				row.Cell = id
				cellRows = append(cellRows, row)
				r.logf("  %s seed=%d rep=%d: wall=%.3fs evals=%d evals/s=%.0f hash=%s",
					id, seed, rep, row.WallSeconds, row.Evals, row.EvalsPerSec, row.ResultHash[:12])
			}
		}
		if err := writeJSON(filepath.Join(dir, "cells", id+".json"), struct {
			Cell Cell  `json:"cell"`
			Rows []Row `json:"rows"`
		}{cell, cellRows}); err != nil {
			return nil, err
		}
		rows = append(rows, cellRows...)
	}

	if err := writeRowsCSV(filepath.Join(dir, "rows.csv"), rows); err != nil {
		return nil, err
	}
	sum := Summarize(m, rows)
	if err := os.WriteFile(filepath.Join(dir, "summary.md"), []byte(sum.Markdown(m, r.Stamp)), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "summary_grouped.csv"), []byte(sum.GroupedCSV()), 0o644); err != nil {
		return nil, err
	}
	r.logf("exp %s: %s", m.Name, sum.Verdict)
	return &Run{Manifest: m, Dir: dir, Rows: rows, Summary: sum}, nil
}

// cellConfig builds the core configuration for one (cell, seed).
func cellConfig(m *Manifest, cell Cell, seed int64) core.Config {
	basis, _ := parseBasis(cell.Basis) // validated with the manifest
	return core.Config{
		Samples:            m.Samples,
		Seed:               seed,
		Threshold:          m.Threshold,
		MaxSteps:           m.MaxSteps,
		ExploreFully:       m.ExploreFully,
		Workers:            cell.Workers,
		DisableIncremental: !cell.Incremental,
		Basis:              basis,
		Weighted:           cell.Weighted,
	}
}

func (r *Runner) runCell(ctx context.Context, m *Manifest, cell Cell, seed int64, repeat int) (Row, error) {
	row := Row{
		Circuit:     cell.Circuit,
		Workers:     cell.Workers,
		Incremental: cell.Incremental,
		Cache:       cell.Cache,
		Faults:      cell.FaultsLabel,
		Basis:       cell.Basis,
		Weighted:    cell.Weighted,
		Seed:        seed,
		Repeat:      repeat,
	}
	bc, err := bench.Resolve(cell.Circuit)
	if err != nil {
		return row, err
	}
	cfg := cellConfig(m, cell, seed)
	// The explore workload evaluates sequence circuits (MAC, SAD)
	// combinationally: the feedback path forces the paper-literal
	// evaluator, which would make an incremental axis vacuous. The paper
	// workload evaluates them as the paper does.
	if cell.Cache == "warm" {
		cache := bmf.NewMemoryCache()
		warm := cfg
		warm.MaxSteps = 1
		warm.Cache = cache
		if _, err := core.ApproximateCtx(ctx, bc.Circ, bc.Spec, warm); err != nil {
			return row, fmt.Errorf("cache warm-up: %w", err)
		}
		cfg.Cache = cache
	}
	switch {
	case cell.UseEngine:
		return r.runEngineCell(ctx, m, cell, cfg, bc, row)
	case m.Workload == WorkloadPaper:
		return runPaperCell(ctx, m, cfg, bc, row)
	}
	res, err := walk(ctx, cfg, bc, &row)
	if err != nil {
		return row, err
	}
	fillOutcome(&row, res, res.BestStep)
	row.ResultHash, err = hashExploreResult(res)
	return row, err
}

// walk runs one Approximate call directly through core.ApproximateCtx and
// records its timing in the row, with a telemetry timeline splitting the
// wall time into the profile and explore phases.
func walk(ctx context.Context, cfg core.Config, bc bench.Circuit, row *Row) (*core.Result, error) {
	tl := telemetry.NewTimeline(1 << 12)
	span := tl.Start("cell")
	cfg.Span = span
	count0, sum0 := hCandidateEval.Count(), hCandidateEval.Sum()
	t0 := time.Now()
	res, err := core.ApproximateCtx(ctx, bc.Circ, bc.Spec, cfg)
	row.WallSeconds = time.Since(t0).Seconds()
	span.End()
	if err != nil {
		return nil, err
	}
	row.ProfileSeconds, row.ExploreSeconds = spanSeconds(tl.Records())
	fillEvalDelta(row, count0, sum0)
	return res, nil
}

// runEngineCell executes one cell through a durable engine over a throwaway
// store, optionally with a fault schedule armed — the chaos byte-identity
// path. The fault-free cells of a faulted grid run through the same stack so
// the comparison isolates the schedule.
func (r *Runner) runEngineCell(ctx context.Context, m *Manifest, cell Cell, cfg core.Config, bc bench.Circuit, row Row) (Row, error) {
	dir, err := os.MkdirTemp("", "blasys-exp-store-*")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return row, err
	}
	// Bound fault-absorption time: chaos schedules exhaust retries in
	// milliseconds instead of the production backoff's seconds.
	st.SetRetryPolicy(store.RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond})
	// Degraded-mode transitions are expected under fault schedules; keep the
	// measurement output clean.
	st.SetSlogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	if cell.Faults != "" {
		rules, err := faults.ParseSchedule(cell.Faults)
		if err != nil {
			return row, err
		}
		st.SetFaults(faults.New(m.FaultSeed).Add(rules...))
	}
	eng := engine.New(engine.Options{
		Workers: 1,
		Store:   st,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	defer eng.Close()

	count0, sum0 := hCandidateEval.Count(), hCandidateEval.Sum()
	t0 := time.Now()
	job, err := eng.Submit(engine.Request{Circuit: bc.Circ, Spec: bc.Spec, Config: cfg})
	if err != nil {
		return row, err
	}
	if err := job.Wait(ctx); err != nil {
		return row, err
	}
	row.WallSeconds = time.Since(t0).Seconds()
	if s := job.State(); s != engine.StateDone {
		return row, fmt.Errorf("job finished %s: %v", s, job.Err())
	}
	fillEvalDelta(&row, count0, sum0)
	res := job.Result()
	fillOutcome(&row, res, res.BestStep)
	row.ProfileSeconds, row.ExploreSeconds = spanSeconds(job.Timeline())

	// Hash what the service serves: the journaled result netlist bytes and
	// the frontier — the byte-identity contract the chaos suite pins.
	blifText, err := job.ResultBLIF()
	if err != nil {
		return row, err
	}
	h := sha256.New()
	io.WriteString(h, blifText)
	if err := hashJSON(h, job.Frontier().Points()); err != nil {
		return row, err
	}
	if err := hashJSON(h, res.Steps); err != nil {
		return row, err
	}
	row.ResultHash = hex.EncodeToString(h.Sum(nil))
	return row, nil
}

// fillEvalDelta attributes the candidate-eval histogram delta since the
// snapshot to the row. Cells run serially in one process, so the delta is
// exactly the cell's own evaluations.
func fillEvalDelta(row *Row, count0 uint64, sum0 float64) {
	row.Evals = int(hCandidateEval.Count() - count0)
	row.EvalSeconds = hCandidateEval.Sum() - sum0
	if row.EvalSeconds > 0 {
		row.EvalsPerSec = float64(row.Evals) / row.EvalSeconds
	}
}

// fillOutcome records the walk's step count and the circuit the run returns
// at step: its error and normalized model area (step -1, the accurate
// circuit, reads 0 and 1). A returned step's area is below the accurate
// one's, so the division is by a positive area.
func fillOutcome(row *Row, res *core.Result, step int) {
	row.Steps = len(res.Steps)
	row.BestError, row.NormArea = 0, 1
	if step >= 0 {
		s := res.Steps[step]
		row.BestError = s.Report.Value(res.Config.Metric)
		row.NormArea = s.ModelArea / res.AccurateModelArea
	}
}

// spanSeconds sums the profile and explore span durations of a cell.
func spanSeconds(recs []telemetry.SpanRecord) (profile, explore float64) {
	for _, rec := range recs {
		switch rec.Name {
		case "profile":
			profile += rec.Duration().Seconds()
		case "explore":
			explore += rec.Duration().Seconds()
		}
	}
	return profile, explore
}

// hashExploreResult fingerprints a core result: the final netlist's BLIF
// bytes, the committed trajectory with bit-exact reports, and every frontier
// point. Two runs that agree on this hash are byte-identical in the sense
// the determinism tests assert.
func hashExploreResult(res *core.Result) (string, error) {
	h := sha256.New()
	circ, err := res.BestCircuit()
	if err != nil {
		return "", err
	}
	if err := blif.Write(h, circ); err != nil {
		return "", err
	}
	if err := hashJSON(h, res.Steps); err != nil {
		return "", err
	}
	if err := hashJSON(h, res.Frontier.Points()); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashJSON folds a canonical JSON encoding of v into h. Go's float encoding
// is the shortest exact representation, so bit-identical values hash
// identically and any bit difference changes the hash.
func hashJSON(h io.Writer, v any) error {
	return json.NewEncoder(h).Encode(v)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
