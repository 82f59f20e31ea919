package store

import (
	"fmt"
	"strings"
	"time"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/blif"
	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/qor"
)

// RequestRecord is the journaled, re-materializable form of a job
// submission. The circuit is stored by provenance when known — the benchmark
// name or the submitted BLIF text verbatim — so a restarted process rebuilds
// the *identical* circuit (same node order, same decomposition, same walk),
// not merely an equivalent one. Programmatic submissions without provenance
// fall back to a BLIF serialization of the in-memory circuit.
type RequestRecord struct {
	// Benchmark names one of the paper's circuits; takes precedence over
	// CircuitBLIF when set.
	Benchmark string `json:"benchmark,omitempty"`
	// CircuitBLIF is the netlist as BLIF text.
	CircuitBLIF string `json:"circuit_blif,omitempty"`

	Spec []qor.Group `json:"spec"`
	// Config is journaled in core.Config's JSON form: every field that
	// shapes the result, enums as integers. Its runtime-only fields are
	// tagged json:"-", so a replayed record has none of them and runs on the
	// default technology library.
	Config core.Config `json:"config"`

	// DeadlineMS is the job's run-time budget in milliseconds (0 = none).
	// Journaled so a resumed job keeps its budget, and part of the dedup
	// content address — the same work under a different deadline is a
	// different submission.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// NewRequestRecord captures a submission for the journal. benchmark and
// blifText record the circuit's provenance when the caller knows it (the
// HTTP server does); pass them empty to serialize circ itself. deadline is
// the job's run-time budget (zero for none).
func NewRequestRecord(circ *logic.Circuit, spec qor.OutputSpec, cfg core.Config, benchmark, blifText string, deadline time.Duration) (*RequestRecord, error) {
	r := &RequestRecord{
		Benchmark:   benchmark,
		CircuitBLIF: blifText,
		Spec:        spec.Groups,
		Config:      cfg,
		DeadlineMS:  deadline.Milliseconds(),
	}
	if r.Benchmark == "" && r.CircuitBLIF == "" {
		var sb strings.Builder
		if err := blif.Write(&sb, circ); err != nil {
			return nil, fmt.Errorf("store: serialize request circuit: %w", err)
		}
		r.CircuitBLIF = sb.String()
	}
	return r, nil
}

// Deadline returns the recorded run-time budget (zero = none).
func (r *RequestRecord) Deadline() time.Duration {
	return time.Duration(r.DeadlineMS) * time.Millisecond
}

// Materialize rebuilds the circuit, spec, and core config from the record.
func (r *RequestRecord) Materialize() (*logic.Circuit, qor.OutputSpec, core.Config, error) {
	var (
		circ *logic.Circuit
		err  error
	)
	switch {
	case r.Benchmark != "":
		bm, berr := bench.ByName(r.Benchmark)
		if berr != nil {
			return nil, qor.OutputSpec{}, core.Config{}, fmt.Errorf("store: materialize request: %w", berr)
		}
		circ = bm.Circ
	case r.CircuitBLIF != "":
		circ, err = blif.Read(strings.NewReader(r.CircuitBLIF))
		if err != nil {
			return nil, qor.OutputSpec{}, core.Config{}, fmt.Errorf("store: materialize request: %w", err)
		}
	default:
		return nil, qor.OutputSpec{}, core.Config{}, fmt.Errorf("store: request record names no circuit")
	}
	return circ, qor.OutputSpec{Groups: r.Spec}, r.Config, nil
}

// ResultRecord is the journaled terminal outcome of a successful job:
// everything the service needs to keep serving the job after a restart
// without re-running the flow — the summary, the chosen netlist, and the
// full frontier.
type ResultRecord struct {
	BestStep          int                  `json:"best_step"`
	Steps             []core.Step          `json:"steps"`
	AccurateModelArea float64              `json:"accurate_model_area"`
	Frontier          []core.FrontierPoint `json:"frontier,omitempty"`
	// BestBLIF is the chosen approximate netlist, serialized as BLIF.
	BestBLIF string `json:"best_blif"`
}

// NewResultRecord captures a finished flow result for the journal.
func NewResultRecord(res *core.Result) (*ResultRecord, error) {
	best, err := res.BestCircuit()
	if err != nil {
		return nil, fmt.Errorf("store: serialize result circuit: %w", err)
	}
	var sb strings.Builder
	if err := blif.Write(&sb, best); err != nil {
		return nil, fmt.Errorf("store: serialize result circuit: %w", err)
	}
	r := &ResultRecord{
		BestStep:          res.BestStep,
		Steps:             append([]core.Step(nil), res.Steps...),
		AccurateModelArea: res.AccurateModelArea,
		BestBLIF:          sb.String(),
	}
	if res.Frontier != nil {
		r.Frontier = res.Frontier.Points()
	}
	return r, nil
}

// BestCircuit parses the stored approximate netlist.
func (r *ResultRecord) BestCircuit() (*logic.Circuit, error) {
	c, err := blif.Read(strings.NewReader(r.BestBLIF))
	if err != nil {
		return nil, fmt.Errorf("store: parse stored result netlist: %w", err)
	}
	return c, nil
}

// RestoreFrontier rebuilds the frontier (points plus the maintained
// non-dominated set) from the stored points.
func (r *ResultRecord) RestoreFrontier() *core.Frontier {
	if len(r.Frontier) == 0 {
		return nil
	}
	return core.RestoreFrontier(r.AccurateModelArea, r.Frontier)
}
