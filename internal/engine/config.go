package engine

import (
	"fmt"

	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/qor"
)

// GroupConfig is the wire form of one output group: qor.Group under its
// JSON tags.
type GroupConfig = qor.Group

// SequenceConfig is the wire form of accumulator feedback: qor.Sequence
// under its JSON tags.
type SequenceConfig = qor.Sequence

// JobConfig is the JSON configuration accepted by POST /v1/jobs. Every field
// is optional; zero values fall through to the core defaults (k = m = 10,
// 5% average-relative-error threshold, 2^16 samples, OR semiring, column
// basis). The metric, semiring and basis are names, parsed by
// qor.ParseMetric, bmf.ParseSemiring and core.ParseBasis; the job journal
// stores the resulting core.Config, with those enums as integers.
type JobConfig struct {
	K            int     `json:"k,omitempty"`
	M            int     `json:"m,omitempty"`
	Metric       string  `json:"metric,omitempty"`
	Threshold    float64 `json:"threshold,omitempty"`
	Samples      int     `json:"samples,omitempty"`
	Seed         int64   `json:"seed,omitempty"`
	Weighted     bool    `json:"weighted,omitempty"`
	Semiring     string  `json:"semiring,omitempty"`
	Basis        string  `json:"basis,omitempty"`
	ExploreFully bool    `json:"explore_fully,omitempty"`
	MaxSteps     int     `json:"max_steps,omitempty"`
	Lazy         bool    `json:"lazy,omitempty"`
	Parallelism  int     `json:"parallelism,omitempty"`
	// Workers bounds the per-step candidate-sweep worker pool (0 = the
	// job's parallelism). Any value yields bit-identical results, and the
	// explorer never allocates more shards than the machine-wide goroutine
	// budget can run; see core.Config.Workers.
	Workers    int  `json:"workers,omitempty"`
	SynthExact bool `json:"synth_exact,omitempty"`

	// DeadlineMS bounds the job's run time in milliseconds (0 = none). An
	// expired job finishes in the "timeout" terminal state with its
	// best-so-far frontier preserved. The deadline also drives admission:
	// a submission whose estimated queue wait already exceeds it is rejected
	// with 429 + Retry-After instead of being queued to die.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// Outputs overrides the output interpretation; nil means one unsigned
	// bus over all outputs (or the benchmark's own spec for benchmark jobs).
	Outputs []GroupConfig `json:"outputs,omitempty"`
	// Sequence requests accumulator-feedback multi-cycle evaluation,
	// overriding a benchmark's default sequence when present.
	Sequence *SequenceConfig `json:"sequence,omitempty"`
}

// CoreConfig translates the wire config into a core.Config. Defaults are
// left zero for core's own withDefaults to complete.
func (jc JobConfig) CoreConfig() (core.Config, error) {
	metric, err := qor.ParseMetric(jc.Metric)
	if err != nil {
		return core.Config{}, fmt.Errorf("engine: %w", err)
	}
	semiring, err := bmf.ParseSemiring(jc.Semiring)
	if err != nil {
		return core.Config{}, fmt.Errorf("engine: %w", err)
	}
	basis, err := core.ParseBasis(jc.Basis)
	if err != nil {
		return core.Config{}, fmt.Errorf("engine: %w", err)
	}
	return core.Config{
		K: jc.K, M: jc.M,
		Metric:       metric,
		Threshold:    jc.Threshold,
		Samples:      jc.Samples,
		Seed:         jc.Seed,
		Weighted:     jc.Weighted,
		Semiring:     semiring,
		Basis:        basis,
		ExploreFully: jc.ExploreFully,
		MaxSteps:     jc.MaxSteps,
		Lazy:         jc.Lazy,
		Parallelism:  jc.Parallelism,
		Workers:      jc.Workers,
		SynthExact:   jc.SynthExact,
		Sequence:     jc.Sequence,
	}, nil
}

// Spec resolves the output interpretation for a circuit: the configured
// groups when present, otherwise one unsigned bus spanning every output.
func (jc JobConfig) Spec(c *logic.Circuit) (qor.OutputSpec, error) {
	if len(jc.Outputs) == 0 {
		return qor.Unsigned("out", c.NumOutputs()), nil
	}
	spec := qor.OutputSpec{}
	for _, g := range jc.Outputs {
		if len(g.Bits) == 0 {
			return qor.OutputSpec{}, fmt.Errorf("engine: output group %q has no bits", g.Name)
		}
		for _, bit := range g.Bits {
			if bit < 0 || bit >= c.NumOutputs() {
				return qor.OutputSpec{}, fmt.Errorf("engine: output group %q references bit %d of a %d-output circuit",
					g.Name, bit, c.NumOutputs())
			}
		}
		spec.Groups = append(spec.Groups, g)
	}
	return spec, nil
}
