package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/qor"
)

// ExplorerState is the serializable checkpoint of the greedy exploration:
// everything needed to continue Algorithm 1's design-space walk from its
// last committed step instead of from scratch. A state is captured after
// every commit (Config.Checkpoint) and fed back through Config.Resume; a
// resumed run replays the committed trajectory against a freshly profiled
// circuit and then continues the loop, producing a final Result bit-identical
// to an uninterrupted run (see TestCheckpointResumeDeterminism).
//
// The Monte-Carlo sample streams need no explicit cursor: every evaluator is
// seeded from (Seed, Samples) at construction and consumed deterministically,
// so recording those two values positions the RNG exactly. Profiling is
// likewise re-derived (deterministically, and cheaply under a warm bmf.Cache)
// rather than serialized: block variants embed synthesized circuits whose
// reconstruction from the factorization inputs is exact.
type ExplorerState struct {
	// Step is the number of committed exploration steps, i.e. the index the
	// resumed loop continues at. Always equal to len(Steps).
	Step int `json:"step"`
	// Degrees is the committed per-block degree vector.
	Degrees []int `json:"degrees"`
	// Steps is the committed trajectory so far, including each step's full
	// QoR report.
	Steps []Step `json:"steps"`
	// Frontier is every (error, area) point evaluated so far, in evaluation
	// order, with committed points flagged. Replaying these through
	// Frontier.add reproduces the non-dominated set exactly.
	Frontier []FrontierPoint `json:"frontier"`
	// AccurateModelArea is the model area of the accurate circuit, used to
	// re-normalize restored frontier points.
	AccurateModelArea float64 `json:"accurate_model_area"`
	// Seed and Samples position the Monte-Carlo RNG: evaluator sample
	// streams are regenerated deterministically from them at resume.
	Seed    int64 `json:"seed"`
	Samples int   `json:"samples"`
	// Lazy carries the lazy-greedy explorer's candidate estimates; nil for
	// the exhaustive explorer.
	Lazy *LazyExplorerState `json:"lazy,omitempty"`
	// CircuitDigest fingerprints the prepared circuit's structure. Resume
	// refuses a state whose digest does not match the circuit being
	// resumed: block counts alone can coincide across circuits, and
	// replaying one circuit's trajectory onto another would splice a
	// meaningless walk (the CLI's free-standing -resume flag makes this an
	// easy mistake).
	CircuitDigest string `json:"circuit_digest"`
	// ConfigDigest fingerprints every Config field that shapes the
	// trajectory (K, M, metric, samples, seed, weights, semiring, basis, …).
	// Resume refuses a state whose digest does not match the resuming
	// Config, since continuing under different evaluation rules would splice
	// two unrelated walks. Stopping criteria (Threshold, MaxSteps,
	// ExploreFully) and the scheduling knobs (Parallelism, Workers) are
	// deliberately excluded: resuming with a larger budget to walk further is
	// legitimate, and both explorers walk bit-identically at any parallelism
	// or worker count.
	ConfigDigest string `json:"config_digest"`
}

// LazyExplorerState is the lazy-greedy explorer's cross-step memory: the
// cached candidate error estimates. Version is the committed step count
// they were captured at (ExplorerState.Step).
type LazyExplorerState struct {
	Version    int             `json:"version"`
	Candidates []LazyCandidate `json:"candidates"`
}

// LazyCandidate is one block's cached estimate in the lazy explorer. Its
// model area after the commit is that of its frontier point.
type LazyCandidate struct {
	BlockIndex int        `json:"block_index"`
	Error      float64    `json:"error"`
	Report     qor.Report `json:"report"`
	// Version is the committed step count the estimate was measured at
	// (-1 = never measured).
	Version int `json:"version"`
	// PointIndex is the frontier index of the latest measurement (-1 =
	// none).
	PointIndex int `json:"point_index"`
}

// configDigest hashes the Config fields that determine the exploration
// trajectory. See ExplorerState.ConfigDigest for what is excluded and why.
func configDigest(cfg Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "k=%d m=%d metric=%d samples=%d seed=%d weighted=%t semiring=%d basis=%d synthexact=%t lazy=%t noninc=%t",
		cfg.K, cfg.M, cfg.Metric, cfg.Samples, cfg.Seed, cfg.Weighted,
		cfg.Semiring, cfg.Basis, cfg.SynthExact, cfg.Lazy, cfg.DisableIncremental)
	fmt.Fprintf(h, " tau=%v", cfg.TauSweep)
	if cfg.Sequence != nil {
		fmt.Fprintf(h, " seq=%d:%v", cfg.Sequence.Steps, cfg.Sequence.Feedback)
	}
	// The library's areas drive the greedy tie-breaks and the frontier, so
	// resuming under a different library would splice incompatible walks.
	// Hash content, not identity: DefaultLibrary() builds a fresh value per
	// call, and the durable store cannot journal a custom library at all —
	// the digest turns that into a loud resume error instead of a silently
	// divergent run. (configDigest runs after withDefaults, so Lib is set.)
	if cfg.Lib != nil {
		fmt.Fprintf(h, " lib=%s/%d", cfg.Lib.Name, len(cfg.Lib.Cells))
		for _, c := range cfg.Lib.Cells {
			fmt.Fprintf(h, " %s:%d:%d:%g:%g:%g:%g", c.Name, c.NumInputs, c.TT, c.Area, c.Delay, c.Energy, c.Leakage)
		}
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// circuitDigest hashes the prepared circuit's structure: every node's
// function and fanins plus the output list. Two circuits share a digest iff
// they are node-for-node identical, which is exactly the condition for a
// checkpointed walk to transfer.
func circuitDigest(c *logic.Circuit) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %d %d", c.Name, len(c.Nodes), len(c.Outputs))
	for i := range c.Nodes {
		fmt.Fprintf(h, " %d", c.Nodes[i].Op)
		for _, f := range c.Nodes[i].Fanins() {
			fmt.Fprintf(h, ":%d", f)
		}
	}
	for _, o := range c.Outputs {
		fmt.Fprintf(h, " o%d", o)
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// walkState holds the fields every ExplorerState of one walk shares, the
// digests included: they are fixed for the walk, so it hashes them once.
func walkState(res *Result, cfg Config) ExplorerState {
	return ExplorerState{
		AccurateModelArea: res.AccurateModelArea,
		Seed:              cfg.Seed,
		Samples:           cfg.Samples,
		ConfigDigest:      configDigest(cfg),
		CircuitDigest:     circuitDigest(res.Circuit),
	}
}

// captureState snapshots the exploration after a commit onto the walk's
// shared fields (walkState). Slices are deep copies: the state is safe to
// retain, serialize, or hand to another goroutine while the exploration
// continues.
func captureState(st ExplorerState, res *Result, degrees []int, lazy *LazyExplorerState) ExplorerState {
	st.Step = len(res.Steps)
	st.Degrees = append([]int(nil), degrees...)
	st.Steps = append([]Step(nil), res.Steps...)
	st.Frontier = res.Frontier.Points()
	st.Lazy = lazy
	return st
}

// Validate checks the state's internal consistency (degree/step bookkeeping)
// independent of any circuit; resume additionally checks it against the
// profiled blocks and the resuming Config.
func (st *ExplorerState) Validate() error {
	if st == nil {
		return fmt.Errorf("core: nil explorer state")
	}
	if st.Step != len(st.Steps) {
		return fmt.Errorf("core: explorer state step %d does not match %d recorded steps", st.Step, len(st.Steps))
	}
	for i, s := range st.Steps {
		if s.BlockIndex < 0 || s.BlockIndex >= len(st.Degrees) {
			return fmt.Errorf("core: explorer state step %d references block %d of %d", i, s.BlockIndex, len(st.Degrees))
		}
	}
	if st.Lazy != nil {
		for i, c := range st.Lazy.Candidates {
			if c.BlockIndex < 0 || c.BlockIndex >= len(st.Degrees) {
				return fmt.Errorf("core: explorer state lazy candidate %d references block %d of %d", i, c.BlockIndex, len(st.Degrees))
			}
			if c.PointIndex < -1 || c.PointIndex >= len(st.Frontier) {
				return fmt.Errorf("core: explorer state lazy candidate %d references frontier point %d of %d", i, c.PointIndex, len(st.Frontier))
			}
		}
	}
	return nil
}

// TracePoints renders the committed trajectory as trade-off trace points,
// sharing Result.Trace's per-step rendering (without the accurate Step -1
// row). A service derives a job's progress trace from its latest state with
// this, so the trace it serves is the record of the walk it keeps.
func (st *ExplorerState) TracePoints() []TracePoint {
	pts := make([]TracePoint, 0, len(st.Steps))
	for i, s := range st.Steps {
		pts = append(pts, stepTracePoint(i, s, st.AccurateModelArea))
	}
	return pts
}

// resumeExplorer restores a checkpointed exploration onto freshly profiled
// blocks: the frontier is replayed point by point, the committed steps are
// re-applied to the candidate evaluator (rebuilding its incremental baseline
// exactly as the original commits did), and the explorer loops then continue
// at st.Step. walk holds the resuming walk's digests (walkState).
func resumeExplorer(res *Result, ce candidateEvaluator, cfg Config, st *ExplorerState, walk ExplorerState) error {
	if err := st.Validate(); err != nil {
		return err
	}
	if got, want := walk.ConfigDigest, st.ConfigDigest; want != "" && got != want {
		return fmt.Errorf("core: resume state was checkpointed under a different configuration (digest %s, resuming %s)", want, got)
	}
	if got, want := walk.CircuitDigest, st.CircuitDigest; want != "" && got != want {
		return fmt.Errorf("core: resume state was checkpointed for a different circuit (digest %s, resuming %s)", want, got)
	}
	if len(st.Degrees) != len(res.Profiles) {
		return fmt.Errorf("core: resume state has %d blocks, circuit decomposed into %d", len(st.Degrees), len(res.Profiles))
	}
	if (st.Lazy != nil) != cfg.Lazy {
		return fmt.Errorf("core: resume state lazy=%t does not match Config.Lazy=%t", st.Lazy != nil, cfg.Lazy)
	}
	for _, p := range st.Frontier {
		res.Frontier.add(p)
	}
	res.Steps = append([]Step(nil), st.Steps...)
	for _, s := range st.Steps {
		if err := ce.commit(s.BlockIndex, s.NewDegree); err != nil {
			return fmt.Errorf("core: replaying committed step (block %d -> f=%d): %w", s.BlockIndex, s.NewDegree, err)
		}
	}
	return nil
}

// thresholdReached reports whether the last committed step already crossed
// the error budget, i.e. an uninterrupted run would have stopped. A resumed
// exploration checks this before looping so a checkpoint taken at the
// terminal step does not walk one step further than the original run.
func thresholdReached(res *Result, cfg Config) bool {
	if cfg.ExploreFully || len(res.Steps) == 0 {
		return false
	}
	return res.Steps[len(res.Steps)-1].Report.Value(cfg.Metric) >= cfg.Threshold
}

// WriteTo serializes the state as indented JSON (the format -checkpoint
// files and the job store's snapshot files use).
func (st *ExplorerState) WriteTo(w io.Writer) (int64, error) {
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return 0, err
	}
	b = append(b, '\n')
	n, err := w.Write(b)
	return int64(n), err
}

// ReadExplorerState parses a serialized ExplorerState and validates its
// internal consistency.
func ReadExplorerState(r io.Reader) (*ExplorerState, error) {
	var st ExplorerState
	dec := json.NewDecoder(r)
	if err := dec.Decode(&st); err != nil {
		return nil, fmt.Errorf("core: parse explorer state: %w", err)
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return &st, nil
}
