// Package core implements the BLASYS flow of Hashemi, Tann & Reda (DAC'18):
// Algorithm 1 of the paper, end to end.
//
//  1. The input circuit is swept, reordered depth-first, and decomposed into
//     k×m blocks (internal/partition).
//  2. Profiling (Alg. 1, lines 3–10): every block's truth table is
//     factorized at every degree f = 1..m_i-1 (internal/bmf), each
//     factorization is synthesized into a compressor/decompressor netlist
//     (internal/synth), and technology-mapped for its area (internal/techmap).
//  3. Exploration (Alg. 1, lines 12–22): starting from the accurate circuit,
//     greedily decrement the factorization degree of whichever block hurts
//     whole-circuit QoR the least. QoR is re-estimated per candidate by the
//     incremental cone-based engine (qor.IncrementalComparer), which
//     simulates only the substituted block and the reached part of its
//     fanout cone on top of a cached committed-circuit state and is
//     bit-identical to Monte-Carlo simulation of the complete substituted
//     circuit (the paper-literal path, kept behind
//     Config.DisableIncremental and used for Sequence evaluation).
//
// The full exploration trace is recorded so callers can reproduce the
// paper's trade-off curves (Figs. 4 and 5) as well as the threshold tables
// (Tables 2 and 3).
package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"strings"

	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/partition"
	"github.com/blasys-go/blasys/internal/qor"
	"github.com/blasys-go/blasys/internal/sched"
	"github.com/blasys-go/blasys/internal/synth"
	"github.com/blasys-go/blasys/internal/techmap"
	"github.com/blasys-go/blasys/internal/telemetry"
)

// Config controls the BLASYS flow. The zero value is completed by
// (*Config).withDefaults: k = m = 10 (the paper's choice), average relative
// error metric, 5% threshold, 2^16 exploration samples, OR semiring,
// weighted QoR off.
//
// The JSON form holds every field that shapes the result and is what the
// job store journals; the enums are written as integers. The runtime-only
// fields (Lib, Cache, Checkpoint, Resume, Span) are not encoded,
// so a journaled job always runs on the default library.
type Config struct {
	// K and M bound block inputs and outputs (paper: 10 and 10).
	K int `json:"k,omitempty"`
	M int `json:"m,omitempty"`
	// Metric drives exploration and the threshold.
	Metric qor.Metric `json:"metric,omitempty"`
	// Threshold is the QoR budget (e.g. 0.05 for 5% average relative
	// error).
	Threshold float64 `json:"threshold,omitempty"`
	// Samples is the Monte-Carlo sample count used during exploration.
	Samples int `json:"samples,omitempty"`
	// Seed makes the whole flow deterministic.
	Seed int64 `json:"seed,omitempty"`
	// Weighted enables the paper's weighted-QoR factorization (§3.2):
	// block-output columns are weighted by their influence on significant
	// primary-output bits instead of uniformly.
	Weighted bool `json:"weighted,omitempty"`
	// Semiring selects OR (paper default) or XOR decompressors.
	Semiring bmf.Semiring `json:"semiring,omitempty"`
	// TauSweep overrides the ASSO threshold sweep (nil = default).
	TauSweep []float64 `json:"tau_sweep,omitempty"`
	// Lib is the technology library for area modeling (nil = default 65nm).
	Lib *techmap.Library `json:"-"`
	// ExploreFully continues past the threshold until every block reaches
	// degree 1, recording the full trade-off curve.
	ExploreFully bool `json:"explore_fully,omitempty"`
	// MaxSteps caps exploration iterations (0 = unlimited).
	MaxSteps int `json:"max_steps,omitempty"`
	// Parallelism bounds the block-profiling workers (0 = GOMAXPROCS) and
	// is the default for Workers. Like the sweep's, extra profiling workers
	// draw goroutine tokens from the machine-wide budget
	// (internal/sched.Claim), so profiling, the tau sweeps inside it, and
	// every other job share one budget. No result depends on it.
	Parallelism int `json:"parallelism,omitempty"`
	// Workers bounds the explorer's candidate-sweep worker pool
	// (0 = Parallelism, whose default is GOMAXPROCS). Each worker claims
	// the sweep's next unevaluated candidate until none is left; results
	// land in per-candidate slots and are consumed in a fixed order, so any
	// worker count and any claim order produce bit-identical results. The
	// same workers then run the committed step's sample batches
	// (qor.IncrementalComparer.Commit), each claiming chunks of batches; each
	// batch writes only its own state. Extra workers draw goroutine tokens
	// from the machine-wide budget shared with the BMF tau sweep
	// (internal/sched.Claim); when none is free the calling goroutine does
	// the whole sweep or commit. So no sweep runs more than sched.Budget()+1
	// workers, and the explorer allocates at most that many shards whatever
	// Workers asks for. Workers also sets how far the lazy explorer looks
	// ahead (up to that many stale candidates per sweep); it never changes
	// the lazy walk.
	Workers int `json:"workers,omitempty"`
	// SynthExact uses exact two-level minimization for block synthesis.
	SynthExact bool `json:"synth_exact,omitempty"`
	// Basis selects the factor family; see the Basis constants.
	Basis Basis `json:"basis,omitempty"`
	// Sequence, when non-nil, evaluates QoR with accumulator feedback
	// (multi-cycle error, used for MAC/SAD).
	Sequence *qor.Sequence `json:"sequence,omitempty"`
	// Lazy switches the exploration to lazy greedy, a faster heuristic than
	// Algorithm 1: each candidate's last measurement stands as its estimate
	// after a commit, and only a leading stale estimate is re-measured, at a
	// fraction of the simulations. Its walk can differ from the exhaustive
	// sweep's, and its best area with it: at 5% and seed 1, equal on
	// Adder32 and SAD and worse on Mult8 (0.855 against 0.852 of the
	// accurate area) at 2^13 samples, and worse on MAC and FIR at paper
	// defaults. No result depends on Workers or Parallelism. Default off
	// (paper-literal exhaustive re-evaluation).
	Lazy bool `json:"lazy,omitempty"`
	// Cache, when non-nil, memoizes block factorizations by truth-table
	// content (see bmf.Cache). Sharing one cache across Approximate calls
	// lets repeated or overlapping runs skip re-factorization entirely.
	Cache bmf.Cache `json:"-"`
	// Checkpoint, when non-nil, receives a serializable ExplorerState after
	// every committed exploration step, called synchronously from the
	// exploring goroutine; keep it fast, since a blocking hook stalls the
	// exploration. The state is a deep copy: safe to retain, serialize, or
	// hand off. Its TracePoints end with the step just committed, so the
	// hook doubles as a progress stream. Feeding a checkpointed state back
	// through Resume continues the walk from that step with bit-identical
	// results.
	Checkpoint func(ExplorerState) `json:"-"`
	// Resume, when non-nil, restores a previously checkpointed exploration:
	// profiling still runs (deterministically, and cheaply under a warm
	// Cache), the committed trajectory is replayed onto the evaluator, and
	// the explorer continues at Resume.Step instead of step 0. The state
	// must come from a run with a matching configuration (see
	// ExplorerState.ConfigDigest).
	Resume *ExplorerState `json:"-"`
	// Span, when non-nil, is the parent telemetry span the flow records its
	// stages under ("profile", "explore", per-step "step" children). A nil
	// span disables stage recording at zero cost; like Checkpoint, the
	// field is pure observability and excluded from the checkpoint config
	// digest.
	Span *telemetry.Span `json:"-"`
	// DisableIncremental forces exploration candidates to be evaluated by
	// materializing the whole substituted circuit and resimulating it
	// (logic.ReplaceBlocks + a full qor comparison), exactly as Algorithm 1
	// is written. The default incremental engine simulates only each
	// candidate block's fanout cone on top of a cached committed state
	// (qor.IncrementalComparer) and produces bit-identical reports; this
	// escape hatch exists for validation and A/B benchmarking. Sequence
	// evaluation always uses the full path: feedback makes every cycle's
	// state candidate-dependent, so there is no reusable baseline.
	DisableIncremental bool `json:"disable_incremental,omitempty"`
}

// Basis selects the BMF family used for block variants.
type Basis int

const (
	// BasisColumns (default) restricts B to subsets of the block's own
	// output columns (bmf.FactorizeColumns) so the compressor reuses the
	// accurate block's logic and area mostly shrinks with f (a lower degree
	// maps larger in 0 to 21% of a circuit's decrements: Adder32 none, FIR
	// 184 of 869). This compensates for this reproduction's from-scratch
	// (two-level + Shannon) resynthesis being far weaker than the industrial
	// multi-level flow the paper drives, which otherwise inflates compressor
	// logic.
	BasisColumns Basis = iota
	// BasisASSO uses the paper's unrestricted ASSO factorization with
	// truth-table resynthesis of the compressor.
	BasisASSO
)

// basisNames holds each basis's name, which String returns and ParseBasis
// reads.
var basisNames = [...]string{BasisColumns: "columns", BasisASSO: "asso"}

func (b Basis) valid() bool { return b >= 0 && int(b) < len(basisNames) }

func (b Basis) String() string {
	if b.valid() {
		return basisNames[b]
	}
	return fmt.Sprintf("basis(%d)", int(b))
}

// ParseBasis returns the basis with the given name (columns, asso); ""
// means the default, BasisColumns.
func ParseBasis(name string) (Basis, error) {
	if name == "" {
		return BasisColumns, nil
	}
	for b, n := range basisNames {
		if n == name {
			return Basis(b), nil
		}
	}
	return 0, fmt.Errorf("core: unknown basis %q (known: %s)", name, strings.Join(basisNames[:], ", "))
}

// validate rejects enum values that name no constant. A caller or a job
// journal can hold any integer; an unknown metric would panic mid-walk,
// and an unknown semiring or basis would run as OR or columns.
func (c Config) validate() error {
	switch {
	case !c.Metric.Valid():
		return fmt.Errorf("core: unknown metric %d", int(c.Metric))
	case !c.Semiring.Valid():
		return fmt.Errorf("core: unknown semiring %d", int(c.Semiring))
	case !c.Basis.valid():
		return fmt.Errorf("core: unknown basis %d", int(c.Basis))
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 10
	}
	if c.M == 0 {
		c.M = 10
	}
	if c.Threshold == 0 {
		c.Threshold = 0.05
	}
	if c.Samples == 0 {
		c.Samples = 1 << 16
	}
	if c.Lib == nil {
		c.Lib = techmap.DefaultLibrary()
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Workers <= 0 {
		c.Workers = c.Parallelism
	}
	return c
}

// Variant is one profiled approximation of a block: its factorization and
// the synthesized, mapped implementation.
type Variant struct {
	F             int
	Hamming       int
	WeightedError float64
	Impl          *logic.Circuit
	MappedArea    float64
}

// BlockProfile carries a block's accurate implementation and its
// approximate variants, indexed by degree (Variants[f-1] has degree f).
type BlockProfile struct {
	Block        partition.Block
	AccurateImpl *logic.Circuit
	AccurateArea float64
	Variants     []*Variant
}

// MaxDegree is the accurate "degree" of the block: its output count.
func (p *BlockProfile) MaxDegree() int { return len(p.Block.Outputs) }

// Step records one exploration commit: block's degree decremented, with the
// whole-circuit QoR and the modeled area after the commit.
type Step struct {
	BlockIndex int
	NewDegree  int
	Report     qor.Report
	// ModelArea is the paper's exploration-time area model: the sum of the
	// (approximated) blocks' mapped areas.
	ModelArea float64
}

// Result is the output of Approximate.
type Result struct {
	Config   Config
	Circuit  *logic.Circuit // prepared (swept + reordered) accurate circuit
	Spec     qor.OutputSpec
	Profiles []*BlockProfile
	Steps    []Step
	// AccurateModelArea is the sum of accurate block areas (the model's
	// area at step -1).
	AccurateModelArea float64
	// BestStep indexes the step chosen under the threshold (-1 if no step
	// within it has a smaller model area than the accurate circuit, which is
	// then returned).
	BestStep int
	// Frontier records every (error, area) point the exploration evaluated
	// — committed steps and losing sweep candidates alike — and maintains
	// the non-dominated accuracy/area trade-off set. Identical for every
	// Workers count.
	Frontier *Frontier
}

// Approximate runs the complete BLASYS flow.
func Approximate(c *logic.Circuit, spec qor.OutputSpec, cfg Config) (*Result, error) {
	return ApproximateCtx(context.Background(), c, spec, cfg)
}

// ApproximateCtx is Approximate with cancellation: the flow checks ctx
// between blocks and between a block's degrees during profiling and between
// candidate evaluations during exploration, returning ctx.Err() as soon as
// it is observed. Cancellation latency is therefore bounded by one block's
// all-degree factorization pass (every degree of the block factorizes in one
// call), one degree's synthesis, or one Monte-Carlo comparison, not by the
// whole run.
func ApproximateCtx(ctx context.Context, c *logic.Circuit, spec qor.OutputSpec, cfg Config) (*Result, error) {
	return approximate(ctx, c, spec, cfg, newCandidateEvaluator)
}

// approximate is ApproximateCtx with the candidate-evaluator constructor as
// a parameter, so tests can wrap the evaluator the flow picks.
func approximate(ctx context.Context, c *logic.Circuit, spec qor.OutputSpec, cfg Config,
	newEval func(*Result, []partition.Block, Config) (candidateEvaluator, error)) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("core: input circuit invalid: %w", err)
	}
	prepared := logic.ReorderDFS(c)
	blocks, err := partition.Decompose(prepared, partition.Options{
		MaxInputs: cfg.K, MaxOutputs: cfg.M,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Config: cfg, Circuit: prepared, Spec: spec, BestStep: -1}

	weights := blockOutputWeights(prepared, blocks, spec, cfg.Weighted)
	profSpan := cfg.Span.Child("profile")
	profSpan.SetAttr("blocks", len(blocks))
	res.Profiles, err = profileBlocks(ctx, prepared, blocks, weights, cfg)
	profSpan.End()
	if err != nil {
		return nil, err
	}
	for _, p := range res.Profiles {
		res.AccurateModelArea += p.AccurateArea
	}

	ce, err := newEval(res, blocks, cfg)
	if err != nil {
		return nil, err
	}
	if err := explore(ctx, res, ce, cfg); err != nil {
		return nil, err
	}
	res.selectBest()
	return res, nil
}

// candidateEvaluator measures exploration candidates — a candidate is
// (block index, trial degree) on top of the committed degree vector — and
// advances the committed state when the explorer picks one. Evaluation runs
// through worker-private shards; commit is called serially, never
// concurrently with shard evaluation.
type candidateEvaluator interface {
	// shards returns n worker-private evaluation handles for the sharded
	// candidate sweep. Shards stay valid across commits.
	shards(n int) []candidateShard
	// commit records that block bi was decremented to newDegree.
	commit(bi, newDegree int) error
}

// newCandidateEvaluator picks the evaluation engine: the incremental
// cone-based comparer by default, the paper-literal full-rebuild path for
// sequence (feedback) evaluation or when Config.DisableIncremental is set.
func newCandidateEvaluator(res *Result, blocks []partition.Block, cfg Config) (candidateEvaluator, error) {
	if cfg.Sequence == nil && !cfg.DisableIncremental {
		ic, err := qor.NewIncrementalComparer(res.Circuit, res.Spec, blocks, cfg.Samples, cfg.Seed)
		if err != nil {
			return nil, err
		}
		return &incrementalEval{res: res, ic: ic}, nil
	}
	cmp, err := qor.NewComparer(res.Circuit, res.Spec, cfg.Sequence, cfg.Samples, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &fullRebuildEval{res: res, cmp: cmp}, nil
}

// fullRebuildEval materializes every candidate with logic.ReplaceBlocks and
// resimulates the complete substituted circuit.
type fullRebuildEval struct {
	res *Result
	cmp qor.Comparer
}

// evaluate rebuilds and resimulates the full trial circuit — the
// paper-literal unit of work.
func (f *fullRebuildEval) evaluate(degrees []int, bi, degree int) (qor.Report, error) {
	trial := append([]int(nil), degrees...)
	trial[bi] = degree
	circ, err := f.res.buildCircuit(trial)
	if err != nil {
		return qor.Report{}, err
	}
	return f.cmp.Compare(circ)
}

func (f *fullRebuildEval) commit(bi, newDegree int) error { return nil }

// shards shares the receiver: evaluate materializes per-call state and
// the underlying Comparer kinds are safe for concurrent Compare, so no
// per-worker state is needed on this path.
func (f *fullRebuildEval) shards(n int) []candidateShard {
	out := make([]candidateShard, n)
	for i := range out {
		out[i] = f
	}
	return out
}

// incrementalEval evaluates candidates through the cone-based incremental
// comparer: only the substituted block implementation and its transitive
// fanout are simulated, on top of the cached committed circuit state.
type incrementalEval struct {
	res *Result
	ic  *qor.IncrementalComparer
	// sh are the sweep's shards (nil before shards is called); commit runs
	// its batches on them.
	sh []*qor.Shard
}

func (e *incrementalEval) variant(bi, degree int) *logic.Circuit {
	return e.res.Profiles[bi].Variants[degree-1].Impl
}

func (e *incrementalEval) commit(bi, newDegree int) error {
	_, err := e.ic.Commit(bi, e.variant(bi, newDegree), e.sh...)
	return err
}

// shards hands each sweep worker a private qor.Shard: candidate compilation
// and execution state is owned outright (no pool contention), while the
// committed baseline cache is shared read-only across all workers. The
// shards also carry commit's workers, which run only between sweeps.
func (e *incrementalEval) shards(n int) []candidateShard {
	out := make([]candidateShard, n)
	e.sh = make([]*qor.Shard, n)
	for i := range out {
		e.sh[i] = e.ic.Shard()
		out[i] = &incrementalShard{e: e, sh: e.sh[i]}
	}
	return out
}

type incrementalShard struct {
	e  *incrementalEval
	sh *qor.Shard
}

// evaluate compares the block's variant at the trial degree on the shard's
// private scratch; the committed state lives in the shared comparer, so
// degrees is not consulted.
func (s *incrementalShard) evaluate(_ []int, bi, degree int) (qor.Report, error) {
	return s.sh.CompareCandidate(bi, s.e.variant(bi, degree))
}

// blockOutputWeights computes, per block, the column weights for weighted
// QoR factorization. Each block output is weighted by the summed
// significance of the primary-output bits it can reach (significance of bit
// b within a w-bit group is 2^b / 2^(w-1)); this generalizes the paper's
// power-of-two output weighting to internal nets. Uniform (nil) weights are
// returned when weighting is disabled or the circuit has more than 64
// primary outputs.
func blockOutputWeights(c *logic.Circuit, blocks []partition.Block, spec qor.OutputSpec, enabled bool) [][]float64 {
	out := make([][]float64, len(blocks))
	if !enabled || len(c.Outputs) > 64 {
		return out
	}
	sig := make([]float64, len(c.Outputs))
	for _, g := range spec.Groups {
		w := len(g.Bits)
		for j, bit := range g.Bits {
			sig[bit] = math.Ldexp(1, j) / math.Ldexp(1, w-1)
		}
	}
	// reach[node] = bitmask of primary outputs reachable from node.
	reach := make([]uint64, len(c.Nodes))
	for oi, o := range c.Outputs {
		reach[o] |= 1 << uint(oi)
	}
	for i := len(c.Nodes) - 1; i >= 0; i-- {
		r := reach[i]
		if r == 0 {
			continue
		}
		for _, f := range c.Nodes[i].Fanins() {
			reach[f] |= r
		}
	}
	for bi, b := range blocks {
		ws := make([]float64, len(b.Outputs))
		for j, node := range b.Outputs {
			w := 0.0
			for r := reach[node]; r != 0; r &= r - 1 {
				w += sig[bits.TrailingZeros64(r)]
			}
			if w <= 0 {
				w = 1.0 / math.Ldexp(1, 20) // unreachable: negligible weight
			}
			ws[j] = w
		}
		// Normalize so the smallest weight is 1 (keeps ASSO's gain scale
		// comparable to the uniform case).
		min := math.Inf(1)
		for _, w := range ws {
			if w < min {
				min = w
			}
		}
		for j := range ws {
			ws[j] /= min
		}
		out[bi] = ws
	}
	return out
}

// profileBlocks runs Alg. 1's profiling phase in parallel across blocks, on
// up to Parallelism workers drawn from the machine-wide sched budget. Each
// block writes only its own slot, and the first error in block order wins.
func profileBlocks(ctx context.Context, c *logic.Circuit, blocks []partition.Block, weights [][]float64, cfg Config) ([]*BlockProfile, error) {
	profiles := make([]*BlockProfile, len(blocks))
	errs := make([]error, len(blocks))
	sched.Claim(cfg.Parallelism, len(blocks), func(_, bi int) bool {
		if ctx.Err() != nil {
			return false
		}
		profiles[bi], errs[bi] = profileBlock(ctx, c, blocks[bi], weights[bi], cfg)
		return errs[bi] == nil
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return profiles, nil
}

func profileBlock(ctx context.Context, c *logic.Circuit, b partition.Block, colWeights []float64, cfg Config) (*BlockProfile, error) {
	impl, err := partition.Extract(c, b)
	if err != nil {
		return nil, err
	}
	p := &BlockProfile{Block: b, AccurateImpl: impl}
	mapped, err := techmap.Map(impl, cfg.Lib)
	if err != nil {
		return nil, err
	}
	p.AccurateArea = mapped.Area()

	mi := len(b.Outputs)
	ki := len(b.Inputs)
	if mi < 2 || ki == 0 || ki > 16 {
		return p, nil // nothing to factorize (or block degenerate)
	}
	M, err := partition.TruthMatrix(c, b)
	if err != nil {
		return nil, err
	}
	maxF := mi - 1
	if maxF > bmf.MaxDegree {
		maxF = bmf.MaxDegree
	}
	opts := bmf.Options{
		Semiring:   cfg.Semiring,
		ColWeights: colWeights,
		TauSweep:   cfg.TauSweep,
	}
	// One factorization pass computes every degree of the block.
	var (
		assoRes []*bmf.Result
		colRes  []*bmf.ColumnResult
	)
	switch cfg.Basis {
	case BasisASSO:
		assoRes, err = bmf.FactorizeDegreesCached(cfg.Cache, M, maxF, opts)
	default: // BasisColumns
		colRes, err = bmf.FactorizeColumnsDegreesCached(cfg.Cache, M, maxF, opts)
	}
	if err != nil {
		return nil, err
	}
	// One memo for all degrees: their B columns keep recurring.
	sy := synth.New(synth.Options{Exact: cfg.SynthExact})
	for f := 1; f <= maxF; f++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		name := fmt.Sprintf("%s_b%d_f%d", c.Name, len(b.Gates), f)
		var (
			blkImpl *logic.Circuit
			hamming int
			werr    float64
		)
		switch cfg.Basis {
		case BasisASSO:
			fr := assoRes[f-1]
			blkImpl, err = sy.ApproxBlock(name, fr, cfg.Semiring)
			if err != nil {
				return nil, err
			}
			hamming, werr = fr.Hamming, fr.WeightedError
		default: // BasisColumns
			fr := colRes[f-1]
			blkImpl, err = synth.ApproxBlockStructural(name, impl, fr, cfg.Semiring)
			if err != nil {
				return nil, err
			}
			hamming, werr = fr.Hamming, fr.WeightedError
		}
		blkMapped, err := techmap.Map(blkImpl, cfg.Lib)
		if err != nil {
			return nil, err
		}
		p.Variants = append(p.Variants, &Variant{
			F:             f,
			Hamming:       hamming,
			WeightedError: werr,
			Impl:          blkImpl,
			MappedArea:    blkMapped.Area(),
		})
	}
	return p, nil
}

// explore is Alg. 1's circuit-space exploration (lines 12–22): each step
// commits the candidate that comes first in the candidate order (see
// candidate.less). The exhaustive explorer measures every candidate at every
// step; the lazy one measures only while a stale estimate leads (see
// pickLazy). Both walk one step loop, so they share its frontier, commit,
// checkpoint and stop rule.
func explore(ctx context.Context, res *Result, ce candidateEvaluator, cfg Config) error {
	exp := cfg.Span.Child("explore")
	defer func() {
		exp.SetAttr("steps", len(res.Steps))
		exp.End()
	}()
	// Step spans nest under the explore span (cfg is a value copy; the
	// caller's Span is untouched).
	cfg.Span = exp
	res.Frontier = newFrontier(res.AccurateModelArea)
	var walk ExplorerState
	if cfg.Checkpoint != nil || cfg.Resume != nil {
		walk = walkState(res, cfg)
	}
	startStep := 0
	if cfg.Resume != nil {
		if err := resumeExplorer(res, ce, cfg, cfg.Resume, walk); err != nil {
			return err
		}
		startStep = cfg.Resume.Step
		if thresholdReached(res, cfg) {
			return nil // the original run had already stopped here
		}
	} else {
		res.Frontier.markCommitted(res.Frontier.add(FrontierPoint{
			Step: -1, BlockIndex: -1, ModelArea: res.AccurateModelArea,
		}))
	}
	// sched.Claim never runs more than the budget's tokens plus the calling
	// goroutine, so more shards than that would only take memory.
	e := &explorer{ctx: ctx, res: res, ce: ce, cfg: cfg, walk: walk, degrees: res.DegreesAt(len(res.Steps) - 1),
		shards: ce.shards(min(cfg.Workers, sched.Budget()+1)), cands: initialCandidates(res, cfg.Resume)}
	pick := e.pickExhaustive
	if cfg.Lazy {
		pick = e.pickLazy
	}
	for step := startStep; cfg.MaxSteps == 0 || step < cfg.MaxSteps; step++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Drop blocks whose degree can no longer be decremented; degrees only
		// fall, so a dropped block never returns.
		live := e.cands[:0]
		for _, c := range e.cands {
			if next := e.degrees[c.bi] - 1; next >= 1 && next <= len(res.Profiles[c.bi].Variants) {
				live = append(live, c)
			}
		}
		e.cands = live
		if len(e.cands) == 0 {
			break
		}
		stepSpan := cfg.Span.Child("step")
		stepSpan.SetAttr("step", step)
		stepSpan.SetAttr("candidates", len(e.cands))
		chosen, err := pick(step)
		if err == nil {
			err = e.commit(chosen)
		}
		if err != nil {
			stepSpan.End()
			return err
		}
		stepSpan.SetAttr("block", chosen.bi)
		stepSpan.SetAttr("degree", e.degrees[chosen.bi])
		stepSpan.End()
		if !cfg.ExploreFully && chosen.err >= cfg.Threshold {
			break
		}
	}
	return nil
}

// candidate is one block's next decrement and its latest measurement, which
// the lazy explorer keeps as an estimate once a commit has made it stale.
type candidate struct {
	bi     int
	report qor.Report
	err    float64 // report's value under the metric; -1 before any measurement
	area   float64 // model area after committing the candidate, when measured
	at     int     // committed step count the measurement was made at (-1 = none)
	pt     int     // frontier index of the measurement (-1 = none)
}

// less is the explorer's one total order on candidates: error, then model
// area after the commit, then block index, all ascending. The block index
// makes it total, so no result depends on sort stability, slice order, or
// which worker measured what.
func (c *candidate) less(d *candidate) bool {
	if c.err != d.err {
		return c.err < d.err
	}
	if c.area != d.area {
		return c.area < d.area
	}
	return c.bi < d.bi
}

// initialCandidates returns one candidate per block in block order, or the
// estimates a resumed lazy walk checkpointed (their order is immaterial: the
// lazy explorer sorts them under the total order).
func initialCandidates(res *Result, st *ExplorerState) []*candidate {
	var cs []*candidate
	if st != nil && st.Lazy != nil {
		for _, lc := range st.Lazy.Candidates {
			c := &candidate{bi: lc.BlockIndex, report: lc.Report, err: lc.Error, at: lc.Version, pt: lc.PointIndex}
			if c.pt >= 0 {
				c.area = res.Frontier.points[c.pt].ModelArea
			}
			cs = append(cs, c)
		}
		return cs
	}
	for bi := range res.Profiles {
		cs = append(cs, &candidate{bi: bi, err: -1, at: -1, pt: -1})
	}
	return cs
}

// explorer is the state of one exploration walk.
type explorer struct {
	ctx     context.Context
	res     *Result
	ce      candidateEvaluator
	cfg     Config
	walk    ExplorerState // the fields every checkpoint shares (walkState)
	degrees []int         // committed degree vector
	shards  []candidateShard
	cands   []*candidate // live candidates
}

// fresh reports whether c was measured on the current committed state.
func (e *explorer) fresh(c *candidate) bool { return c.at == len(e.res.Steps) }

// measure evaluates batch in one sharded sweep, then records the results in
// batch order: estimate and frontier point. With lazy set, batch is a
// leading run of the candidate order and a result is kept only while no
// earlier result of the batch precedes its candidate; the first that one
// does is discarded with every later result, errors included.
func (e *explorer) measure(step int, batch []*candidate, lazy bool) error {
	bis := make([]int, len(batch))
	for i, c := range batch {
		bis[i] = c.bi
	}
	results := runSweep(e.ctx, e.shards, e.degrees, bis)
	if err := e.ctx.Err(); err != nil {
		return err
	}
	for i, c := range batch {
		if lazy && slices.ContainsFunc(batch[:i], func(d *candidate) bool { return d.less(c) }) {
			break
		}
		r := &results[i]
		if r.err != nil {
			return r.err
		}
		e.degrees[c.bi]--
		c.area = e.res.modelArea(e.degrees)
		c.report, c.err, c.at = r.report, r.report.Value(e.cfg.Metric), len(e.res.Steps)
		c.pt = e.res.Frontier.add(FrontierPoint{
			Error:      c.err,
			ModelArea:  c.area,
			Step:       step,
			BlockIndex: c.bi,
			Degree:     e.degrees[c.bi],
		})
		e.degrees[c.bi]++
	}
	return nil
}

// pickExhaustive is Algorithm 1 as written: a commit makes every measurement
// stale, so every candidate is measured, in block order (the frontier's point
// order), and the first in the candidate order wins.
func (e *explorer) pickExhaustive(step int) (*candidate, error) {
	if err := e.measure(step, e.cands, false); err != nil {
		return nil, err
	}
	best := e.cands[0]
	for _, c := range e.cands[1:] {
		if c.less(best) {
			best = c
		}
	}
	return best, nil
}

// pickLazy is lazy greedy: a stale candidate's last measurement stands as its
// estimate, and the leading candidate is measured until the leader is fresh.
// To use the sweep's workers it measures the leading run of stale
// candidates, up to len(shards), in one sweep, but keeps a result only while
// its candidate would still lead: stale candidates keep their relative
// order, so the next one leads unless a fresh measurement precedes it. The
// walk, frontier included, is that of measuring one candidate at a time,
// for every Workers and Parallelism.
func (e *explorer) pickLazy(step int) (*candidate, error) {
	for {
		sort.Slice(e.cands, func(i, j int) bool { return e.cands[i].less(e.cands[j]) })
		run := 0
		for run < len(e.cands) && run < len(e.shards) && !e.fresh(e.cands[run]) {
			run++
		}
		if run == 0 {
			return e.cands[0], nil
		}
		if err := e.measure(step, e.cands[:run], true); err != nil {
			return nil, err
		}
	}
}

// commit applies the chosen candidate: it marks its frontier point, advances
// the evaluator, records the step and checkpoints the walk. The committed
// block's next decrement inherits the measurement as its estimate.
func (e *explorer) commit(c *candidate) error {
	res := e.res
	res.Frontier.markCommitted(c.pt)
	e.degrees[c.bi]--
	if err := e.ce.commit(c.bi, e.degrees[c.bi]); err != nil {
		return err
	}
	res.Steps = append(res.Steps, Step{BlockIndex: c.bi, NewDegree: e.degrees[c.bi], Report: c.report, ModelArea: c.area})
	mSteps.Inc()
	if e.cfg.Checkpoint == nil {
		return nil
	}
	var ls *LazyExplorerState
	if e.cfg.Lazy {
		ls = &LazyExplorerState{Version: len(res.Steps)}
		for _, d := range e.cands {
			ls.Candidates = append(ls.Candidates, LazyCandidate{
				BlockIndex: d.bi, Error: d.err, Report: d.report, Version: d.at, PointIndex: d.pt,
			})
		}
	}
	e.cfg.Checkpoint(captureState(e.walk, res, e.degrees, ls))
	return nil
}

// modelArea is the paper's exploration-time area model: the sum of block
// areas at the given degrees.
func (r *Result) modelArea(degrees []int) float64 {
	a := 0.0
	for bi, p := range r.Profiles {
		if degrees[bi] >= p.MaxDegree() || degrees[bi] < 1 || degrees[bi] > len(p.Variants) {
			a += p.AccurateArea
		} else {
			a += p.Variants[degrees[bi]-1].MappedArea
		}
	}
	return a
}

// buildCircuit materializes the approximate circuit for a degree vector.
func (r *Result) buildCircuit(degrees []int) (*logic.Circuit, error) {
	impls := make(map[int]*logic.Circuit)
	for bi, p := range r.Profiles {
		d := degrees[bi]
		if d >= p.MaxDegree() || d < 1 || d > len(p.Variants) {
			continue
		}
		impls[bi] = p.Variants[d-1].Impl
	}
	if len(impls) == 0 {
		return r.Circuit, nil
	}
	blocks := make([]partition.Block, len(r.Profiles))
	for bi, p := range r.Profiles {
		blocks[bi] = p.Block
	}
	return logic.ReplaceBlocks(r.Circuit, partition.Substitutions(blocks, impls))
}

// DegreesAt reconstructs the per-block degree vector after the given step
// (-1 = accurate circuit).
func (r *Result) DegreesAt(step int) []int {
	degrees := make([]int, len(r.Profiles))
	for bi, p := range r.Profiles {
		degrees[bi] = p.MaxDegree()
	}
	for s := 0; s <= step && s < len(r.Steps); s++ {
		degrees[r.Steps[s].BlockIndex] = r.Steps[s].NewDegree
	}
	return degrees
}

// CircuitAt rebuilds the approximate circuit after the given step
// (-1 = accurate circuit).
func (r *Result) CircuitAt(step int) (*logic.Circuit, error) {
	return r.buildCircuit(r.DegreesAt(step))
}

// selectBest picks the best step of the whole walk under the configured
// threshold (see bestIn).
func (r *Result) selectBest() {
	r.BestStep = r.bestIn(len(r.Steps), r.Config.Threshold)
}

// BestStepAt returns the BestStep a walk with the same configuration, stopped
// at threshold, would have returned: selectBest's rule applied to the prefix
// that ends at the first step at or above threshold (the whole walk if none
// is). Stopping rules do not change the walk, so one exhaustive walk serves
// every threshold.
func (r *Result) BestStepAt(threshold float64) int {
	n := len(r.Steps)
	for i, s := range r.Steps {
		if s.Report.Value(r.Config.Metric) >= threshold {
			n = i + 1
			break
		}
	}
	return r.bestIn(n, threshold)
}

// bestIn picks, among the first n steps, the one with the smallest modeled
// area whose error is within threshold, and keeps the accurate circuit (step
// -1) unless such a step's area is strictly smaller than the accurate model
// area: under the asso basis a resynthesized step can outgrow it.
func (r *Result) bestIn(n int, threshold float64) int {
	best, bestArea := -1, r.AccurateModelArea
	for i, s := range r.Steps[:n] {
		if s.Report.Value(r.Config.Metric) <= threshold && s.ModelArea < bestArea {
			best, bestArea = i, s.ModelArea
		}
	}
	return best
}

// BestCircuit rebuilds the chosen approximate circuit (the accurate circuit
// if no step fit the threshold).
func (r *Result) BestCircuit() (*logic.Circuit, error) {
	return r.CircuitAt(r.BestStep)
}

// TracePoint is one point of the trade-off curve for plotting: the modeled
// (and normalized) area against each error metric.
type TracePoint struct {
	Step          int
	NormModelArea float64
	AvgRel        float64
	AvgAbs        float64
	NormAvgAbs    float64
	MeanHamming   float64
	BlockIndex    int
	NewDegree     int
}

// stepTracePoint renders committed step i as a trade-off point — the single
// mapping shared by Result.Trace and ExplorerState.TracePoints, so a trace
// rebuilt from a checkpoint is field-for-field the trace the original run
// streamed.
func stepTracePoint(i int, s Step, accurateArea float64) TracePoint {
	tp := TracePoint{
		Step:        i,
		AvgRel:      s.Report.AvgRel,
		AvgAbs:      s.Report.AvgAbs,
		NormAvgAbs:  s.Report.NormAvgAbs,
		MeanHamming: s.Report.MeanHam,
		BlockIndex:  s.BlockIndex,
		NewDegree:   s.NewDegree,
	}
	if accurateArea > 0 {
		tp.NormModelArea = s.ModelArea / accurateArea
	}
	return tp
}

// tracePointAt renders committed step i as a trade-off point.
func (r *Result) tracePointAt(i int) TracePoint {
	return stepTracePoint(i, r.Steps[i], r.AccurateModelArea)
}

// Trace renders the exploration as normalized trade-off points (the paper's
// Fig. 4/5 series), including the accurate starting point.
func (r *Result) Trace() []TracePoint {
	pts := make([]TracePoint, 0, len(r.Steps)+1)
	pts = append(pts, TracePoint{Step: -1, NormModelArea: 1, BlockIndex: -1})
	for i := range r.Steps {
		pts = append(pts, r.tracePointAt(i))
	}
	return pts
}

// FinalMetrics technology-maps the circuit at the given step and returns
// real (post-mapping) design metrics, alongside a fresh QoR report at the
// requested sample count.
func (r *Result) FinalMetrics(step, samples int) (techmap.Metrics, qor.Report, error) {
	circ, err := r.CircuitAt(step)
	if err != nil {
		return techmap.Metrics{}, qor.Report{}, err
	}
	mapped, err := techmap.Map(circ, r.Config.Lib)
	if err != nil {
		return techmap.Metrics{}, qor.Report{}, err
	}
	eval, err := qor.NewComparer(r.Circuit, r.Spec, r.Config.Sequence, samples, r.Config.Seed+1)
	if err != nil {
		return techmap.Metrics{}, qor.Report{}, err
	}
	rep, err := eval.Compare(circ)
	if err != nil {
		return techmap.Metrics{}, qor.Report{}, err
	}
	return mapped.Metrics(min(samples, 1<<14), r.Config.Seed+2), rep, nil
}
