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
	"sort"
	"sync"

	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/partition"
	"github.com/blasys-go/blasys/internal/qor"
	"github.com/blasys-go/blasys/internal/synth"
	"github.com/blasys-go/blasys/internal/techmap"
	"github.com/blasys-go/blasys/internal/telemetry"
	"github.com/blasys-go/blasys/internal/tt"
)

// Config controls the BLASYS flow. The zero value is completed by
// (*Config).withDefaults: k = m = 10 (the paper's choice), average relative
// error metric, 5% threshold, 2^16 exploration samples, OR semiring,
// weighted QoR off.
type Config struct {
	// K and M bound block inputs and outputs (paper: 10 and 10).
	K, M int
	// Metric drives exploration and the threshold.
	Metric qor.Metric
	// Threshold is the QoR budget (e.g. 0.05 for 5% average relative
	// error).
	Threshold float64
	// Samples is the Monte-Carlo sample count used during exploration.
	Samples int
	// Seed makes the whole flow deterministic.
	Seed int64
	// Weighted enables the paper's weighted-QoR factorization (§3.2):
	// block-output columns are weighted by their influence on significant
	// primary-output bits instead of uniformly.
	Weighted bool
	// Semiring selects OR (paper default) or XOR decompressors.
	Semiring bmf.Semiring
	// TauSweep overrides the ASSO threshold sweep (nil = default).
	TauSweep []float64
	// Lib is the technology library for area modeling (nil = default 65nm).
	Lib *techmap.Library
	// ExploreFully continues past the threshold until every block reaches
	// degree 1, recording the full trade-off curve.
	ExploreFully bool
	// MaxSteps caps exploration iterations (0 = unlimited).
	MaxSteps int
	// Parallelism bounds worker goroutines (0 = GOMAXPROCS).
	Parallelism int
	// Workers bounds the explorer's per-step candidate-sweep worker pool
	// (0 = Parallelism, whose default is GOMAXPROCS). Each worker claims
	// the step's next unevaluated candidate until none is left; results
	// land in per-candidate slots and are reduced under a fixed total order
	// on (error, area, block index), so any worker count and any claim
	// order produce bit-identical results. The same workers then run the
	// committed step's sample batches (qor.IncrementalComparer.Commit), each
	// claiming chunks of batches; each batch writes only its own state. Extra
	// workers draw goroutine tokens from the machine-wide budget shared with
	// the BMF tau sweep (internal/sched.Claim); when none is free the calling
	// goroutine does the whole sweep or commit.
	Workers int
	// SynthExact uses exact two-level minimization for block synthesis.
	SynthExact bool
	// Basis selects the factor family; see the Basis constants.
	Basis Basis
	// Sequence, when non-nil, evaluates QoR with accumulator feedback
	// (multi-cycle error, used for MAC/SAD).
	Sequence *qor.Sequence
	// Lazy switches the exploration to lazy greedy, a faster heuristic than
	// Algorithm 1: candidate errors are cached and only the smallest stale
	// estimates are re-evaluated, at a fraction of the simulations. Its walk
	// can differ from the exhaustive sweep's (on Mult8 and SAD at 2^13
	// samples, with equal best areas; at paper defaults lazy's best area is
	// worse on MAC and FIR). Default off (paper-literal exhaustive
	// re-evaluation).
	Lazy bool
	// Progress, when non-nil, receives one TracePoint per committed
	// exploration step, in commit order, called synchronously from the
	// exploring goroutine. Keep it fast (e.g. append to a buffer or send on
	// a buffered channel): a blocking hook stalls the exploration.
	Progress func(TracePoint)
	// Cache, when non-nil, memoizes block factorizations by truth-table
	// content (see bmf.Cache). Sharing one cache across Approximate calls
	// lets repeated or overlapping runs skip re-factorization entirely.
	Cache bmf.Cache
	// Checkpoint, when non-nil, receives a serializable ExplorerState after
	// every committed exploration step, called synchronously from the
	// exploring goroutine right after Progress. The state is a deep copy:
	// safe to retain, serialize, or hand off. Feeding a checkpointed state
	// back through Resume continues the walk from that step with
	// bit-identical results.
	Checkpoint func(ExplorerState)
	// Resume, when non-nil, restores a previously checkpointed exploration:
	// profiling still runs (deterministically, and cheaply under a warm
	// Cache), the committed trajectory is replayed onto the evaluator, and
	// the explorer continues at Resume.Step instead of step 0. The state
	// must come from a run with a matching configuration (see
	// ExplorerState.ConfigDigest).
	Resume *ExplorerState
	// Span, when non-nil, is the parent telemetry span the flow records its
	// stages under ("profile", "explore", per-step "step" children). A nil
	// span disables stage recording at zero cost; like Progress and
	// Checkpoint, the field is pure observability and excluded from the
	// checkpoint config digest.
	Span *telemetry.Span
	// DisableIncremental forces exploration candidates to be evaluated by
	// materializing the whole substituted circuit and resimulating it
	// (logic.ReplaceBlocks + a full qor comparison), exactly as Algorithm 1
	// is written. The default incremental engine simulates only each
	// candidate block's fanout cone on top of a cached committed state
	// (qor.IncrementalComparer) and produces bit-identical reports; this
	// escape hatch exists for validation and A/B benchmarking. Sequence
	// evaluation always uses the full path: feedback makes every cycle's
	// state candidate-dependent, so there is no reusable baseline.
	DisableIncremental bool
}

// Basis selects the BMF family used for block variants.
type Basis int

const (
	// BasisColumns (default) restricts B to subsets of the block's own
	// output columns (bmf.FactorizeColumns) so the compressor reuses the
	// accurate block's logic and area shrinks monotonically with f. This
	// compensates for this reproduction's from-scratch (two-level +
	// Shannon) resynthesis being far weaker than the industrial multi-level
	// flow the paper drives, which otherwise inflates compressor logic.
	BasisColumns Basis = iota
	// BasisASSO uses the paper's unrestricted ASSO factorization with
	// truth-table resynthesis of the compressor.
	BasisASSO
)

func (b Basis) String() string {
	switch b {
	case BasisColumns:
		return "columns"
	case BasisASSO:
		return "asso"
	}
	return fmt.Sprintf("basis(%d)", int(b))
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
	// BestStep indexes the step chosen under the threshold (-1 if even the
	// first step exceeded it, meaning the accurate circuit is returned).
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

// profileBlocks runs Alg. 1's profiling phase in parallel across blocks.
func profileBlocks(ctx context.Context, c *logic.Circuit, blocks []partition.Block, weights [][]float64, cfg Config) ([]*BlockProfile, error) {
	profiles := make([]*BlockProfile, len(blocks))
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Parallelism)
	errs := make([]error, len(blocks))
	for bi := range blocks {
		if err := ctx.Err(); err != nil {
			break // drain what was launched, then report cancellation
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(bi int) {
			defer wg.Done()
			defer func() { <-sem }()
			profiles[bi], errs[bi] = profileBlock(ctx, c, blocks[bi], weights[bi], cfg)
		}(bi)
	}
	wg.Wait()
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

// explore is Alg. 1's circuit-space exploration (lines 12–22).
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
	startStep := 0
	if cfg.Resume != nil {
		if err := resumeExplorer(res, ce, cfg, cfg.Resume); err != nil {
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
	if cfg.Lazy {
		return exploreLazy(ctx, res, ce, cfg, startStep)
	}
	return exploreExhaustive(ctx, res, ce, cfg, startStep)
}

// committedDegrees initializes the degree vector: accurate everywhere, then
// the committed steps (empty unless resuming) applied on top.
func committedDegrees(res *Result) []int {
	degrees := make([]int, len(res.Profiles))
	for bi, p := range res.Profiles {
		degrees[bi] = p.MaxDegree()
	}
	for _, s := range res.Steps {
		degrees[s.BlockIndex] = s.NewDegree
	}
	return degrees
}

// commitStep appends a committed exploration step and streams it to the
// Progress hook.
func (r *Result) commitStep(s Step, cfg Config) {
	r.Steps = append(r.Steps, s)
	mSteps.Inc()
	if cfg.Progress != nil {
		cfg.Progress(r.tracePointAt(len(r.Steps) - 1))
	}
}

// exploreLazy is the lazy-greedy variant: each candidate (block at its next
// degree) keeps the error measured the last time it was evaluated; only the
// smallest stale estimate is re-measured before committing.
func exploreLazy(ctx context.Context, res *Result, ce candidateEvaluator, cfg Config, startStep int) error {
	degrees := committedDegrees(res)
	type cand struct {
		bi      int
		err     float64
		report  qor.Report
		version int // state version the estimate was computed at
		ptIdx   int // frontier index of the latest measurement
	}
	version := 0
	var cands []*cand
	if cfg.Resume != nil && cfg.Resume.Lazy != nil {
		// Restore the candidate estimates in their checkpointed slice order:
		// the order is load-bearing (sort.Slice tie-breaking), so a resumed
		// run must see the same sequence the uninterrupted run had.
		version = cfg.Resume.Lazy.Version
		for _, lc := range cfg.Resume.Lazy.Candidates {
			cands = append(cands, &cand{
				bi: lc.BlockIndex, err: lc.Error, report: lc.Report,
				version: lc.Version, ptIdx: lc.PointIndex,
			})
		}
	} else {
		for bi, p := range res.Profiles {
			if p.MaxDegree()-1 >= 1 && len(p.Variants) >= p.MaxDegree()-1 {
				cands = append(cands, &cand{bi: bi, err: -1, version: -1, ptIdx: -1})
			}
		}
	}
	shards := ce.shards(cfg.Workers)
	measure := func(step int, batch []*cand) error {
		bis := make([]int, len(batch))
		for i, cd := range batch {
			bis[i] = cd.bi
		}
		results := runSweep(ctx, shards, degrees, bis)
		if err := ctx.Err(); err != nil {
			return err
		}
		for i, cd := range batch {
			r := &results[i]
			if r.err != nil {
				return r.err
			}
			cd.report = r.report
			cd.err = r.report.Value(cfg.Metric)
			cd.version = version
			degrees[cd.bi]--
			area := res.modelArea(degrees)
			degrees[cd.bi]++
			cd.ptIdx = res.Frontier.add(FrontierPoint{
				Error:      cd.err,
				ModelArea:  area,
				Step:       step,
				BlockIndex: cd.bi,
				Degree:     degrees[cd.bi] - 1,
			})
		}
		return nil
	}

	for step := startStep; cfg.MaxSteps == 0 || step < cfg.MaxSteps; step++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Drop exhausted candidates.
		live := cands[:0]
		for _, cd := range cands {
			if next := degrees[cd.bi] - 1; next >= 1 && next <= len(res.Profiles[cd.bi].Variants) {
				live = append(live, cd)
			}
		}
		cands = live
		if len(cands) == 0 {
			break
		}
		stepSpan := cfg.Span.Child("step")
		stepSpan.SetAttr("step", step)
		stepSpan.SetAttr("candidates", len(cands))
		var chosen *cand
		for {
			sort.Slice(cands, func(i, j int) bool {
				if cands[i].err != cands[j].err {
					return cands[i].err < cands[j].err
				}
				// Prefer fresh entries on ties so a stale optimistic
				// estimate cannot shadow an equal measured error.
				return cands[i].version == version && cands[j].version != version
			})
			if cands[0].version == version {
				chosen = cands[0]
				break
			}
			// Refresh the most promising stale candidates in one batch.
			// The batch cap stays tied to Parallelism, not Workers: batch
			// size changes which candidates get fresh estimates and hence
			// the lazy trajectory, while Workers must remain a pure
			// scheduling choice (bit-identical results at any value).
			var stale []*cand
			for _, cd := range cands {
				if cd.version != version {
					stale = append(stale, cd)
					if len(stale) == cfg.Parallelism {
						break
					}
				}
			}
			if err := measure(step, stale); err != nil {
				stepSpan.End()
				return err
			}
		}
		res.Frontier.markCommitted(chosen.ptIdx)
		degrees[chosen.bi]--
		version++
		if err := ce.commit(chosen.bi, degrees[chosen.bi]); err != nil {
			stepSpan.End()
			return err
		}
		res.commitStep(Step{
			BlockIndex: chosen.bi,
			NewDegree:  degrees[chosen.bi],
			Report:     chosen.report,
			ModelArea:  res.modelArea(degrees),
		}, cfg)
		// The committed block's next decrement inherits the fresh report as
		// an optimistic estimate; everything else keeps its old estimate.
		chosen.version = -1
		if cfg.Checkpoint != nil {
			ls := &LazyExplorerState{Version: version}
			for _, cd := range cands {
				ls.Candidates = append(ls.Candidates, LazyCandidate{
					BlockIndex: cd.bi, Error: cd.err, Report: cd.report,
					Version: cd.version, PointIndex: cd.ptIdx,
				})
			}
			checkpoint(res, degrees, len(res.Steps), cfg, ls)
		}
		stepSpan.SetAttr("block", chosen.bi)
		stepSpan.SetAttr("degree", degrees[chosen.bi])
		stepSpan.End()
		if !cfg.ExploreFully && chosen.report.Value(cfg.Metric) >= cfg.Threshold {
			break
		}
	}
	return nil
}

// exploreExhaustive re-evaluates every candidate each iteration, exactly as
// Algorithm 1 is written. The per-step sweep is sharded across cfg.Workers
// worker shards (runSweep) and reduced serially under the fixed
// (error, area, block index) order, so every worker count commits the same
// trajectory and records the same frontier.
func exploreExhaustive(ctx context.Context, res *Result, ce candidateEvaluator, cfg Config, startStep int) error {
	degrees := committedDegrees(res)
	shards := ce.shards(cfg.Workers)

	for step := startStep; cfg.MaxSteps == 0 || step < cfg.MaxSteps; step++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Candidates: blocks whose degree can still be decremented.
		var cands []int
		for bi, p := range res.Profiles {
			next := degrees[bi] - 1
			if next < 1 || next > len(p.Variants) {
				continue
			}
			cands = append(cands, bi)
		}
		if len(cands) == 0 {
			break
		}
		stepSpan := cfg.Span.Child("step")
		stepSpan.SetAttr("step", step)
		stepSpan.SetAttr("candidates", len(cands))
		results := runSweep(ctx, shards, degrees, cands)
		if err := ctx.Err(); err != nil {
			stepSpan.End()
			return err
		}
		// Serial reduction in candidate order: record every evaluated point
		// on the frontier and pick the winner deterministically.
		red := newSweepReducer(cfg.Metric)
		bestPt := -1
		for i := range results {
			r := &results[i]
			if r.err != nil {
				return r.err
			}
			degrees[r.bi]--
			area := res.modelArea(degrees)
			degrees[r.bi]++
			pt := res.Frontier.add(FrontierPoint{
				Error:      r.report.Value(cfg.Metric),
				ModelArea:  area,
				Step:       step,
				BlockIndex: r.bi,
				Degree:     degrees[r.bi] - 1,
			})
			if red.offer(i, r.report, area, r.bi) {
				bestPt = pt
			}
		}
		chosen := &results[red.best]
		res.Frontier.markCommitted(bestPt)
		degrees[chosen.bi]--
		if err := ce.commit(chosen.bi, degrees[chosen.bi]); err != nil {
			stepSpan.End()
			return err
		}
		res.commitStep(Step{
			BlockIndex: chosen.bi,
			NewDegree:  degrees[chosen.bi],
			Report:     chosen.report,
			ModelArea:  res.modelArea(degrees),
		}, cfg)
		checkpoint(res, degrees, len(res.Steps), cfg, nil)
		stepSpan.SetAttr("block", chosen.bi)
		stepSpan.SetAttr("degree", degrees[chosen.bi])
		stepSpan.End()
		if !cfg.ExploreFully && chosen.report.Value(cfg.Metric) >= cfg.Threshold {
			break
		}
	}
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

// selectBest picks the step with the smallest modeled area among steps whose
// error is within the threshold.
func (r *Result) selectBest() {
	r.BestStep = -1
	bestArea := math.Inf(1)
	for i, s := range r.Steps {
		if s.Report.Value(r.Config.Metric) <= r.Config.Threshold && s.ModelArea < bestArea {
			bestArea = s.ModelArea
			r.BestStep = i
		}
	}
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// WeightVectorForSpec exposes the power-of-two weights of a flat unsigned
// output spec — convenience for direct BMF use on whole small circuits
// (paper Fig. 3/4 style experiments).
func WeightVectorForSpec(spec qor.OutputSpec, numOutputs int) []float64 {
	w := tt.UniformWeights(numOutputs)
	for _, g := range spec.Groups {
		for j, bit := range g.Bits {
			w[bit] = math.Ldexp(1, j)
		}
	}
	return w
}
