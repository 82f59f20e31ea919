package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/partition"
	"github.com/blasys-go/blasys/internal/qor"
	"github.com/blasys-go/blasys/internal/store"
	"github.com/blasys-go/blasys/internal/synth"
	"github.com/blasys-go/blasys/internal/techmap"
	"github.com/blasys-go/blasys/internal/telemetry"
	"github.com/blasys-go/blasys/internal/tt"
)

// The traced run replays each job of the first replayRounds rounds one
// layer call at a time, through the internal packages' public functions, in the order
// core.ApproximateCtx and the engine's persistence make them. Every call
// gets a telemetry span under the job's root span. The replay doubles as a
// gate: each committed step's report must equal the untraced run's
// Result.Steps bit for bit, and the profiled variants and evaluated
// candidates must match Result.Profiles and Result.Frontier point for
// point.

// replayJob is one job to replay.
type replayJob struct {
	label string
	circ  *logic.Circuit // the circuit handed to the flow
	spec  qor.OutputSpec
	cfg   core.Config
	res   *core.Result // the untraced run's result
	// durable-service jobs also replay their store calls
	id           string
	blif         string
	hits, misses uint64
}

// replayCounts are the layer counts that are not span counts.
type replayCounts struct {
	blocks, variants, reached, steps, evals int
	gatesOut                                int
	checkpointBytes                         int64
}

type replayer struct {
	tl     *telemetry.Timeline
	lib    *techmap.Library
	cache  bmf.Cache    // nil: no factorization cache shared between jobs
	st     *store.Store // nil: no durable store
	cur    *telemetry.Span
	counts replayCounts
}

// call runs fn inside a span named after the layer function it calls.
func (r *replayer) call(parent *telemetry.Span, name string, fn func() error) error {
	s := parent.Child(name)
	prev := r.cur
	r.cur = s
	err := fn()
	r.cur = prev
	s.End()
	return err
}

// spanCache times the store-backed factorization cache as store work
// nested inside the factorization span that consults it.
type spanCache struct {
	inner bmf.Cache
	r     *replayer
}

func (c *spanCache) Get(k bmf.Key) (any, bool) {
	s := c.r.cur.Child("store.cache_get")
	defer s.End()
	return c.inner.Get(k)
}

func (c *spanCache) Put(k bmf.Key, v any) {
	s := c.r.cur.Child("store.cache_put")
	defer s.End()
	c.inner.Put(k, v)
}

func (c *spanCache) Stats() bmf.CacheStats { return c.inner.Stats() }

type variant struct {
	impl *logic.Circuit
	area float64
}

// profiled is a replayed profile: the prepared circuit, its blocks and, per
// block, the accurate area and the variants by degree.
type profiled struct {
	prepared *logic.Circuit
	blocks   []partition.Block
	accArea  []float64
	variants [][]variant
}

// modelArea is core's exploration-time area model: the sum of block areas
// at the given degrees, accurate where a block is not decremented.
func (p *profiled) modelArea(degrees []int) float64 {
	a := 0.0
	for bi, d := range degrees {
		if d >= len(p.blocks[bi].Outputs) || d < 1 || d > len(p.variants[bi]) {
			a += p.accArea[bi]
		} else {
			a += p.variants[bi][d-1].area
		}
	}
	return a
}

func (r *replayer) replay(j replayJob) error {
	if j.cfg.Weighted || j.cfg.Lazy || j.cfg.DisableIncremental {
		return fmt.Errorf("%s: replay covers the default exhaustive, unweighted flow only", j.label)
	}
	root := r.tl.Start("job")
	root.SetAttr("job", j.label)
	defer root.End()
	var jnl *store.Journal
	if r.st != nil {
		var err error
		if jnl, err = r.replaySubmit(root, j); err != nil {
			return err
		}
	}
	p, err := r.profile(root, j)
	if err != nil {
		return err
	}
	if r.st != nil {
		if err := r.journal(root, jnl, spanRecord("profile")); err != nil {
			return err
		}
	}
	if err := r.explore(root, jnl, j, p); err != nil {
		return err
	}
	if r.st != nil {
		return r.replayFinish(root, jnl, j)
	}
	return nil
}

// profile replays core.ApproximateCtx's preparation and profileBlocks, and
// checks every variant's mapped area against the run's profiles.
func (r *replayer) profile(root *telemetry.Span, j replayJob) (*profiled, error) {
	p := &profiled{}
	_ = r.call(root, "partition.reorder", func() error { p.prepared = logic.ReorderDFS(j.circ); return nil })
	err := r.call(root, "partition.decompose", func() (err error) {
		p.blocks, err = partition.Decompose(p.prepared, partition.Options{MaxInputs: j.cfg.K, MaxOutputs: j.cfg.M})
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(p.blocks) != len(j.res.Profiles) {
		return nil, fmt.Errorf("%s: %d blocks, the run profiled %d", j.label, len(p.blocks), len(j.res.Profiles))
	}
	r.counts.blocks += len(p.blocks)
	p.accArea = make([]float64, len(p.blocks))
	p.variants = make([][]variant, len(p.blocks))
	for bi, b := range p.blocks {
		if p.accArea[bi], p.variants[bi], err = r.profileBlock(root, p.prepared, b, j.cfg); err != nil {
			return nil, fmt.Errorf("%s: block %d: %w", j.label, bi, err)
		}
		got, want := p.variants[bi], j.res.Profiles[bi].Variants
		if len(got) != len(want) {
			return nil, fmt.Errorf("%s: block %d has %d variants, the run profiled %d", j.label, bi, len(got), len(want))
		}
		for f := range got {
			if math.Float64bits(got[f].area) != math.Float64bits(want[f].MappedArea) {
				return nil, fmt.Errorf("%s: block %d degree %d maps to area %v, the run had %v", j.label, bi, f+1, got[f].area, want[f].MappedArea)
			}
		}
		r.counts.variants += len(got)
	}
	return p, nil
}

// explore replays exploreExhaustive: every live candidate of every step,
// then the commit the untraced run recorded. Each evaluation must match the
// run's frontier point, each step's winner the committed block, and each
// committed report the run's step report, bit for bit.
func (r *replayer) explore(root *telemetry.Span, jnl *store.Journal, j replayJob, p *profiled) error {
	cfg, res := j.cfg, j.res
	var (
		ic  *qor.IncrementalComparer
		sh  *qor.Shard
		cmp qor.Comparer
	)
	incremental := cfg.Sequence == nil
	err := r.call(root, "qor.setup", func() (err error) {
		if incremental {
			if ic, err = qor.NewIncrementalComparer(p.prepared, j.spec, p.blocks, cfg.Samples, cfg.Seed); err == nil {
				sh = ic.Shard()
			}
			return err
		}
		cmp, err = qor.NewComparer(p.prepared, j.spec, cfg.Sequence, cfg.Samples, cfg.Seed)
		return err
	})
	if err != nil {
		return err
	}
	degrees := make([]int, len(p.blocks))
	for bi, b := range p.blocks {
		degrees[bi] = len(b.Outputs)
	}
	points := res.Frontier.Points()
	trace := res.Trace()
	reached := map[[2]int]bool{}
	evals := 0
	for k, step := range res.Steps {
		var chosen *qor.Report
		candidates := 0
		// The winner is the least error, then the least area, then the
		// lowest block index: core's sweep reduction.
		best, bestErr, bestArea := -1, 0.0, 0.0
		for bi := range p.blocks {
			next := degrees[bi] - 1
			if next < 1 || next > len(p.variants[bi]) {
				continue
			}
			candidates++
			var rep qor.Report
			impl := p.variants[bi][next-1].impl
			if incremental {
				err = r.call(root, "qor.eval", func() (err error) { rep, err = sh.CompareCandidate(bi, impl); return err })
			} else {
				err = r.rebuildAndCompare(root, p, degrees, bi, next, cmp, &rep)
			}
			if err != nil {
				return err
			}
			evals++
			reached[[2]int{bi, next}] = true
			if evals >= len(points) {
				return fmt.Errorf("%s: step %d: more evaluations than the run's %d frontier points", j.label, k, len(points)-1)
			}
			degrees[bi]--
			area := p.modelArea(degrees)
			degrees[bi]++
			e := rep.Value(cfg.Metric)
			pt := points[evals]
			if pt.Step != k || pt.BlockIndex != bi || pt.Degree != next ||
				math.Float64bits(pt.Error) != math.Float64bits(e) || math.Float64bits(pt.ModelArea) != math.Float64bits(area) {
				return fmt.Errorf("%s: evaluation %d (step %d, block %d, degree %d, error %v, area %v) differs from the run's frontier point %+v",
					j.label, evals, k, bi, next, e, area, pt)
			}
			if best < 0 || e < bestErr || (e == bestErr && area < bestArea) {
				best, bestErr, bestArea = bi, e, area
			}
			if bi == step.BlockIndex {
				rc := rep
				chosen = &rc
			}
		}
		if chosen == nil || best != step.BlockIndex {
			return fmt.Errorf("%s: step %d committed block %d, the sweep's winner is block %d", j.label, k, step.BlockIndex, best)
		}
		if !sameReport(*chosen, step.Report) {
			return fmt.Errorf("%s: step %d report %+v differs from the run's %+v", j.label, k, *chosen, step.Report)
		}
		degrees[step.BlockIndex]--
		if degrees[step.BlockIndex] != step.NewDegree {
			return fmt.Errorf("%s: step %d leaves block %d at degree %d, the run at %d", j.label, k, step.BlockIndex, degrees[step.BlockIndex], step.NewDegree)
		}
		if incremental {
			impl := p.variants[step.BlockIndex][step.NewDegree-1].impl
			err := r.call(root, "qor.commit", func() error { _, err := ic.Commit(step.BlockIndex, impl); return err })
			if err != nil {
				return err
			}
		}
		r.counts.steps++
		if r.st != nil {
			st := core.ExplorerState{
				Step:              k + 1,
				Degrees:           append([]int(nil), degrees...),
				Steps:             res.Steps[:k+1],
				Frontier:          points[:evals+1],
				AccurateModelArea: res.AccurateModelArea,
				Seed:              cfg.Seed,
				Samples:           cfg.Samples,
				CircuitDigest:     j.digest("circuit"),
				ConfigDigest:      j.digest("config"),
			}
			stepSpan := spanRecord("step")
			stepSpan.Attrs = map[string]any{"step": k, "candidates": candidates, "block": step.BlockIndex, "degree": step.NewDegree}
			if err := r.persistStep(root, jnl, j.id, trace[k+1], stepSpan, &st); err != nil {
				return err
			}
		}
	}
	if evals != res.Frontier.Size()-1 {
		return fmt.Errorf("%s: %d evaluations, the run's frontier holds %d", j.label, evals, res.Frontier.Size()-1)
	}
	r.counts.evals += evals
	r.counts.reached += len(reached)
	return nil
}

// profileBlock is core's profileBlock: the accurate block's area, then
// factorization, synthesis and mapping at every degree.
func (r *replayer) profileBlock(root *telemetry.Span, c *logic.Circuit, b partition.Block, cfg core.Config) (float64, []variant, error) {
	var impl *logic.Circuit
	err := r.call(root, "partition.extract", func() (err error) { impl, err = partition.Extract(c, b); return err })
	if err != nil {
		return 0, nil, err
	}
	var accurate *techmap.Mapped
	if err := r.call(root, "techmap.map", func() (err error) { accurate, err = techmap.Map(impl, r.lib); return err }); err != nil {
		return 0, nil, err
	}
	mi, ki := len(b.Outputs), len(b.Inputs)
	if mi < 2 || ki == 0 || ki > 16 {
		return accurate.Area(), nil, nil
	}
	var M *tt.Matrix
	if err := r.call(root, "partition.truth_matrix", func() (err error) { M, err = partition.TruthMatrix(c, b); return err }); err != nil {
		return 0, nil, err
	}
	maxF := mi - 1
	if maxF > bmf.MaxDegree {
		maxF = bmf.MaxDegree
	}
	opts := bmf.Options{Semiring: cfg.Semiring, TauSweep: cfg.TauSweep}
	var out []variant
	for f := 1; f <= maxF; f++ {
		name := fmt.Sprintf("%s_b%d_f%d", c.Name, len(b.Gates), f)
		var blk *logic.Circuit
		switch cfg.Basis {
		case core.BasisASSO:
			var fr *bmf.Result
			err := r.call(root, "bmf.factorize", func() (err error) { fr, err = bmf.FactorizeCached(r.cache, M, f, opts); return err })
			if err != nil {
				return 0, nil, err
			}
			err = r.call(root, "synth.approx_block", func() (err error) {
				blk, err = synth.ApproxBlock(name, fr, cfg.Semiring, synth.Options{Exact: cfg.SynthExact})
				return err
			})
			if err != nil {
				return 0, nil, err
			}
		default:
			var fr *bmf.ColumnResult
			err := r.call(root, "bmf.factorize", func() (err error) { fr, err = bmf.FactorizeColumnsCached(r.cache, M, f, opts); return err })
			if err != nil {
				return 0, nil, err
			}
			err = r.call(root, "synth.approx_block", func() (err error) {
				blk, err = synth.ApproxBlockStructural(name, impl, fr, cfg.Semiring)
				return err
			})
			if err != nil {
				return 0, nil, err
			}
		}
		r.counts.gatesOut += blk.NumGates()
		var mapped *techmap.Mapped
		if err := r.call(root, "techmap.map", func() (err error) { mapped, err = techmap.Map(blk, r.lib); return err }); err != nil {
			return 0, nil, err
		}
		out = append(out, variant{impl: blk, area: mapped.Area()})
	}
	return accurate.Area(), out, nil
}

// rebuildAndCompare is the paper-literal candidate evaluation used for
// accumulator circuits: materialize the whole substituted circuit, then
// simulate it.
func (r *replayer) rebuildAndCompare(root *telemetry.Span, p *profiled, degrees []int, bi, next int, cmp qor.Comparer, rep *qor.Report) error {
	var circ *logic.Circuit
	err := r.call(root, "qor.rebuild", func() (err error) {
		impls := map[int]*logic.Circuit{}
		for bj, d := range degrees {
			if bj == bi {
				d = next
			}
			if d < len(p.blocks[bj].Outputs) && d >= 1 && d <= len(p.variants[bj]) {
				impls[bj] = p.variants[bj][d-1].impl
			}
		}
		circ, err = logic.ReplaceBlocks(p.prepared, partition.Substitutions(p.blocks, impls))
		return err
	})
	if err != nil {
		return err
	}
	return r.call(root, "qor.eval", func() (err error) { *rep, err = cmp.Compare(circ); return err })
}

// sameReport compares two reports bit for bit.
func sameReport(a, b qor.Report) bool {
	fa := []float64{a.AvgRel, a.AvgAbs, a.NormAvgAbs, a.MeanHam, a.ErrRate, a.WorstRel, a.WorstAbs, a.MeanSquared}
	fb := []float64{b.AvgRel, b.AvgAbs, b.NormAvgAbs, b.MeanHam, b.ErrRate, b.WorstRel, b.WorstAbs, b.MeanSquared}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Samples == b.Samples && a.Exact == b.Exact
}

// digest stands in for the checkpoint's circuit and config fingerprints,
// which core computes privately; it has their size, which is what the
// replayed write depends on.
func (j replayJob) digest(kind string) string {
	sum := sha256.Sum256([]byte(kind + "/" + j.label))
	return hex.EncodeToString(sum[:])
}

// spanRecord is the record of a completed engine stage as the engine
// journals it.
func spanRecord(name string) telemetry.SpanRecord {
	now := time.Now()
	return telemetry.SpanRecord{ID: 1, Name: name, Start: now, End: now}
}

// replaySubmit issues persistSubmit's calls and the transition to running.
func (r *replayer) replaySubmit(root *telemetry.Span, j replayJob) (*store.Journal, error) {
	var jnl *store.Journal
	err := r.call(root, "store.journal_open", func() (err error) { jnl, err = r.st.Journal(j.id); return err })
	if err != nil {
		return nil, err
	}
	err = r.call(root, "store.journal", func() error {
		rec, err := store.NewRequestRecord(j.circ, j.spec, j.cfg, "", j.blif, 0)
		if err != nil {
			return err
		}
		return jnl.Request(rec)
	})
	if err != nil {
		return nil, err
	}
	for _, state := range []string{"queued", "running"} {
		if err := r.call(root, "store.journal", func() error { return jnl.State(state, "") }); err != nil {
			return nil, err
		}
	}
	return jnl, r.journal(root, jnl, spanRecord("queue"))
}

func (r *replayer) journal(root *telemetry.Span, jnl *store.Journal, rec telemetry.SpanRecord) error {
	return r.call(root, "store.journal", func() error { return jnl.Span(rec) })
}

// persistStep issues the engine's per-step persistence: the trace point,
// the step span and the checkpoint holding the whole frontier so far.
func (r *replayer) persistStep(root *telemetry.Span, jnl *store.Journal, id string, tp core.TracePoint,
	stepSpan telemetry.SpanRecord, st *core.ExplorerState) error {
	if err := r.call(root, "store.journal", func() error { return jnl.Trace(tp) }); err != nil {
		return err
	}
	if err := r.journal(root, jnl, stepSpan); err != nil {
		return err
	}
	if err := r.call(root, "store.checkpoint", func() error { return r.st.WriteCheckpoint(id, st) }); err != nil {
		return err
	}
	fi, err := os.Stat(filepath.Join(r.st.Dir(), "jobs", id+".checkpoint"))
	if err != nil {
		return err
	}
	r.counts.checkpointBytes += fi.Size()
	return nil
}

// replayFinish issues the engine's terminal persistence: the closing
// spans, the result record, the done state, then the journal close and the
// checkpoint removal.
func (r *replayer) replayFinish(root *telemetry.Span, jnl *store.Journal, j replayJob) error {
	for _, name := range []string{"explore", "run", "job"} {
		if err := r.journal(root, jnl, spanRecord(name)); err != nil {
			return err
		}
	}
	err := r.call(root, "store.journal", func() error {
		rec, err := store.NewResultRecord(j.res)
		if err != nil {
			return err
		}
		return jnl.Result(rec, j.hits, j.misses)
	})
	if err != nil {
		return err
	}
	if err := r.call(root, "store.journal", func() error { return jnl.State("done", "") }); err != nil {
		return err
	}
	if err := r.call(root, "store.journal_close", jnl.Close); err != nil {
		return err
	}
	return r.call(root, "store.checkpoint_remove", func() error { return r.st.RemoveCheckpoint(j.id) })
}
