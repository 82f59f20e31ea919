// Package blasys is a from-scratch Go implementation of BLASYS — approximate
// logic synthesis using Boolean matrix factorization (Hashemi, Tann, Reda,
// DAC 2018) — together with every substrate the flow needs: a gate-level
// logic network with bit-parallel simulation, espresso-style two-level
// minimization, an AIG-based technology mapper over a synthetic 65 nm
// standard-cell library, k×m circuit decomposition, Monte-Carlo /
// accumulator-feedback QoR evaluation, the SALSA-style per-output baseline,
// and generators for the paper's six benchmark circuits.
//
// # Quick start
//
//	b := blasys.Mult8()
//	res, err := blasys.Approximate(b.Circ, b.Spec, blasys.Config{
//		Threshold: 0.05, // 5% average relative error
//	})
//	if err != nil { ... }
//	circ, _ := res.BestCircuit()       // the approximate netlist
//	met, rep, _ := res.FinalMetrics(res.BestStep, 1<<20)
//	fmt.Printf("area %.1f um^2 at %.2f%% error\n", met.Area, 100*rep.AvgRel)
//
// Custom circuits are built through a Builder (see NewBuilder) or read from
// BLIF (ReadBLIF); results can be written back as BLIF or structural
// Verilog.
//
// # Running as a service
//
// The same flow is available as a concurrent HTTP service with a worker
// pool, bounded job queue, shared factorization cache, per-job progress
// traces, and cooperative cancellation:
//
//	go run ./cmd/blasys-serve -addr :8080 -workers 4
//	curl -s -X POST localhost:8080/v1/jobs \
//	    -d '{"benchmark": "Mult8", "config": {"threshold": 0.05}}'
//
// Every exploration also records the full accuracy/area trade-off frontier
// — each evaluated (error, area) candidate plus the non-dominated set — in
// Result.Frontier; the service exposes it per job:
//
//	curl -s localhost:8080/v1/jobs/$JOB/frontier | jq .front
//	curl -s 'localhost:8080/v1/jobs/'$JOB'/frontier?format=csv&points=1'
//
// The service is durable when started with -store-dir: jobs are journaled
// to disk as they run, finished results are served immediately after a
// restart, and an exploration interrupted by a crash or SIGTERM resumes
// from its last committed step with bit-identical results (OpenJobStore /
// EngineOptions.Store embeds the same machinery). Live progress streams per
// job via GET /v1/jobs/{id}/events (Server-Sent Events). At the library
// level the same checkpointing is exposed as Config.Checkpoint /
// Config.Resume over the serializable ExplorerState.
//
// See cmd/blasys-serve for the full curl walkthrough (submitting BLIF,
// polling status, downloading result.blif / result.v) and NewEngine for the
// embeddable job engine behind it. Long-running library calls can be
// cancelled through ApproximateContext, stream per-step progress through
// Config.Checkpoint, and share factorizations across runs through
// Config.Cache (NewFactorizationCache). The per-step candidate sweep runs on
// Config.Workers parallel shards (default GOMAXPROCS, bit-identical results
// at any worker count); cmd/blasys exposes it as -workers and dumps the
// frontier with -frontier.
//
// This package is a facade: it re-exports the library's main types and entry
// points so downstream users need a single import. The implementation lives
// in the internal packages, one per subsystem (see docs/ARCHITECTURE.md for
// the map, and DESIGN.md for the deep design of the hot paths).
package blasys

import (
	"context"
	"io"
	"net/http"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/blif"
	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/engine"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/qor"
	"github.com/blasys-go/blasys/internal/salsa"
	"github.com/blasys-go/blasys/internal/store"
	"github.com/blasys-go/blasys/internal/techmap"
	"github.com/blasys-go/blasys/internal/verilog"
)

// Core circuit types.
type (
	// Circuit is a combinational gate-level netlist.
	Circuit = logic.Circuit
	// Builder constructs circuits with structural hashing.
	Builder = logic.Builder
	// NodeID identifies a node in a Circuit.
	NodeID = logic.NodeID
)

// Flow configuration and results.
type (
	// Config controls the BLASYS flow (see core.Config for field docs).
	Config = core.Config
	// Result carries the exploration trace and reconstruction helpers.
	Result = core.Result
	// Basis selects the BMF family (BasisColumns or BasisASSO).
	Basis = core.Basis
	// TracePoint is one point of the accuracy/area trade-off curve.
	TracePoint = core.TracePoint
	// Frontier is the accuracy/area trade-off frontier recorded during
	// exploration: every evaluated (error, area) point plus the maintained
	// non-dominated set (Result.Frontier).
	Frontier = core.Frontier
	// FrontierPoint is one evaluated point of the Frontier.
	FrontierPoint = core.FrontierPoint
	// ExplorerState is the serializable checkpoint of an exploration:
	// capture one per committed step through Config.Checkpoint, feed it
	// back through Config.Resume, and the resumed run is bit-identical to
	// an uninterrupted one.
	ExplorerState = core.ExplorerState
)

// ReadExplorerState parses a serialized exploration checkpoint (the format
// ExplorerState.WriteTo and cmd/blasys -checkpoint produce).
func ReadExplorerState(r io.Reader) (*ExplorerState, error) {
	return core.ReadExplorerState(r)
}

// QoR types.
type (
	// OutputSpec assigns numeric meaning to circuit outputs.
	OutputSpec = qor.OutputSpec
	// Group is one numeric bus within an OutputSpec.
	Group = qor.Group
	// Metric selects the error metric driving exploration.
	Metric = qor.Metric
	// Report carries every error statistic of one comparison.
	Report = qor.Report
	// Sequence requests accumulator-feedback (multi-cycle) evaluation.
	Sequence = qor.Sequence
)

// Technology mapping types.
type (
	// Library is a standard-cell library.
	Library = techmap.Library
	// Mapped is a technology-mapped netlist.
	Mapped = techmap.Mapped
	// Metrics bundles area (µm²), power (µW) and delay (ns).
	Metrics = techmap.Metrics
)

// Benchmark is a paper benchmark circuit with its output interpretation.
type Benchmark = bench.Circuit

// Metric constants.
const (
	AvgRelative     = qor.AvgRelative
	AvgAbsolute     = qor.AvgAbsolute
	NormAvgAbsolute = qor.NormAvgAbsolute
	MeanHamming     = qor.MeanHamming
	ErrorRate       = qor.ErrorRate
	WorstRelative   = qor.WorstRelative
	MSE             = qor.MSE
)

// Basis constants.
const (
	BasisColumns = core.BasisColumns
	BasisASSO    = core.BasisASSO
)

// Semiring constants for Config.Semiring.
const (
	SemiringOr  = bmf.Or
	SemiringXor = bmf.Xor
)

// Approximate runs the complete BLASYS flow on a circuit.
func Approximate(c *Circuit, spec OutputSpec, cfg Config) (*Result, error) {
	return core.Approximate(c, spec, cfg)
}

// ApproximateContext is Approximate with cooperative cancellation: the flow
// returns ctx.Err() within one block factorization or one Monte-Carlo
// comparison of ctx being cancelled.
func ApproximateContext(ctx context.Context, c *Circuit, spec OutputSpec, cfg Config) (*Result, error) {
	return core.ApproximateCtx(ctx, c, spec, cfg)
}

// FactorizationCache memoizes Boolean matrix factorizations by truth-table
// content. Assign one to Config.Cache (or share one through EngineOptions)
// so repeated or structurally overlapping runs skip re-factorization.
type FactorizationCache = bmf.MemoryCache

// NewFactorizationCache returns an empty in-memory factorization cache.
func NewFactorizationCache() *FactorizationCache { return bmf.NewMemoryCache() }

// Concurrent approximation service (see internal/engine and
// cmd/blasys-serve).
type (
	// Engine runs approximation jobs on a worker pool with a shared
	// factorization cache and a bounded queue.
	Engine = engine.Engine
	// EngineOptions configures NewEngine.
	EngineOptions = engine.Options
	// Job tracks one submitted approximation run.
	Job = engine.Job
	// JobRequest is one unit of work for the engine.
	JobRequest = engine.Request
	// JobState is a job's lifecycle stage.
	JobState = engine.State
	// JobEvent is one entry of a job's live progress stream (Job.Subscribe,
	// GET /v1/jobs/{id}/events).
	JobEvent = engine.Event
	// JobStore is the durable journal+step-log job store: assign one to
	// EngineOptions.Store and jobs survive process restarts — finished
	// results are served immediately after a restart and interrupted
	// explorations resume from their last committed step.
	JobStore = store.Store
	// FactorizationDiskCache is the disk-backed, content-addressed
	// factorization cache layer of a JobStore.
	FactorizationDiskCache = store.DiskCache
	// FactorizationTieredCache layers an in-memory cache over the disk
	// cache (JobStore.TieredCache); warm factorizations survive restarts.
	FactorizationTieredCache = store.TieredCache
)

// OpenJobStore creates (if needed) and opens a durable job store rooted at
// dir. See JobStore.
func OpenJobStore(dir string) (*JobStore, error) { return store.Open(dir) }

// NewEngine starts a concurrent approximation engine.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// NewJobServer wraps an engine with the blasys-serve HTTP API
// (POST /v1/jobs, GET /v1/jobs/{id}, result downloads, /healthz, /metrics).
func NewJobServer(e *Engine) http.Handler { return engine.NewServer(e) }

// ApproximateSALSA runs the per-output SALSA-style baseline.
func ApproximateSALSA(c *Circuit, spec OutputSpec, cfg SALSAConfig) (*SALSAResult, error) {
	return salsa.Approximate(c, spec, cfg)
}

// SALSA baseline types.
type (
	// SALSAConfig controls the baseline.
	SALSAConfig = salsa.Config
	// SALSAResult is the baseline outcome.
	SALSAResult = salsa.Result
)

// NewBuilder returns a Builder over a fresh named circuit.
func NewBuilder(name string) *Builder { return logic.NewBuilder(name) }

// Unsigned builds the OutputSpec treating outputs [0, n) as one unsigned
// number, LSB first.
func Unsigned(name string, n int) OutputSpec { return qor.Unsigned(name, n) }

// DefaultLibrary returns the synthetic 65 nm standard-cell library.
func DefaultLibrary() *Library { return techmap.DefaultLibrary() }

// Map technology-maps a circuit onto a library.
func Map(c *Circuit, lib *Library) (*Mapped, error) { return techmap.Map(c, lib) }

// Benchmarks returns the paper's six Table 1 circuits.
func Benchmarks() []Benchmark { return bench.All() }

// BenchmarkByName returns one paper benchmark (Adder32, Mult8, BUT, MAC,
// SAD, FIR, or Fig3).
func BenchmarkByName(name string) (Benchmark, error) { return bench.ByName(name) }

// Benchmark constructors.
var (
	Adder32 = bench.Adder32
	Mult8   = bench.Mult8
	BUT     = bench.BUT
	MAC     = bench.MAC
	SAD     = bench.SAD
	FIR     = bench.FIR
	Fig3    = bench.Fig3
)

// ReadBLIF parses a combinational BLIF model.
func ReadBLIF(r io.Reader) (*Circuit, error) { return blif.Read(r) }

// WriteBLIF serializes a circuit as BLIF.
func WriteBLIF(w io.Writer, c *Circuit) error { return blif.Write(w, c) }

// WriteVerilog serializes a circuit as structural Verilog.
func WriteVerilog(w io.Writer, c *Circuit) error { return verilog.Write(w, c) }

// NewEvaluator prepares a Monte-Carlo (or exhaustive) QoR evaluator.
func NewEvaluator(ref *Circuit, spec OutputSpec, samples int, seed int64) (*qor.Evaluator, error) {
	return qor.NewEvaluator(ref, spec, samples, seed)
}
