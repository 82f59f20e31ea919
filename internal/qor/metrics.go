package qor

import (
	"github.com/blasys-go/blasys/internal/telemetry"
)

// Hot-loop telemetry for the incremental comparer. Per-candidate evaluation
// latency is recorded by the sweep driver (internal/core); here the eval is
// split into its compile and simulate phases, and the clean-wave early-out,
// the block memo and the committed-lane reuse are counted so the caches'
// effectiveness (clean, cone and memo batches, rescored vs reused lanes) is
// visible. Counters aggregate seconds rather than per-phase histograms
// because the phases run per candidate in the innermost loop — two clock
// reads per eval is the entire added cost — and batch and lane counts are
// summed in locals and added once per eval, never per batch.
var (
	mCompileSeconds = telemetry.Default().Counter(
		"blasys_qor_eval_compile_seconds_total",
		"Cumulative time compiling candidate slot programs (impl segment + dirty cone).")
	mSimSeconds = telemetry.Default().Counter(
		"blasys_qor_eval_sim_seconds_total",
		"Cumulative time in the per-batch simulate/fold loop of candidate evals.")
	mEvalBatchKind = telemetry.Default().CounterVec(
		"blasys_qor_eval_batches_total",
		"Sample batches processed by candidate evals, by outcome: clean (cached partial folded), cone (re-simulated) or memo (outcome carried over from the block's evaluation before the last commit).",
		"kind")
	mEvalLanes = telemetry.Default().CounterVec(
		"blasys_qor_eval_lanes_total",
		"Sample lanes of output groups scored in candidate evals' re-scored batches, by source: rescored (the candidate's value differs from the committed circuit's, decoded again) vs reused (the committed circuit's cached error, unchanged by the candidate).",
		"kind")
	mEvalBatches = telemetry.Default().Histogram(
		"blasys_qor_eval_batch_count",
		"Sample batches examined per candidate eval (0 when the dirty cone misses every output).",
		telemetry.CountBuckets)
)
