package bmf

import (
	"time"

	"github.com/blasys-go/blasys/internal/telemetry"
)

// Process-wide telemetry for the factorization hot path. All series live in
// the default registry so the HTTP /metrics page aggregates every engine,
// worker and CLI invocation in the process. Instrumentation is passive —
// clock reads and atomic bumps only — so caching, sweep selection and the
// factorizations themselves are unaffected (the determinism invariant).
var (
	mFactorize = telemetry.Default().HistogramVec(
		"blasys_bmf_factorize_seconds",
		"Wall time of one factorization pass, by factor family: every requested degree of one block (block profiling), or a single degree.",
		telemetry.DurationBuckets, "family")
	mTauSweepWidth = telemetry.Default().Histogram(
		"blasys_bmf_tau_sweep_width",
		"Number of association thresholds swept per ASSO factorization pass.",
		telemetry.CountBuckets)
	mCacheRequests = telemetry.Default().CounterVec(
		"blasys_bmf_cache_requests_total",
		"Factorization cache lookups by tier and result.",
		"tier", "result")
	mCacheGet = telemetry.Default().HistogramVec(
		"blasys_bmf_cache_get_seconds",
		"Latency of factorization cache lookups by tier.",
		telemetry.DurationBuckets, "tier")
)

// observeCacheGet records one cache lookup outcome. Exported to the store
// package's disk/tiered caches via CacheTierMetrics so every tier reports
// under the same families.
func observeCacheGet(tier string, hit bool, elapsed time.Duration) {
	result := "miss"
	if hit {
		result = "hit"
	}
	mCacheRequests.With(tier, result).Inc()
	mCacheGet.With(tier).Observe(elapsed.Seconds())
}

// ObserveCacheGet records one lookup against an external cache tier
// ("disk", "tiered"). The in-package MemoryCache reports as tier "memory"
// automatically.
func ObserveCacheGet(tier string, hit bool, elapsed time.Duration) {
	observeCacheGet(tier, hit, elapsed)
}
