package store

import (
	"github.com/blasys-go/blasys/internal/telemetry"
)

// Durability-layer telemetry. The journal/fsync/checkpoint histograms are
// the service's write-amplification dashboard: every journal append, every
// fsync forced by a terminal record, and every checkpoint write (one
// step-log append per committed step) is timed. Replay counters quantify
// what a restart recovered.
var (
	mJournalAppend = telemetry.Default().Histogram(
		"blasys_store_journal_append_seconds",
		"Latency of one journal record append (encode + write, excluding fsync).",
		telemetry.DurationBuckets)
	mFsync = telemetry.Default().Histogram(
		"blasys_store_fsync_seconds",
		"Latency of journal fsyncs (terminal states, requests, results).",
		telemetry.DurationBuckets)
	mCheckpointWrite = telemetry.Default().Histogram(
		"blasys_store_checkpoint_write_seconds",
		"Latency of one checkpoint write: encoding a step-log record, appending it and fsyncing it (for a whole-state snapshot: write + fsync + rename).",
		telemetry.DurationBuckets)
	mReplay = telemetry.Default().Histogram(
		"blasys_store_replay_seconds",
		"Wall time of one full store replay at startup.",
		telemetry.DurationBuckets)
	mReplayJobs = telemetry.Default().CounterVec(
		"blasys_store_replay_jobs_total",
		"Jobs folded out of journals during replay, by outcome.",
		"outcome")
)

// Robustness telemetry: the retry loop, the circuit breaker, and degraded
// mode. blasys_store_breaker_state is the one-glance health signal (0
// closed, 1 open, 2 half-open); retries climbing without the breaker
// tripping means the disk is flaky but recovering.
var (
	mRetries = telemetry.Default().CounterVec(
		"blasys_store_retries_total",
		"Store I/O retries after a transient failure, by operation.",
		"op")
	mBreakerState = telemetry.Default().Gauge(
		"blasys_store_breaker_state",
		"Store write circuit-breaker state (0 closed, 1 open, 2 half-open).")
	mProbes = telemetry.Default().CounterVec(
		"blasys_store_probes_total",
		"Half-open writability probes of the degraded store, by outcome.",
		"outcome")
	mProbeSeconds = telemetry.Default().Histogram(
		"blasys_store_probe_seconds",
		"Latency of one half-open writability probe.",
		telemetry.DurationBuckets)
	mDegradedDrops = telemetry.Default().CounterVec(
		"blasys_store_degraded_drops_total",
		"Store writes short-circuited (not attempted) while degraded, by operation.",
		"op")
)
