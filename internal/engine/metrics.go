package engine

import (
	"github.com/blasys-go/blasys/internal/telemetry"
)

// engineMetrics is one engine's registry. Engine-scoped series (job
// lifecycle counters, queue depth, queue-wait) live in a per-engine
// registry rather than the process-global one so two engines in one process
// (tests, embedders) never pollute each other's /metrics page; the server
// renders this registry together with the global one, which carries the
// process-wide pipeline series (bmf, qor, core, sched, store).
type engineMetrics struct {
	reg *telemetry.Registry

	completed *telemetry.Counter
	failed    *telemetry.Counter
	cancelled *telemetry.Counter
	timedOut  *telemetry.Counter
	deduped   *telemetry.Counter
	shed      *telemetry.Counter
	restored  *telemetry.Counter
	resumed   *telemetry.Counter

	// degraded mirrors the store breaker into this engine's exposition: 1
	// while jobs run memory-only behind an open write circuit.
	degraded *telemetry.Gauge

	cacheHits   *telemetry.Counter
	cacheMisses *telemetry.Counter

	// running and queueDepth move with each job's transitions (a job
	// cancelled in the queue stops counting at once, though the queue
	// channel holds it until a worker skips it); cacheEntries is set at
	// scrape time (syncGauges).
	running      *telemetry.Gauge
	queueDepth   *telemetry.Gauge
	cacheEntries *telemetry.Gauge

	queueWait  *telemetry.Histogram
	runSeconds *telemetry.Histogram
}

func newEngineMetrics() *engineMetrics {
	reg := telemetry.NewRegistry()
	return &engineMetrics{
		reg: reg,
		completed: reg.Counter("blasys_jobs_completed_total",
			"Jobs finished successfully."),
		failed: reg.Counter("blasys_jobs_failed_total",
			"Jobs finished with an error."),
		cancelled: reg.Counter("blasys_jobs_cancelled_total",
			"Jobs cancelled before completing."),
		timedOut: reg.Counter("blasys_jobs_timeout_total",
			"Jobs whose run-time deadline expired (terminal state timeout, best-so-far frontier preserved)."),
		deduped: reg.Counter("blasys_jobs_deduped_total",
			"Submissions attached to an identical retained execution instead of running again."),
		shed: reg.Counter("blasys_jobs_shed_total",
			"Deadlined submissions rejected at admission: estimated queue wait exceeded the deadline."),
		degraded: reg.Gauge("blasys_engine_degraded",
			"1 while the engine runs memory-only behind an open store write circuit breaker."),
		restored: reg.Counter("blasys_jobs_restored_total",
			"Terminal jobs restored from the durable store at startup."),
		resumed: reg.Counter("blasys_jobs_resumed_total",
			"Interrupted jobs re-enqueued from the durable store at startup."),
		cacheHits: reg.Counter("blasys_bmf_cache_hits_total",
			"Factorization cache hits across this engine's jobs."),
		cacheMisses: reg.Counter("blasys_bmf_cache_misses_total",
			"Factorization cache misses across this engine's jobs."),
		running: reg.Gauge("blasys_jobs_running",
			"Jobs currently executing on workers."),
		queueDepth: reg.Gauge("blasys_queue_depth",
			"Jobs waiting for a worker."),
		cacheEntries: reg.Gauge("blasys_bmf_cache_entries",
			"Factorizations resident in the shared cache."),
		queueWait: reg.Histogram("blasys_engine_queue_wait_seconds",
			"Time a job spent queued before a worker picked it up.",
			telemetry.DurationBuckets),
		runSeconds: reg.Histogram("blasys_engine_run_seconds",
			"Wall time of one job run on a worker.",
			telemetry.DurationBuckets),
	}
}

// Registry exposes the engine's metric registry (engine-scoped series; the
// process-global telemetry.Default() registry holds the pipeline series).
func (e *Engine) Registry() *telemetry.Registry { return e.met.reg }

// syncGauges refreshes the scrape-time gauges from the live engine state.
func (e *Engine) syncGauges() {
	e.met.cacheEntries.Set(float64(e.cache.Stats().Entries))
}
