// Command blasys-serve runs the BLASYS approximation engine as an HTTP
// service: jobs are submitted as BLIF netlists (or paper benchmark names)
// with a JSON configuration, run on a bounded worker pool that shares a
// content-addressed factorization cache, and polled for status, exploration
// trace, and the resulting approximate netlist.
//
// Start the service:
//
//	blasys-serve -addr :8080 -workers 4
//
// Submit the quickstart circuit (the paper's 8-bit multiplier) by name and
// capture the job id:
//
//	JOB=$(curl -s -X POST localhost:8080/v1/jobs \
//	    -d '{"benchmark": "Mult8", "config": {"threshold": 0.05, "samples": 16384}}' \
//	    | jq -r .id)
//
// Or export any circuit to BLIF first (here via the CLI) and submit it
// inline — jq -Rs packs the netlist into the JSON string:
//
//	blasys -bench Mult8 -max-steps 0 -out mult8.blif   # or any BLIF producer
//	jq -Rs '{blif: ., config: {threshold: 0.05}}' mult8.blif \
//	    | curl -s -X POST localhost:8080/v1/jobs -d @- | jq .
//
// Poll status and download the approximate netlist once done:
//
//	curl -s localhost:8080/v1/jobs/$JOB | jq .state
//	curl -s localhost:8080/v1/jobs/$JOB/result.blif -o approx.blif
//	curl -s localhost:8080/v1/jobs/$JOB/result.v    -o approx.v
//
// Every job also records the full accuracy/area trade-off frontier — each
// candidate the exploration evaluated plus the non-dominated (Pareto) set.
// Fetch it as JSON (front only by default, ?points=1 adds every evaluated
// point) or as CSV:
//
//	curl -s localhost:8080/v1/jobs/$JOB/frontier | jq .front
//	curl -s "localhost:8080/v1/jobs/$JOB/frontier?format=csv&points=1" -o frontier.csv
//
// Stream live progress as Server-Sent Events (state transitions, committed
// exploration steps, checkpoint notices, completed stage spans; history
// replays first, the stream ends with the terminal state):
//
//	curl -sN localhost:8080/v1/jobs/$JOB/events
//
// Observability: /metrics serves the full Prometheus exposition (job
// lifecycle, queue wait, factorization latency and cache traffic, QoR
// evaluation phases, sweep fan-out, store fsync/replay timings), /debug/vars
// the same series as JSON, and each job's stage-span timeline is one GET
// away — as a JSON tree or as flamegraph-friendly folded stacks:
//
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/v1/jobs/$JOB/timeline | jq .tree
//	curl -s "localhost:8080/v1/jobs/$JOB/timeline?format=folded"
//
// Logs are structured (log/slog): -log-format picks text or json lines,
// -log-level sets the threshold.
//
// Durability: with -store-dir every job is journaled to disk (request,
// state transitions, final result, and each run's stage spans when the run
// ends or hands over), every committed exploration step is appended to the
// job's step log, and warm factorizations persist in a disk-backed cache.
// A job's trace is not journaled: it derives from the recorded steps. A
// restarted process with the same -store-dir
// serves finished results immediately and — unless -resume=false —
// re-enqueues interrupted jobs, each continuing from its last checkpoint
// with results bit-identical to an uninterrupted run:
//
//	blasys-serve -addr :8080 -store-dir /var/lib/blasys
//	# ... kill -TERM the process mid-exploration ...
//	blasys-serve -addr :8080 -store-dir /var/lib/blasys   # resumes the job
//
// Cancel and health: /healthz is liveness (the process answers), /readyz is
// readiness — 503 while the store is still replaying at startup or when the
// store directory stops being writable, 200 once the engine accepts work:
//
//	curl -s -X POST localhost:8080/v1/jobs/$JOB/cancel
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/readyz
//	curl -s localhost:8080/metrics
//
// Production profiling (off by default): -pprof mounts net/http/pprof under
// /debug/pprof/ on the API address; -pprof-addr serves it on a separate
// listener instead, keeping profiles off the public address:
//
//	blasys-serve -addr :8080 -pprof
//	blasys-serve -addr :8080 -pprof-addr localhost:6060
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=30
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the DefaultServeMux, served only when -pprof-addr is set
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/blasys-go/blasys/internal/engine"
	"github.com/blasys-go/blasys/internal/faults"
	"github.com/blasys-go/blasys/internal/store"
	"github.com/blasys-go/blasys/internal/telemetry"
)

// options carries the parsed flags.
type options struct {
	addr        string
	workers     int
	queueSize   int
	parallelism int
	pprofMux    bool
	pprofAddr   string
	storeDir    string
	resume      bool
	dedup       bool
	faults      string
	faultsSeed  int64
	faultAdmin  bool
	logLevel    string
	logFormat   string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.IntVar(&o.workers, "workers", 2, "jobs run concurrently")
	flag.IntVar(&o.queueSize, "queue", 64, "bounded job queue size (submissions beyond it are rejected)")
	flag.IntVar(&o.parallelism, "job-parallelism", 0, "worker goroutines per job (0 = GOMAXPROCS/workers)")
	flag.BoolVar(&o.pprofMux, "pprof", false, "mount net/http/pprof under /debug/pprof/ on the API address")
	flag.StringVar(&o.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); empty disables the side listener")
	flag.StringVar(&o.storeDir, "store-dir", "", "durable job store directory (empty = in-memory only: jobs do not survive restarts)")
	flag.BoolVar(&o.resume, "resume", true, "with -store-dir, re-enqueue jobs the store recorded as queued or running, continuing each from its last checkpoint")
	flag.BoolVar(&o.dedup, "dedup", true, "attach identical submissions (same circuit, spec, config, deadline) to one retained execution instead of running twice")
	flag.StringVar(&o.faults, "faults", "", "seeded store fault schedule for chaos testing, e.g. 'journal.append:after=2,times=3,err=eio;checkpoint.write:err=enospc' (requires -store-dir)")
	flag.Int64Var(&o.faultsSeed, "faults-seed", 1, "deterministic seed for probabilistic -faults rules")
	flag.BoolVar(&o.faultAdmin, "fault-admin", false, "mount the /debug/faults control surface for installing fault schedules at runtime (requires -store-dir; chaos testing only)")
	flag.StringVar(&o.logLevel, "log-level", "info", "log threshold: debug|info|warn|error")
	flag.StringVar(&o.logFormat, "log-format", "text", "log line format: text|json")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "blasys-serve:", err)
		os.Exit(1)
	}
}

// startingHandler answers while the durable store is still replaying: the
// liveness probe passes (the process is up), everything else — including the
// readiness probe — gets 503 so load balancers hold traffic until the engine
// exists.
func startingHandler(start time.Time) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\n  \"status\": \"ok\",\n  \"phase\": \"starting\",\n  \"uptime_seconds\": %g\n}\n",
			time.Since(start).Seconds())
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, "{\n  \"status\": \"unavailable\",\n  \"reason\": \"starting: replaying job store\"\n}\n")
	})
	return mux
}

func run(o options) error {
	level, err := telemetry.ParseLevel(o.logLevel)
	if err != nil {
		return err
	}
	logger, err := telemetry.NewLogger(os.Stderr, o.logFormat, level)
	if err != nil {
		return err
	}
	// Engine, store, and anything still logging through the default logger
	// all share the configured handler.
	slog.SetDefault(logger)

	if o.workers < 1 {
		o.workers = 1
	}
	if o.parallelism <= 0 {
		// Divide the machine across concurrent jobs instead of
		// oversubscribing it workers-fold.
		if o.parallelism = runtime.GOMAXPROCS(0) / o.workers; o.parallelism < 1 {
			o.parallelism = 1
		}
	}

	// Bring the listener up before the (potentially long) store replay, with
	// a holding handler that fails readiness; the real API handler is swapped
	// in once the engine is live. A restart with a deep store is then visibly
	// "starting" rather than connection-refused.
	start := time.Now()
	var handler atomic.Pointer[http.Handler]
	holding := startingHandler(start)
	handler.Store(&holding)
	srv := &http.Server{
		Addr: o.addr,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*handler.Load()).ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		logger.Info("blasys-serve listening",
			"addr", o.addr, "workers", o.workers, "queue", o.queueSize,
			"job_parallelism", o.parallelism)
		errc <- srv.ListenAndServe()
	}()

	var st *store.Store
	if o.storeDir != "" {
		if st, err = store.Open(o.storeDir); err != nil {
			return err
		}
		defer st.Close()
		st.SetSlogger(logger)
		logger.Info("blasys-serve: durable store open", "dir", o.storeDir, "resume", o.resume)
		if o.faults != "" {
			rules, err := faults.ParseSchedule(o.faults)
			if err != nil {
				return fmt.Errorf("-faults: %w", err)
			}
			st.SetFaults(faults.New(o.faultsSeed).Add(rules...))
			logger.Warn("blasys-serve: store fault injection active",
				"schedule", o.faults, "seed", o.faultsSeed)
		}
	} else if o.faults != "" || o.faultAdmin {
		return errors.New("-faults and -fault-admin require -store-dir")
	}
	eng := engine.New(engine.Options{
		Workers:        o.workers,
		QueueSize:      o.queueSize,
		JobParallelism: o.parallelism,
		Store:          st,
		Resume:         o.resume,
		Dedup:          o.dedup,
		Logger:         logger,
	})
	// On SIGTERM/SIGINT the HTTP listener drains first, then Close cancels
	// running jobs; each job's latest exploration checkpoint is already on
	// disk (written after every committed step), and an interrupted job's
	// journal stays at "running", so the next start with the same -store-dir
	// resumes it from that checkpoint.
	defer eng.Close()
	if st != nil {
		m := eng.Metrics()
		logger.Info("blasys-serve: store replayed",
			"restored", m.JobsRestored, "resumed", m.JobsResumed)
	}

	var serverOpts []engine.ServerOption
	if o.pprofMux {
		serverOpts = append(serverOpts, engine.WithPprof())
	}
	if o.faultAdmin {
		serverOpts = append(serverOpts, engine.WithFaultAdmin())
		logger.Warn("blasys-serve: /debug/faults admin surface mounted")
	}
	api := http.Handler(engine.NewServer(eng, serverOpts...))
	handler.Store(&api)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if o.pprofAddr != "" {
		// Serve the pprof handlers (registered on the DefaultServeMux by the
		// blank import) on their own listener, keeping profiling off the
		// public API address.
		go func() {
			logger.Info("blasys-serve pprof listening", "addr", o.pprofAddr)
			if err := http.ListenAndServe(o.pprofAddr, nil); err != nil {
				logger.Warn("blasys-serve: pprof server", "err", err)
			}
		}()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		logger.Info("blasys-serve: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return nil
	}
}
