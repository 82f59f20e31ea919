package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	netpprof "net/http/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/blif"
	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/faults"
	"github.com/blasys-go/blasys/internal/qor"
	"github.com/blasys-go/blasys/internal/store"
	"github.com/blasys-go/blasys/internal/telemetry"
	"github.com/blasys-go/blasys/internal/verilog"
)

// maxRequestBody bounds POST /v1/jobs bodies (BLIF netlists are text; 16 MiB
// is orders of magnitude above the paper's largest benchmark).
const maxRequestBody = 16 << 20

// Server is the HTTP front end of an Engine.
//
// Routes:
//
//	POST   /v1/jobs                 submit (BLIF or benchmark + JSON config)
//	GET    /v1/jobs                 list job statuses
//	GET    /v1/jobs/{id}            status + exploration trace
//	POST   /v1/jobs/{id}/cancel     cancel (DELETE /v1/jobs/{id} works too)
//	GET    /v1/jobs/{id}/result.blif  approximate netlist as BLIF
//	GET    /v1/jobs/{id}/result.v     approximate netlist as Verilog
//	GET    /v1/jobs/{id}/frontier   accuracy/area Pareto frontier
//	                                (?points=1 adds every evaluated point,
//	                                ?format=csv switches to CSV)
//	GET    /v1/jobs/{id}/events     live progress as Server-Sent Events:
//	                                state transitions, per-step trace
//	                                points, checkpoint notices, completed
//	                                stage spans; history is replayed first,
//	                                the stream ends with the terminal state
//	                                event
//	GET    /v1/jobs/{id}/timeline   the job's stage-span timeline as a JSON
//	                                tree (?format=folded renders
//	                                flamegraph-friendly folded stacks)
//	GET    /healthz                 liveness (process up and serving)
//	GET    /readyz                  readiness (engine open, store writable);
//	                                503 with the reason otherwise
//	GET    /metrics                 Prometheus text format, rendered from the
//	                                engine's registry plus the process-wide
//	                                pipeline registry
//	GET    /debug/vars              every metric series as one JSON document
//	GET    /debug/pprof/...         Go profiling endpoints (only with
//	                                WithPprof)
type Server struct {
	engine     *Engine
	mux        *http.ServeMux
	start      time.Time
	pprof      bool
	faultAdmin bool
}

// ServerOption customizes optional server surfaces.
type ServerOption func(*Server)

// WithPprof mounts the net/http/pprof handlers under /debug/pprof/ on the
// server's own mux, so profiling shares the API listener instead of needing
// a side port.
func WithPprof() ServerOption { return func(s *Server) { s.pprof = true } }

// WithFaultAdmin mounts the /debug/faults control surface: GET reports the
// armed fault schedule with live counters, POST/PUT arms a schedule from a
// faults.ParseSchedule spec in the request body (?seed= fixes the
// probabilistic draw), and DELETE disarms everything. Chaos drills only —
// never enable on a production listener; it exists so operators (and the
// serve smoke test) can rehearse degraded mode against a live process
// without needing a genuinely sick disk.
func WithFaultAdmin() ServerOption { return func(s *Server) { s.faultAdmin = true } }

// NewServer wraps an engine with the HTTP API.
func NewServer(e *Engine, opts ...ServerOption) *Server {
	s := &Server{engine: e, mux: http.NewServeMux(), start: time.Now()}
	for _, o := range opts {
		o(s)
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result.blif", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result.v", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/frontier", s.handleFrontier)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/timeline", s.handleTimeline)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/vars", s.handleVars)
	if s.faultAdmin {
		s.mux.HandleFunc("GET /debug/faults", s.handleFaultsGet)
		s.mux.HandleFunc("POST /debug/faults", s.handleFaultsSet)
		s.mux.HandleFunc("PUT /debug/faults", s.handleFaultsSet)
		s.mux.HandleFunc("DELETE /debug/faults", s.handleFaultsClear)
	}
	if s.pprof {
		s.mux.HandleFunc("GET /debug/pprof/", netpprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", netpprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", netpprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", netpprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", netpprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// submitRequest is the POST /v1/jobs body: exactly one of BLIF or Benchmark
// names the circuit; Config tunes the flow.
type submitRequest struct {
	// BLIF is a complete combinational BLIF netlist, inline.
	BLIF string `json:"blif,omitempty"`
	// Benchmark names one of the paper's circuits (Adder32, Mult8, BUT,
	// MAC, SAD, FIR, Fig3) instead of supplying BLIF.
	Benchmark string    `json:"benchmark,omitempty"`
	Config    JobConfig `json:"config"`
}

type submitResponse struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Deduped marks a submission that attached to an existing
	// content-identical execution instead of starting a new one.
	Deduped     bool   `json:"deduped,omitempty"`
	StatusURL   string `json:"status_url"`
	CancelURL   string `json:"cancel_url"`
	BLIFURL     string `json:"result_blif_url"`
	VerilogURL  string `json:"result_verilog_url"`
	FrontierURL string `json:"frontier_url"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	if (req.BLIF == "") == (req.Benchmark == "") {
		writeError(w, http.StatusBadRequest, "exactly one of blif or benchmark is required")
		return
	}
	cfg, err := req.Config.CoreConfig()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	var job Request
	job.Config = cfg
	// Record the circuit's provenance so the durable store re-materializes
	// the identical circuit after a restart.
	job.SourceBenchmark = req.Benchmark
	job.SourceBLIF = req.BLIF
	if req.Benchmark != "" {
		bm, err := bench.ByName(req.Benchmark)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		job.Circuit = bm.Circ
		job.Spec = bm.Spec
		if len(req.Config.Outputs) > 0 {
			if job.Spec, err = req.Config.Spec(bm.Circ); err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
		}
		if job.Config.Sequence == nil {
			job.Config.Sequence = bm.Seq
		}
	} else {
		circ, err := blif.Read(strings.NewReader(req.BLIF))
		if err != nil {
			writeError(w, http.StatusBadRequest, "parse blif: %v", err)
			return
		}
		job.Circuit = circ
		if job.Spec, err = req.Config.Spec(circ); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	// A sequence is checked against the circuit it will step: a bad one
	// would otherwise be accepted and fail only once a worker ran it.
	if seq := job.Config.Sequence; seq != nil {
		if err := seq.Validate(job.Circuit); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	// The sample count sizes the evaluator's memory; an unbounded one would
	// be accepted here and kill the process once a worker allocated it.
	if n := req.Config.Samples; n < 0 || n > qor.MaxSamples {
		writeError(w, http.StatusBadRequest, "samples must be in [0, %d] (got %d)", qor.MaxSamples, n)
		return
	}

	if req.Config.DeadlineMS < 0 {
		writeError(w, http.StatusBadRequest, "deadline_ms must be >= 0 (got %d)", req.Config.DeadlineMS)
		return
	}
	job.Deadline = time.Duration(req.Config.DeadlineMS) * time.Millisecond

	j, deduped, err := s.engine.SubmitAttach(job)
	var overload *OverloadError
	switch {
	case err == nil:
	case err == ErrQueueFull:
		// Overload, not unavailability: the engine is healthy, the queue is
		// just full. 429 + Retry-After tells a well-behaved client exactly
		// what to do; 503 is reserved for engine-closed / not-ready.
		setRetryAfter(w, s.engine.EstimateQueueWait())
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.As(err, &overload):
		// Deadline-aware shedding: queueing this job would let it die
		// waiting. The Retry-After is the estimated queue wait itself.
		setRetryAfter(w, overload.RetryAfter())
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case err == ErrClosed:
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// A deduped submission attached to an existing execution: 200, not 202 —
	// nothing new was accepted for processing.
	status := http.StatusAccepted
	if deduped {
		status = http.StatusOK
	}
	writeJSON(w, status, submitResponse{
		ID:          j.ID,
		State:       j.State(),
		Deduped:     deduped,
		StatusURL:   "/v1/jobs/" + j.ID,
		CancelURL:   "/v1/jobs/" + j.ID + "/cancel",
		BLIFURL:     "/v1/jobs/" + j.ID + "/result.blif",
		VerilogURL:  "/v1/jobs/" + j.ID + "/result.v",
		FrontierURL: "/v1/jobs/" + j.ID + "/frontier",
	})
}

// setRetryAfter renders a wait estimate as a Retry-After header (whole
// seconds, minimum 1 — zero would invite an immediate, pointless retry).
func setRetryAfter(w http.ResponseWriter, wait time.Duration) {
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.engine.List(false))
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, err := s.engine.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	withTrace := r.URL.Query().Get("trace") != "0"
	writeJSON(w, http.StatusOK, j.Snapshot(withTrace))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	state, err := s.engine.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]State{"state": state})
}

// doneJob resolves the request's job and writes the appropriate error unless
// the job finished successfully; callers bail out on nil.
func (s *Server) doneJob(w http.ResponseWriter, r *http.Request) *Job {
	j, err := s.engine.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return nil
	}
	switch j.State() {
	case StateDone:
		return j
	case StateTimeout:
		// A timed-out job has no chosen netlist, but its best-so-far
		// frontier survives — point the client at the partial answer.
		writeError(w, http.StatusGone,
			"job %s timed out; its best-so-far frontier is at /v1/jobs/%s/frontier", j.ID, j.ID)
		return nil
	case StateFailed, StateCancelled:
		writeError(w, http.StatusGone, "job %s is %s", j.ID, j.State())
		return nil
	default:
		writeError(w, http.StatusConflict, "job %s is %s; result not ready", j.ID, j.State())
		return nil
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.doneJob(w, r)
	if j == nil {
		return
	}
	// Serve from the restart-stable BLIF text (the journaled artifact for
	// restored jobs), so downloads are byte-identical across restarts; the
	// Verilog form is derived from that same text for the same reason.
	text, err := j.ResultBLIF()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "rebuild circuit: %v", err)
		return
	}
	if strings.HasSuffix(r.URL.Path, ".v") {
		circ, err := blif.Read(strings.NewReader(text))
		if err != nil {
			writeError(w, http.StatusInternalServerError, "rebuild circuit: %v", err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := verilog.Write(w, circ); err != nil {
			// The 200 header is already out; the truncated body is the best
			// signal left.
			fmt.Fprintf(w, "\n# error: %v\n", err)
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if _, err := io.WriteString(w, text); err != nil {
		fmt.Fprintf(w, "\n# error: %v\n", err)
	}
}

// frontierResponse is the JSON body of GET /v1/jobs/{id}/frontier: the
// non-dominated accuracy/area set, plus (with ?points=1) every evaluated
// point of the exploration.
type frontierResponse struct {
	JobID     string               `json:"job_id"`
	Evaluated int                  `json:"evaluated"`
	Front     []core.FrontierPoint `json:"front"`
	Points    []core.FrontierPoint `json:"points,omitempty"`
}

func (s *Server) handleFrontier(w http.ResponseWriter, r *http.Request) {
	j, err := s.engine.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	// Unlike the result endpoints, the frontier is served for timed-out jobs
	// too: the best-so-far set is exactly what the deadline bought.
	switch j.State() {
	case StateDone, StateTimeout:
	case StateFailed, StateCancelled:
		writeError(w, http.StatusGone, "job %s is %s", j.ID, j.State())
		return
	default:
		writeError(w, http.StatusConflict, "job %s is %s; frontier not ready", j.ID, j.State())
		return
	}
	f := j.Frontier()
	if f == nil {
		writeError(w, http.StatusNotFound, "job %s recorded no frontier", j.ID)
		return
	}
	all := r.URL.Query().Get("points") == "1"
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		resp := frontierResponse{JobID: j.ID, Evaluated: f.Size(), Front: f.Front()}
		if all {
			resp.Points = f.Points()
		}
		writeJSON(w, http.StatusOK, resp)
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		if err := f.WriteCSV(w, all); err != nil {
			fmt.Fprintf(w, "\n# error: %v\n", err)
		}
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (known: json, csv)", format)
	}
}

// handleEvents streams a job's progress as Server-Sent Events. The job's
// history (current state, recorded trace) is replayed first, then live
// events follow until the job reaches a terminal state — whose event,
// carrying the result summary or error, is the last before the stream ends.
// Comment heartbeats keep idle proxies from reaping the connection.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, err := s.engine.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	events, cancel := j.Subscribe()
	defer cancel()
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return // terminal event already delivered
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
				return
			}
			flusher.Flush()
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// timelineResponse is the JSON body of GET /v1/jobs/{id}/timeline.
type timelineResponse struct {
	JobID string `json:"job_id"`
	State State  `json:"state"`
	// Spans counts recorded spans (completed and open); Dropped counts spans
	// discarded past the per-job bound.
	Spans   int                   `json:"spans"`
	Dropped uint64                `json:"dropped,omitempty"`
	Tree    []*telemetry.SpanNode `json:"tree"`
}

func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	j, err := s.engine.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	recs := j.Timeline()
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, timelineResponse{
			JobID:   j.ID,
			State:   j.State(),
			Spans:   len(recs),
			Dropped: j.timeline.Dropped(),
			Tree:    telemetry.BuildTree(recs),
		})
	case "folded":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		telemetry.WriteFolded(w, recs)
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (known: json, folded)", format)
	}
}

// handleHealthz is the liveness probe: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// handleReadyz is the readiness probe: the engine accepts work and (when
// durable) its store is writable. Startup replay happens inside engine.New,
// so a server built on a live engine is ready by construction; blasys-serve
// additionally answers 503 on this path while replay is still running.
//
// Failure detail distinguishes the failure classes an operator reacts to
// differently: "degraded" (the store's write circuit breaker is open — jobs
// still run, memory-only, and recovery is being probed in the background)
// versus plain "unavailable" (engine closed, or a writability probe failed
// outright), and within probe failures, a sick jobs dir (durability gone)
// versus a sick cache dir (only warm-start speed gone).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	err := s.engine.Ready()
	if err == nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":         "ready",
			"uptime_seconds": time.Since(s.start).Seconds(),
		})
		return
	}
	resp := map[string]any{
		"status": "unavailable",
		"reason": err.Error(),
	}
	var de *store.DegradedError
	if errors.As(err, &de) {
		resp["status"] = "degraded"
		resp["breaker"] = de.State
		resp["degraded_since"] = de.Since
	}
	var pe *store.ProbeError
	if errors.As(err, &pe) {
		detail := map[string]string{}
		if pe.Jobs != nil {
			detail["jobs"] = pe.Jobs.Error()
		}
		if pe.Cache != nil {
			detail["cache"] = pe.Cache.Error()
		}
		resp["detail"] = detail
	}
	writeJSON(w, http.StatusServiceUnavailable, resp)
}

// handleMetrics renders the engine's registry (job lifecycle, queue,
// per-engine cache traffic) followed by the process-wide pipeline registry
// (bmf, qor, core, sched, store series). Family names are disjoint between
// the two, so the page is one well-formed exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.engine.syncGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.engine.Registry().WritePrometheus(w)
	telemetry.Default().WritePrometheus(w)
}

// faultStore resolves the engine's store for the fault-admin handlers,
// writing the error response when there is none (a memory-only engine has no
// fault points to arm).
func (s *Server) faultStore(w http.ResponseWriter) *store.Store {
	st := s.engine.Store()
	if st == nil {
		writeError(w, http.StatusConflict, "engine has no durable store; no fault points to control")
	}
	return st
}

// handleFaultsGet reports the armed schedule with live seen/fired counters.
func (s *Server) handleFaultsGet(w http.ResponseWriter, r *http.Request) {
	st := s.faultStore(w)
	if st == nil {
		return
	}
	rules := st.Faults().Snapshot() // nil-safe: empty when no injector
	writeJSON(w, http.StatusOK, map[string]any{
		"armed": len(rules) > 0,
		"rules": rules,
	})
}

// handleFaultsSet arms a fault schedule from the request body (the
// faults.ParseSchedule wire form, e.g.
// "journal.append:after=2,times=3,err=eio;checkpoint.write:err=enospc").
func (s *Server) handleFaultsSet(w http.ResponseWriter, r *http.Request) {
	st := s.faultStore(w)
	if st == nil {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<10))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read schedule: %v", err)
		return
	}
	rules, err := faults.ParseSchedule(strings.TrimSpace(string(body)))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var seed int64 = 1
	if sv := r.URL.Query().Get("seed"); sv != "" {
		if seed, err = strconv.ParseInt(sv, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, "bad seed %q: %v", sv, err)
			return
		}
	}
	st.SetFaults(faults.New(seed).Add(rules...))
	writeJSON(w, http.StatusOK, map[string]any{
		"armed": true,
		"seed":  seed,
		"rules": st.Faults().Snapshot(),
	})
}

// handleFaultsClear disarms every injected fault.
func (s *Server) handleFaultsClear(w http.ResponseWriter, r *http.Request) {
	st := s.faultStore(w)
	if st == nil {
		return
	}
	st.SetFaults(nil)
	writeJSON(w, http.StatusOK, map[string]any{"armed": false})
}

// handleVars dumps every metric series of both registries as one JSON
// document (an expvar-style debugging view of the same data /metrics serves).
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	s.engine.syncGauges()
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_seconds": time.Since(s.start).Seconds(),
		"engine":         s.engine.Registry().Snapshot(),
		"process":        telemetry.Default().Snapshot(),
	})
}
