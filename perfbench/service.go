package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/blasys-go/blasys"
	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/engine"
)

// stack is the blasys-serve stack run in-process at the command's defaults
// for a two-CPU machine: a durable store, an engine with 2 workers x job
// parallelism 1 and dedup on, and the HTTP API on a loopback port.
type stack struct {
	st     *blasys.JobStore
	eng    *blasys.Engine
	srv    *http.Server
	base   string
	served chan error
	closed bool
}

func startStack(dir string, logger *slog.Logger) (*stack, error) {
	st, err := blasys.OpenJobStore(dir)
	if err != nil {
		return nil, err
	}
	eng := blasys.NewEngine(blasys.EngineOptions{
		Workers:        2,
		JobParallelism: 1,
		Store:          st,
		Resume:         true,
		Dedup:          true,
		Logger:         logger,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		st.Close()
		return nil, err
	}
	s := &stack{
		st:     st,
		eng:    eng,
		srv:    &http.Server{Handler: blasys.NewJobServer(eng), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close drains the listener, then stops the engine and the store; it
// returns once the serving goroutine has exited. Closing twice is a no-op.
func (s *stack) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.eng.Close()
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// submitBody is the POST /v1/jobs body for one job.
func submitBody(w workload, b bench.Circuit, blif string, seed int64) ([]byte, error) {
	cfg := engine.JobConfig{
		Threshold:    threshold,
		Samples:      w.samples,
		Seed:         seed,
		Basis:        w.basis.String(),
		ExploreFully: w.full,
	}
	for _, g := range b.Spec.Groups {
		cfg.Outputs = append(cfg.Outputs, engine.GroupConfig{Name: g.Name, Bits: g.Bits, Signed: g.Signed})
	}
	if b.Seq != nil {
		cfg.Sequence = &engine.SequenceConfig{Steps: b.Seq.Steps, Feedback: b.Seq.Feedback}
	}
	return json.Marshal(struct {
		BLIF   string           `json:"blif"`
		Config engine.JobConfig `json:"config"`
	}{blif, cfg})
}

// serviceInputs are the generated circuits and their BLIF texts.
type serviceInputs struct {
	bench map[string]bench.Circuit
	blif  map[string]string
}

func generateServiceInputs(w workload) (serviceInputs, error) {
	in, err := generateInputs(w)
	if err != nil {
		return serviceInputs{}, err
	}
	si := serviceInputs{bench: in, blif: map[string]string{}}
	for name, b := range in {
		var sb strings.Builder
		if err := blasys.WriteBLIF(&sb, b.Circ); err != nil {
			return serviceInputs{}, err
		}
		si.blif[name] = sb.String()
	}
	return si, nil
}

// runService is the durable-service loop: closed-loop HTTP clients in
// lockstep against one in-process stack.
func runService(o runOptions, jobs []job) (*runResult, error) {
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	rr := &runResult{}
	var (
		live *stack
		in   serviceInputs
	)
	defer func() {
		if live != nil {
			_ = live.close() // error paths only; the success path closes and checks below
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		if i == 0 {
			t = o.started
		}
		if live != nil {
			if err := live.close(); err != nil {
				return nil, err
			}
		}
		var err error
		if in, err = generateServiceInputs(o.w); err != nil {
			return nil, err
		}
		// The warm-up job runs on a throwaway stack, so the timed jobs see
		// only the cache entries the mix itself fills.
		if err := warmUp(o, in, filepath.Join(o.tmp, fmt.Sprintf("warmup-%d", i)), logger); err != nil {
			return nil, err
		}
		if live, err = startStack(filepath.Join(o.tmp, fmt.Sprintf("store-%d", i)), logger); err != nil {
			return nil, err
		}
		rr.setups = append(rr.setups, time.Since(t))
	}
	rr.inputs = in.bench

	clients := make([]*client, o.w.clients)
	for k := range clients {
		clients[k] = newClient(live.base)
		defer clients[k].close()
	}
	var peaks peakMeter
	cpu0, t0 := cpuTime(), time.Now()
	for next := 0; next < len(jobs); next += len(clients) {
		batch := jobs[next : next+len(clients)]
		if err := peaks.start(); err != nil {
			return nil, err
		}
		outs := make([]*outcome, len(batch))
		var wg sync.WaitGroup
		for k, j := range batch {
			wg.Add(1)
			go func(k int, j job) {
				defer wg.Done()
				outs[k] = clients[k].run(o, in, j)
			}(k, j)
		}
		wg.Wait()
		if err := peaks.stop(); err != nil {
			return nil, err
		}
		rr.outcomes = append(rr.outcomes, outs...)
	}
	rr.window, rr.cpu = time.Since(t0), cpuTime()-cpu0
	rr.peakMB = median(peaks.peaks)

	for _, oc := range rr.outcomes {
		if oc.err != nil {
			continue
		}
		if oc.best, oc.err = blasys.ReadBLIF(strings.NewReader(oc.result)); oc.err != nil {
			continue
		}
		if o.traced && oc.job.round < replayRounds {
			j, err := live.eng.Get(oc.id)
			if err != nil {
				return nil, err
			}
			oc.res = j.Result()
		}
	}
	if err := live.close(); err != nil {
		return nil, err
	}
	return rr, nil
}

func warmUp(o runOptions, in serviceInputs, dir string, logger *slog.Logger) error {
	s, err := startStack(dir, logger)
	if err != nil {
		return err
	}
	c := newClient(s.base)
	oc := c.run(o, in, job{index: -1, round: -1, circuit: o.w.warmup})
	c.close()
	if err := s.close(); err != nil {
		return err
	}
	if oc.err != nil {
		return fmt.Errorf("warm-up job: %w", oc.err)
	}
	return nil
}

// client is one closed-loop HTTP client.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// run submits one job, waits on its event stream for the terminal state,
// then downloads result.blif and the frontier. In traced runs it also
// reads the job status for the engine's own timestamps.
func (c *client) run(o runOptions, in serviceInputs, j job) *outcome {
	b := in.bench[j.circuit]
	oc := &outcome{job: j, blif: in.blif[j.circuit]}
	body, err := submitBody(o.w, b, oc.blif, j.seed)
	if err != nil {
		oc.err = err
		return oc
	}
	t0 := time.Now()
	var sub struct {
		ID string `json:"id"`
	}
	if err := c.do(http.MethodPost, "/v1/jobs", body, &sub); err != nil {
		oc.err = fmt.Errorf("submit: %w", err)
		return oc
	}
	oc.id, oc.submit = sub.ID, time.Since(t0)
	state, err := c.waitTerminal(sub.ID)
	notified := time.Now()
	if err == nil && state != "done" {
		err = fmt.Errorf("job ended %s", state)
	}
	if err != nil {
		oc.err = err
		return oc
	}
	var text bytes.Buffer
	if err := c.get("/v1/jobs/"+sub.ID+"/result.blif", &text); err != nil {
		oc.err = fmt.Errorf("result.blif: %w", err)
		return oc
	}
	oc.wall = time.Since(t0)
	var frontier struct {
		Evaluated int `json:"evaluated"`
	}
	if err := c.do(http.MethodGet, "/v1/jobs/"+sub.ID+"/frontier", nil, &frontier); err != nil || frontier.Evaluated == 0 {
		oc.err = fmt.Errorf("frontier: %v (evaluated %d)", err, frontier.Evaluated)
		return oc
	}
	oc.download = time.Since(notified)
	oc.result = text.String()
	sum := sha256.Sum256(text.Bytes())
	oc.hash = hex.EncodeToString(sum[:])
	if o.traced {
		var st struct {
			Created     time.Time `json:"created"`
			Started     time.Time `json:"started"`
			Finished    time.Time `json:"finished"`
			CacheHits   uint64    `json:"cache_hits"`
			CacheMisses uint64    `json:"cache_misses"`
		}
		if err := c.do(http.MethodGet, "/v1/jobs/"+sub.ID+"?trace=0", nil, &st); err != nil {
			oc.err = fmt.Errorf("status: %w", err)
			return oc
		}
		oc.queueWait = st.Started.Sub(st.Created)
		oc.runTime = st.Finished.Sub(st.Started)
		oc.notifyLag = notified.Sub(st.Finished)
		oc.hits, oc.misses = st.CacheHits, st.CacheMisses
	}
	return oc
}

// do sends a request and decodes a 2xx JSON answer into out.
func (c *client) do(method, path string, body []byte, out any) error {
	var buf bytes.Buffer
	if err := c.send(method, path, body, &buf); err != nil {
		return err
	}
	return json.Unmarshal(buf.Bytes(), out)
}

func (c *client) get(path string, out *bytes.Buffer) error {
	return c.send(http.MethodGet, path, nil, out)
}

func (c *client) send(method, path string, body []byte, out *bytes.Buffer) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(out, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(out.String()))
	}
	return nil
}

// waitTerminal follows the job's server-sent events until the terminal
// state event and returns that state.
func (c *client) waitTerminal(id string) (string, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			Type  string `json:"type"`
			State string `json:"state"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", fmt.Errorf("events: %w", err)
		}
		switch {
		case ev.Type != "state":
		case ev.State == "done", ev.State == "failed", ev.State == "cancelled", ev.State == "timeout":
			_, _ = io.Copy(io.Discard, resp.Body) // the server ends the stream after the terminal event
			return ev.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("events: %w", err)
	}
	return "", errors.New("events: stream ended before a terminal state")
}
