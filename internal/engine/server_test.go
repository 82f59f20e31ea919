package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/blif"
	"github.com/blasys-go/blasys/internal/core"
)

func newTestServer(t *testing.T) (*httptest.Server, *Engine) {
	t.Helper()
	e := New(Options{Workers: 2})
	t.Cleanup(e.Close)
	ts := httptest.NewServer(NewServer(e))
	t.Cleanup(ts.Close)
	return ts, e
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestServerEndToEnd is the acceptance flow: submit a BLIF job over HTTP,
// poll status, download the approximate netlist as BLIF and Verilog.
func TestServerEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t)

	// Serialize a 4-bit adder to BLIF — the job payload.
	req := adderRequest(t, 4, core.Config{})
	var blifText bytes.Buffer
	if err := blif.Write(&blifText, req.Circuit); err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"blif": blifText.String(),
		"config": JobConfig{
			K: 4, M: 3, Samples: 1 << 8, Seed: 1, Threshold: 0.05,
			ExploreFully: true, MaxSteps: 4,
		},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || sub.StatusURL == "" {
		t.Fatalf("submit response incomplete: %+v", sub)
	}

	// Poll status until terminal.
	var st Status
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, body = getBody(t, ts.URL+sub.StatusURL)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status: %d %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after deadline", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != StateDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}
	if len(st.Trace) == 0 || st.Result == nil {
		t.Fatalf("done status missing trace or result: %+v", st)
	}

	// Download the approximate netlist in both formats.
	resp, body = getBody(t, ts.URL+sub.BLIFURL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result.blif: %d %s", resp.StatusCode, body)
	}
	circ, err := blif.Read(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("returned BLIF does not parse: %v\n%s", err, body)
	}
	if circ.NumInputs() != req.Circuit.NumInputs() || circ.NumOutputs() != req.Circuit.NumOutputs() {
		t.Fatalf("returned netlist is %d-in/%d-out, want %d/%d",
			circ.NumInputs(), circ.NumOutputs(), req.Circuit.NumInputs(), req.Circuit.NumOutputs())
	}

	resp, body = getBody(t, ts.URL+sub.VerilogURL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result.v: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "module") {
		t.Fatalf("verilog output suspicious:\n%s", body)
	}

	// Health and metrics.
	resp, body = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	resp, body = getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	for _, metric := range []string{
		"blasys_jobs_completed_total 1",
		"blasys_bmf_cache_hits_total",
		"blasys_bmf_cache_misses_total",
		"blasys_queue_depth",
	} {
		if !strings.Contains(string(body), metric) {
			t.Fatalf("metrics missing %q:\n%s", metric, body)
		}
	}

	// Job listing includes ours.
	resp, body = getBody(t, ts.URL+"/v1/jobs")
	var list []Status
	if err := json.Unmarshal(body, &list); err != nil || len(list) != 1 || list[0].ID != sub.ID {
		t.Fatalf("list: %v %s", err, body)
	}
}

// TestServerBenchmarkJobWarmCache submits the same named benchmark twice and
// checks the second run reports factorization-cache hits over the API.
func TestServerBenchmarkJobWarmCache(t *testing.T) {
	ts, _ := newTestServer(t)
	submit := func() Status {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
			"benchmark": "Fig3",
			"config":    JobConfig{Samples: 1 << 8, Seed: 1, MaxSteps: 2, ExploreFully: true},
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %s", resp.StatusCode, body)
		}
		var sub submitResponse
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		var st Status
		deadline := time.Now().Add(time.Minute)
		for {
			_, body = getBody(t, ts.URL+sub.StatusURL)
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatal(err)
			}
			if st.State.Terminal() {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("job stuck in %s", st.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	cold := submit()
	if cold.State != StateDone {
		t.Fatalf("cold job %s: %s", cold.State, cold.Error)
	}
	warm := submit()
	if warm.State != StateDone {
		t.Fatalf("warm job %s: %s", warm.State, warm.Error)
	}
	if warm.CacheHits == 0 {
		t.Fatalf("warm benchmark submission reported no cache hits: %+v", warm)
	}
}

// TestServerValidation covers the 4xx surface.
func TestServerValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name string
		body any
		want int
	}{
		{"neither input", map[string]any{"config": JobConfig{}}, http.StatusBadRequest},
		{"both inputs", map[string]any{"blif": "x", "benchmark": "Mult8"}, http.StatusBadRequest},
		{"bad benchmark", map[string]any{"benchmark": "Mult99"}, http.StatusBadRequest},
		{"bad blif", map[string]any{"blif": ".model x\n.latch a b\n.end"}, http.StatusBadRequest},
		{"bad metric", map[string]any{"benchmark": "Fig3", "config": JobConfig{Metric: "nope"}}, http.StatusBadRequest},
		{"unknown field", map[string]any{"benchmark": "Fig3", "bogus": 1}, http.StatusBadRequest},
		{"sequence steps too large", map[string]any{"benchmark": "SAD", "config": JobConfig{
			Sequence: &SequenceConfig{Steps: 1 << 20, Feedback: [][2]int{{0, 16}}}}}, http.StatusBadRequest},
		{"sequence steps too small", map[string]any{"benchmark": "SAD", "config": JobConfig{
			Sequence: &SequenceConfig{Steps: 1, Feedback: [][2]int{{0, 16}}}}}, http.StatusBadRequest},
		{"sequence feedback out of range", map[string]any{"benchmark": "Fig3", "config": JobConfig{
			Sequence: &SequenceConfig{Steps: 8, Feedback: [][2]int{{99, 0}}}}}, http.StatusBadRequest},
		{"negative samples", map[string]any{"benchmark": "Adder32", "config": JobConfig{Samples: -1}}, http.StatusBadRequest},
		{"samples over the bound", map[string]any{"benchmark": "Adder32", "config": JobConfig{Samples: 1 << 62}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, resp.StatusCode, tc.want, body)
		}
	}

	if resp, _ := getBody(t, ts.URL+"/v1/jobs/job-unknown"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status: %d", resp.StatusCode)
	}
	if resp, _ := getBody(t, ts.URL+"/v1/jobs/job-unknown/result.blif"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job result: %d", resp.StatusCode)
	}
	resp, body := postJSON(t, ts.URL+"/v1/jobs/job-unknown/cancel", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job cancel: %d %s", resp.StatusCode, body)
	}

	// result.blif for a job that is not done yet must 409. The blocker is
	// Mult8-sized so it is guaranteed to outlive one status query.
	e2 := New(Options{Workers: 1})
	defer e2.Close()
	bm := bench.Mult8()
	slow, err := e2.Submit(Request{
		Circuit: bm.Circ, Spec: bm.Spec,
		Config: core.Config{Samples: 1 << 16, ExploreFully: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(NewServer(e2))
	defer ts2.Close()
	resp, body = getBody(t, fmt.Sprintf("%s/v1/jobs/%s/result.blif", ts2.URL, slow.ID))
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("pending result: %d %s", resp.StatusCode, body)
	}
	if _, err := e2.Cancel(slow.ID); err != nil {
		t.Fatal(err)
	}
}
