// Benchmark-metric collection: reportMetric mirrors b.ReportMetric while
// also accumulating every (benchmark, unit, value) triple, and TestMain
// flushes the accumulated set as JSON when -benchjson is given. This is how
// the perf trajectory is recorded over time — scripts/bench.sh runs the
// benchmark suite with -benchjson BENCH_<date>.json so each commit's
// headline numbers (engine speedups, area savings, cache hits) land in a
// dated, machine-readable file.
package blasys_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

var benchJSONPath = flag.String("benchjson", "",
	"write every metric reported via reportMetric as JSON to this file")

// benchWorkers sets the worker count of the multi-worker candidate-sweep leg
// of BenchmarkExplore (0 = NumCPU, floored at 2 so the sharded code path is
// exercised even on single-CPU machines). scripts/bench.sh passes it through
// as -workers.
var benchWorkers = flag.Int("workers", 0,
	"candidate-sweep workers for the parallel explore benchmark leg (0 = NumCPU, min 2)")

type benchMetric struct {
	Bench string  `json:"bench"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

type benchReport struct {
	Date       string        `json:"date"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	NumCPU     int           `json:"num_cpu"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Metrics    []benchMetric `json:"metrics"`
}

var (
	benchMetricsMu sync.Mutex
	benchMetrics   []benchMetric
)

// reportMetric forwards to b.ReportMetric and records the sample for the
// -benchjson report. All root-package benchmarks report through this helper.
func reportMetric(b *testing.B, value float64, unit string) {
	b.Helper()
	b.ReportMetric(value, unit)
	benchMetricsMu.Lock()
	benchMetrics = append(benchMetrics, benchMetric{Bench: b.Name(), Unit: unit, Value: value})
	benchMetricsMu.Unlock()
}

func TestMain(m *testing.M) {
	code := m.Run()
	if *benchJSONPath != "" {
		if err := writeBenchJSON(*benchJSONPath); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			if code == 0 {
				code = 1
			}
		}
	}
	os.Exit(code)
}

func writeBenchJSON(path string) error {
	benchMetricsMu.Lock()
	metrics := append([]benchMetric(nil), benchMetrics...)
	benchMetricsMu.Unlock()
	report := benchReport{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Metrics:    metrics,
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
