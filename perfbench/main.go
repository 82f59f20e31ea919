// Command perfbench is the repository's end-to-end benchmark. It drives the
// BLASYS flow through its public entry points — the facade's
// ApproximateContext and the blasys-serve HTTP stack run in-process — under
// one of three seeded, closed-loop workloads, checks every result with an
// evaluator that shares no code with the program's simulator or QoR
// package, and prints one JSON summary as the last line of standard output.
//
//	perfbench -workload paper-walk -seed 1 -seconds 25 -trace 0
//
// With -trace 1 the run also replays the jobs of its first two rounds one
// layer call at a time, recording a telemetry span per call, and reports
// per-layer metrics instead of the end-to-end ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/blasys-go/blasys/internal/telemetry"
)

// setupRepeats is how many times a run performs its whole set-up; setup_s
// is the median.
const setupRepeats = 3

// replayRounds is how many leading rounds of the job list the traced run
// replays layer by layer; every run has at least that many rounds.
const replayRounds = 2

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "workload to run: paper-walk, asso-profile or durable-service")
		seed         = flag.Int64("seed", 1, "workload seed: picks every job's Config.Seed and the job order")
		seconds      = flag.Int("seconds", 25, "nominal length of the timed window in seconds; sets the number of rounds")
		trace        = flag.Int("trace", 0, "1 = traced run: replay each job layer by layer and report per-layer metrics")
		workdir      = flag.String("workdir", ".bench_build", "directory for temp stores and span exports")
	)
	flag.Parse()
	start := time.Now()
	w, ok := workloads[*workloadName]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: paper-walk, asso-profile, durable-service)\n", *workloadName)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	tmp, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	opts := runOptions{
		w:       w,
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		tmp:     tmp,
		started: start,
	}
	rep, err := execute(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if opts.traced {
		dir := filepath.Join(*workdir, "trace")
		paths, err := exportSpans(dir, fmt.Sprintf("%s-seed%d", w.name, *seed), rep.spans)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		for _, p := range paths {
			fmt.Printf("spans written to %s\n", p)
		}
	}
	printSummary(rep)
	return 0
}

// metric is one named, unit-carrying value of the JSON summary.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a run prints: the correctness verdict, the submission
// counts and either the end-to-end or the per-layer metrics.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   []namedMetric
	extra     []namedMetric // printed in the table only (never zero-free)
	spans     []telemetry.SpanRecord
}

type namedMetric struct {
	name string
	metric
}

func printSummary(r *report) {
	fmt.Println("metric                          value          unit")
	for _, m := range append(append([]namedMetric(nil), r.metrics...), r.extra...) {
		fmt.Printf("%-30s %-14.6g %s\n", m.name, m.Value, m.Unit)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]metric{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = m.metric
	}
	line, _ := json.Marshal(out) // plain numbers and strings cannot fail to encode
	fmt.Println(string(line))
}

// --- statistics --------------------------------------------------------------

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakMeter measures the process's peak resident memory per job: Linux's
// high-water mark (VmHWM) is reset to the current resident size before the
// job and read after it. The whole-run maximum is dominated by rare garbage
// collector overshoots (it swung twofold between identical asso-profile
// runs); the median over jobs is what a bound can hold.
type peakMeter struct {
	peaks []float64
}

func (m *peakMeter) start() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func (m *peakMeter) stop() error {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			m.peaks = append(m.peaks, kb/1024)
			return nil
		}
	}
	return fmt.Errorf("no VmHWM in /proc/self/status")
}
