// Command bench_check is the CI bench-regression gate: it compares a freshly
// written BENCH_<date>.json (see scripts/bench.sh and the root package's
// -benchjson flag) against a committed baseline record and fails when a
// watched throughput metric regressed beyond the tolerance.
//
// The default watch set covers the hot-path headline throughputs
// (candidate-evals/sec, explore-steps/sec) plus the same-process speedup
// ratios (candidate-eval-speedup-x, explore-speedup-x). The ratios compare
// two legs measured
// in the same run, so machine speed cancels out and they stay meaningful
// across dissimilar hardware; the absolute rates catch regressions the
// ratios cannot (both legs slowing down together) but are inherently noisier
// when baseline and fresh records come from different machines or a loaded
// runner — tune -max-regress or -units if the gate proves flaky in a given
// CI fleet. Metrics present in the baseline but missing from the fresh
// record are reported as failures too — a silently vanished benchmark must
// not pass the gate.
//
// -ceilings gates absolute upper bounds on the FRESH record alone, without
// needing a baseline row: 'allocs/op=16' fails the gate if any fresh metric
// with unit allocs/op exceeds 16, and also fails if no fresh metric carries
// that unit at all (a vanished benchmark must not pass). Allocation counts
// are machine-independent, so a hard ceiling is reliable where absolute
// throughput is not.
//
// Usage:
//
//	go run scripts/bench_check.go -new BENCH_ci.json
//	go run scripts/bench_check.go -new BENCH_ci.json -baseline BENCH_2026-07-29.json \
//	    -max-regress 0.30 -units 'candidate-evals/sec,explore-steps/sec' \
//	    -ceilings 'allocs/op=16'
//
// Without -baseline, the lexicographically newest BENCH_*.json in the
// current directory other than -new is used (file names embed ISO dates, so
// lexicographic order is chronological order).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchMetric and benchReport mirror the shapes written by the root
// package's -benchjson flag (bench_json_test.go).
type benchMetric struct {
	Bench string  `json:"bench"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

type benchReport struct {
	Date       string        `json:"date"`
	GoVersion  string        `json:"go_version"`
	NumCPU     int           `json:"num_cpu"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Metrics    []benchMetric `json:"metrics"`
}

func main() {
	var (
		newPath    = flag.String("new", "", "freshly written BENCH_<date>.json (required)")
		basePath   = flag.String("baseline", "", "committed baseline record (default: newest BENCH_*.json other than -new)")
		maxRegress = flag.Float64("max-regress", 0.30, "maximum tolerated fractional drop per watched metric")
		unitsFlag  = flag.String("units",
			"candidate-evals/sec,explore-steps/sec,candidate-eval-speedup-x,explore-speedup-x",
			"comma-separated metric units to gate on")
		ceilFlag = flag.String("ceilings", "",
			"comma-separated unit=max pairs checked against the fresh record only (e.g. 'allocs/op=16')")
	)
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "bench_check: -new is required")
		flag.Usage()
		os.Exit(2)
	}
	ceilings, err := splitCeilings(*ceilFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench_check:", err)
		os.Exit(2)
	}
	if err := run(*newPath, *basePath, *maxRegress, splitUnits(*unitsFlag), ceilings); err != nil {
		fmt.Fprintln(os.Stderr, "bench_check:", err)
		os.Exit(1)
	}
}

func splitUnits(s string) map[string]bool {
	units := make(map[string]bool)
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			units[u] = true
		}
	}
	return units
}

// splitCeilings parses 'unit=max,unit=max' into a map of per-unit upper
// bounds.
func splitCeilings(s string) (map[string]float64, error) {
	ceilings := make(map[string]float64)
	for _, pair := range strings.Split(s, ",") {
		if pair = strings.TrimSpace(pair); pair == "" {
			continue
		}
		unit, maxStr, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("bad -ceilings entry %q: want unit=max", pair)
		}
		var limit float64
		if _, err := fmt.Sscanf(strings.TrimSpace(maxStr), "%g", &limit); err != nil {
			return nil, fmt.Errorf("bad -ceilings limit %q: %v", maxStr, err)
		}
		ceilings[strings.TrimSpace(unit)] = limit
	}
	return ceilings, nil
}

func run(newPath, basePath string, maxRegress float64, units map[string]bool, ceilings map[string]float64) error {
	if basePath == "" {
		var err error
		if basePath, err = latestBaseline(newPath); err != nil {
			return err
		}
	}
	fresh, err := readReport(newPath)
	if err != nil {
		return err
	}
	base, err := readReport(basePath)
	if err != nil {
		return err
	}
	fmt.Printf("baseline %s (%s, %d CPU) vs fresh %s (%s, %d CPU), tolerance %.0f%%\n",
		basePath, base.Date, base.NumCPU, newPath, fresh.Date, fresh.NumCPU, 100*maxRegress)

	freshBy := make(map[string]float64, len(fresh.Metrics))
	for _, m := range fresh.Metrics {
		freshBy[m.Bench+"|"+m.Unit] = m.Value
	}
	var failures []string
	checked := 0
	for _, m := range base.Metrics {
		if !units[m.Unit] || m.Value <= 0 {
			continue
		}
		checked++
		got, ok := freshBy[m.Bench+"|"+m.Unit]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s [%s]: missing from fresh record", m.Bench, m.Unit))
			continue
		}
		change := got/m.Value - 1
		status := "ok"
		if change < -maxRegress {
			status = "REGRESSED"
			failures = append(failures, fmt.Sprintf("%s [%s]: %.1f -> %.1f (%+.1f%%)",
				m.Bench, m.Unit, m.Value, got, 100*change))
		}
		fmt.Printf("  %-60s %-22s %12.1f -> %12.1f  %+7.1f%%  %s\n",
			m.Bench, m.Unit, m.Value, got, 100*change, status)
	}
	if checked == 0 {
		return fmt.Errorf("baseline %s has no metrics with watched units %v — wrong file or wrong -units",
			basePath, keys(units))
	}
	// Ceilings gate the fresh record alone: machine-independent budgets
	// (allocation counts) that must hold regardless of baseline history.
	ceilUnits := make([]string, 0, len(ceilings))
	for u := range ceilings {
		ceilUnits = append(ceilUnits, u)
	}
	sort.Strings(ceilUnits)
	for _, unit := range ceilUnits {
		limit := ceilings[unit]
		seen := 0
		for _, m := range fresh.Metrics {
			if m.Unit != unit {
				continue
			}
			seen++
			status := "ok"
			if m.Value > limit {
				status = "OVER CEILING"
				failures = append(failures, fmt.Sprintf("%s [%s]: %.2f exceeds ceiling %.2f",
					m.Bench, m.Unit, m.Value, limit))
			}
			fmt.Printf("  %-60s %-22s %12.2f <= %12.2f            %s\n", m.Bench, m.Unit, m.Value, limit, status)
		}
		if seen == 0 {
			failures = append(failures, fmt.Sprintf("[%s]: no fresh metric carries this ceiling unit", unit))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond %.0f%% or broke a ceiling:\n  %s",
			len(failures), 100*maxRegress, strings.Join(failures, "\n  "))
	}
	fmt.Printf("bench gate passed: %d metric(s) within tolerance, %d ceiling unit(s) honored\n",
		checked, len(ceilings))
	return nil
}

// latestBaseline picks the newest BENCH_*.json beside newPath, excluding
// newPath itself.
func latestBaseline(newPath string) (string, error) {
	dir := filepath.Dir(newPath)
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	newAbs, _ := filepath.Abs(newPath)
	var cands []string
	for _, m := range matches {
		if abs, _ := filepath.Abs(m); abs == newAbs {
			continue
		}
		cands = append(cands, m)
	}
	if len(cands) == 0 {
		return "", fmt.Errorf("no committed BENCH_*.json baseline found in %s", dir)
	}
	sort.Strings(cands)
	return cands[len(cands)-1], nil
}

func readReport(path string) (*benchReport, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchReport
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Metrics) == 0 {
		return nil, fmt.Errorf("%s: no metrics recorded", path)
	}
	return &r, nil
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
