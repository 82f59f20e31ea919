// Command blasys-exp runs reproducible experiment grids: it reads a JSON
// manifest (scripts/experiments/*.json, or the paper grids under
// scripts/paper/), executes every cell of the axis
// cross-product per seed and repeat through the library API, and writes a
// dated run folder (manifest copy, per-cell JSON, raw rows CSV, summary.md,
// summary_grouped.csv) under -out. The exit code is the verdict: 0 when the
// grid's machine-checked pass criterion holds, 1 when it fails, and 2 when
// there is no verdict (bad usage, an invalid manifest, or a cell that could
// not run), so CI can gate on a claim staying true.
//
// Usage:
//
//	blasys-exp -grid scripts/experiments/incremental.json -out experiments
//	blasys-exp -grid scripts/paper/paper.json -out experiments   # the paper's tables
//
// Every quantitative claim in DESIGN.md names the grid that regenerates it;
// docs/EXPERIMENTS.md describes the manifest format and the pass-criteria
// standards the verdicts follow.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/blasys-go/blasys/internal/exp"
)

func main() {
	os.Exit(run())
}

func run() int {
	grid := flag.String("grid", "", "path to an experiment grid manifest (required)")
	out := flag.String("out", "experiments", "root output directory for run folders")
	stamp := flag.String("stamp", "", "run-folder timestamp override (default: now; fixed stamps make folders reproducible)")
	quiet := flag.Bool("quiet", false, "suppress per-row progress lines")
	flag.Parse()
	if *grid == "" {
		fmt.Fprintln(os.Stderr, "blasys-exp: -grid is required")
		flag.Usage()
		return 2
	}
	data, err := os.ReadFile(*grid)
	if err != nil {
		fmt.Fprintf(os.Stderr, "blasys-exp: %v\n", err)
		return 2
	}
	m, err := exp.ParseManifest(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "blasys-exp: %v\n", err)
		return 2
	}
	if *stamp == "" {
		*stamp = time.Now().UTC().Format(exp.StampFormat)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	r := &exp.Runner{OutDir: *out, Stamp: *stamp}
	if !*quiet {
		r.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	run, err := r.Run(ctx, m)
	if err != nil {
		fmt.Fprintf(os.Stderr, "blasys-exp: %v\n", err)
		return 2
	}
	fmt.Printf("%s\n%s\n", run.Dir, run.Summary.Verdict)
	if !run.Summary.Pass {
		return 1
	}
	return 0
}
