// Command blasys runs the BLASYS approximate-synthesis flow on a benchmark
// circuit (or a BLIF netlist) and reports the accuracy/area trade-off.
//
// Examples:
//
//	blasys -bench Mult8 -threshold 0.05
//	blasys -bench Adder32 -weighted -metric rel -trace trace.csv
//	blasys -blif mydesign.blif -k 8 -m 8 -full
//	blasys -bench Mult8 -full -workers 8 -frontier frontier.csv
//
// Long runs can checkpoint after every committed exploration step and resume
// after an interruption (the resumed run is bit-identical to an
// uninterrupted one):
//
//	blasys -bench Mult8 -full -checkpoint mult8.ckpt
//	# ... interrupted ...
//	blasys -bench Mult8 -full -checkpoint mult8.ckpt -resume mult8.ckpt
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/blif"
	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/qor"
	"github.com/blasys-go/blasys/internal/store"
	"github.com/blasys-go/blasys/internal/techmap"
	"github.com/blasys-go/blasys/internal/telemetry"
	"github.com/blasys-go/blasys/internal/verilog"
)

var metricNames = map[string]qor.Metric{
	"rel":     qor.AvgRelative,
	"abs":     qor.AvgAbsolute,
	"normabs": qor.NormAvgAbsolute,
	"hamming": qor.MeanHamming,
	"rate":    qor.ErrorRate,
	"worst":   qor.WorstRelative,
	"mse":     qor.MSE,
}

func main() {
	var (
		benchName    = flag.String("bench", "", "benchmark name ("+strings.Join(bench.Names(), ", ")+")")
		blifPath     = flag.String("blif", "", "BLIF netlist to approximate (outputs treated as one unsigned bus)")
		k            = flag.Int("k", 10, "max block inputs")
		m            = flag.Int("m", 10, "max block outputs")
		threshold    = flag.Float64("threshold", 0.05, "error threshold")
		metricName   = flag.String("metric", "rel", "QoR metric: rel, abs, normabs, hamming, rate, worst, mse")
		samples      = flag.Int("samples", 1<<16, "Monte-Carlo samples during exploration")
		finalSamples = flag.Int("final-samples", 1<<20, "Monte-Carlo samples for final report")
		seed         = flag.Int64("seed", 1, "random seed")
		weighted     = flag.Bool("weighted", false, "use weighted-QoR factorization (paper §3.2)")
		semiring     = flag.String("semiring", "or", "decompressor algebra: or, xor")
		full         = flag.Bool("full", false, "explore the full trade-off past the threshold")
		maxSteps     = flag.Int("max-steps", 0, "cap exploration steps (0 = unlimited)")
		lazy         = flag.Bool("lazy", false, "lazy-greedy exploration: a faster heuristic whose walk can differ from the exhaustive one; no result depends on -workers")
		workers      = flag.Int("workers", 0, "candidate-sweep worker shards per exploration step (0 = GOMAXPROCS; results are identical for any value)")
		tracePath    = flag.String("trace", "", "write the exploration trace as CSV")
		frontierPath = flag.String("frontier", "", "write the evaluated accuracy/area frontier (suffix .json, else CSV)")
		outPath      = flag.String("out", "", "write the chosen approximate netlist (suffix .v or .blif)")
		ckptPath     = flag.String("checkpoint", "", "persist the exploration state to this file after every committed step (atomically replaced)")
		resumePath   = flag.String("resume", "", "resume the exploration from a -checkpoint file (a missing file starts fresh)")
		deadline     = flag.Duration("deadline", 0, "wall-clock budget for the exploration (0 = unlimited); on expiry the run stops with the last committed -checkpoint holding the best-so-far state")
		verbose      = flag.Bool("v", false, "log progress")
		logLevel     = flag.String("log-level", "info", "log threshold: debug|info|warn|error")
		logFormat    = flag.String("log-format", "text", "log line format: text|json")
	)
	flag.Parse()
	if err := setupLogging(*logFormat, *logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "blasys:", err)
		os.Exit(1)
	}
	if err := run(*benchName, *blifPath, *k, *m, *threshold, *metricName, *samples,
		*finalSamples, *seed, *weighted, *semiring, *full, *maxSteps, *lazy, *workers,
		*tracePath, *frontierPath, *outPath, *ckptPath, *resumePath, *deadline, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "blasys:", err)
		os.Exit(1)
	}
}

// setupLogging installs the structured logger the flow's warnings go
// through; the CLI's own progress reporting stays on stdout.
func setupLogging(format, level string) error {
	lvl, err := telemetry.ParseLevel(level)
	if err != nil {
		return err
	}
	logger, err := telemetry.NewLogger(os.Stderr, format, lvl)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)
	return nil
}

func run(benchName, blifPath string, k, m int, threshold float64, metricName string,
	samples, finalSamples int, seed int64, weighted bool, semiring string,
	full bool, maxSteps int, lazy bool, workers int, tracePath, frontierPath, outPath, ckptPath, resumePath string,
	deadline time.Duration, verbose bool) error {

	metric, ok := metricNames[metricName]
	if !ok {
		return fmt.Errorf("unknown metric %q", metricName)
	}
	var sr bmf.Semiring
	switch semiring {
	case "or":
		sr = bmf.Or
	case "xor":
		sr = bmf.Xor
	default:
		return fmt.Errorf("unknown semiring %q", semiring)
	}

	var circ *logic.Circuit
	var spec qor.OutputSpec
	var seq *qor.Sequence
	switch {
	case benchName != "":
		b, err := bench.ByName(benchName)
		if err != nil {
			return err
		}
		circ, spec, seq = b.Circ, b.Spec, b.Seq
	case blifPath != "":
		c, err := blif.ReadFile(blifPath)
		if err != nil {
			return err
		}
		circ = c
		spec = qor.Unsigned("out", len(c.Outputs))
	default:
		return fmt.Errorf("one of -bench or -blif is required")
	}

	lib := techmap.DefaultLibrary()
	cfg := core.Config{
		K: k, M: m, Metric: metric, Threshold: threshold, Samples: samples,
		Seed: seed, Weighted: weighted, Semiring: sr, Lib: lib,
		ExploreFully: full, MaxSteps: maxSteps, Sequence: seq, Lazy: lazy,
		Workers: workers,
	}
	if resumePath != "" {
		st, err := readCheckpointFile(resumePath)
		if err != nil {
			return err
		}
		if st != nil {
			cfg.Resume = st
			fmt.Printf("resuming from %s (step %d)\n", resumePath, st.Step)
		} else if verbose {
			fmt.Printf("no checkpoint at %s; starting fresh\n", resumePath)
		}
	}
	if ckptPath != "" {
		cfg.Checkpoint = func(st core.ExplorerState) {
			if err := writeCheckpointFile(ckptPath, &st); err != nil {
				slog.Warn("blasys: write checkpoint", "path", ckptPath, "err", err)
			}
		}
	}

	start := time.Now()
	accurate, err := techmap.Map(logic.ReorderDFS(circ), lib)
	if err != nil {
		return err
	}
	accMet := accurate.Metrics(1<<14, seed)
	fmt.Printf("accurate  %-8s in/out %d/%d  gates %d  area %.1f um^2  power %.1f uW  delay %.3f ns\n",
		circ.Name, circ.NumInputs(), circ.NumOutputs(), circ.NumGates(),
		accMet.Area, accMet.Power, accMet.Delay)

	ctx := context.Background()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	res, err := core.ApproximateCtx(ctx, circ, spec, cfg)
	if errors.Is(err, context.DeadlineExceeded) {
		if ckptPath != "" {
			return fmt.Errorf("deadline %s exceeded; best-so-far state is in %s (resume with -resume %s, or raise -deadline)",
				deadline, ckptPath, ckptPath)
		}
		return fmt.Errorf("deadline %s exceeded (pass -checkpoint to keep the best-so-far state next time)", deadline)
	}
	if err != nil {
		return err
	}
	if verbose {
		fmt.Printf("decomposed into %d blocks; profiled in %v\n", len(res.Profiles), time.Since(start))
		for i, s := range res.Steps {
			fmt.Printf("  step %3d: block %3d -> f=%d  %s=%.5f  model-area %.1f\n",
				i, s.BlockIndex, s.NewDegree, metric, s.Report.Value(metric), s.ModelArea)
		}
	}
	fmt.Printf("explored %d steps in %v (best step %d)\n", len(res.Steps), time.Since(start), res.BestStep)

	met, rep, err := res.FinalMetrics(res.BestStep, finalSamples)
	if err != nil {
		return err
	}
	fmt.Printf("approx    %-8s %s=%.5f (%d samples)  area %.1f (-%.1f%%)  power %.1f (-%.1f%%)  delay %.3f (-%.1f%%)\n",
		circ.Name, metric, rep.Value(metric), rep.Samples,
		met.Area, savings(accMet.Area, met.Area),
		met.Power, savings(accMet.Power, met.Power),
		met.Delay, savings(accMet.Delay, met.Delay))

	if tracePath != "" {
		if err := writeTrace(tracePath, res); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", tracePath)
	}
	if frontierPath != "" {
		if err := writeFrontier(frontierPath, res); err != nil {
			return err
		}
		if f := res.Frontier; f != nil {
			fmt.Printf("frontier written to %s (%d evaluated points, %d on the front)\n",
				frontierPath, f.Size(), len(f.Front()))
		}
	}
	if outPath != "" {
		best, err := res.BestCircuit()
		if err != nil {
			return err
		}
		if err := writeNetlist(outPath, best); err != nil {
			return err
		}
		fmt.Printf("netlist written to %s\n", outPath)
	}
	return nil
}

func savings(accurate, approx float64) float64 {
	if accurate == 0 {
		return 0
	}
	return 100 * (accurate - approx) / accurate
}

func writeTrace(path string, res *core.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "step,block,degree,norm_model_area,avg_rel,avg_abs,norm_avg_abs,mean_hamming")
	for _, p := range res.Trace() {
		fmt.Fprintf(f, "%d,%d,%d,%.6f,%.6g,%.6g,%.6g,%.6g\n",
			p.Step, p.BlockIndex, p.NewDegree, p.NormModelArea,
			p.AvgRel, p.AvgAbs, p.NormAvgAbs, p.MeanHamming)
	}
	return nil
}

// writeFrontier dumps every evaluated (error, area) point and the
// non-dominated set: JSON for a .json suffix, CSV otherwise (the on_front
// column marks non-dominated rows).
func writeFrontier(path string, res *core.Result) error {
	fr := res.Frontier
	if fr == nil {
		return fmt.Errorf("no frontier recorded (exploration did not run)")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Evaluated int                  `json:"evaluated"`
			Front     []core.FrontierPoint `json:"front"`
			Points    []core.FrontierPoint `json:"points"`
		}{fr.Size(), fr.Front(), fr.Points()})
	}
	return fr.WriteCSV(f, true)
}

// readCheckpointFile loads a -resume state; a missing file is not an error
// (the run simply starts fresh), so kill/restart loops need no bootstrap
// special case.
func readCheckpointFile(path string) (*core.ExplorerState, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.ReadExplorerState(f)
}

// writeCheckpointFile atomically replaces the checkpoint file (fsynced
// temp + rename), so an interrupted write — even a power cut — leaves
// either the previous or the new state intact.
func writeCheckpointFile(path string, st *core.ExplorerState) error {
	return store.WriteFileAtomic(path, true, func(w io.Writer) error {
		_, err := st.WriteTo(w)
		return err
	})
}

func writeNetlist(path string, c *logic.Circuit) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".blif") {
		return blif.Write(f, c)
	}
	return verilog.Write(f, c)
}
