package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/blasys-go/blasys"
	"github.com/blasys-go/blasys/internal/store"
	"github.com/blasys-go/blasys/internal/techmap"
	"github.com/blasys-go/blasys/internal/telemetry"
)

// layers are the modules the traced run attributes time to; a span's layer
// is its name up to the first dot.
var layers = []string{"partition", "bmf", "synth", "techmap", "qor", "store"}

// spanLimit bounds the traced run's timeline; the replayed rounds of every
// workload stay far below it.
const spanLimit = 1 << 22

// tracedMetrics replays the first rounds' jobs layer by layer and derives
// the per-layer metrics. A replay that departs from the untraced run fails
// the gate: the error is returned and no numbers are emitted.
func tracedMetrics(o runOptions, rr *runResult) ([]namedMetric, []telemetry.SpanRecord, error) {
	rp := &replayer{tl: telemetry.NewTimeline(spanLimit), lib: techmap.DefaultLibrary()}
	if o.w.service {
		// A fresh store, as the engine's: its tiered cache is shared by
		// every replayed job, and its journal and checkpoint calls are
		// replayed per job.
		st, err := store.Open(filepath.Join(o.tmp, "replay-store"))
		if err != nil {
			return nil, nil, err
		}
		defer st.Close()
		rp.st = st
		rp.cache = &spanCache{inner: st.TieredCache(), r: rp}
	}
	var (
		replayed          int
		replayWall, timed time.Duration
	)
	for _, oc := range rr.outcomes {
		if oc.res == nil {
			continue
		}
		b := rr.inputs[oc.job.circuit]
		j := replayJob{
			label: fmt.Sprintf("%s/seed=%d", oc.job.circuit, oc.job.seed),
			circ:  b.Circ,
			spec:  b.Spec,
			cfg:   o.w.config(b, oc.job.seed),
			res:   oc.res,
		}
		if o.w.service {
			// The engine ran the circuit it parsed from the submitted BLIF.
			circ, err := blasys.ReadBLIF(strings.NewReader(oc.blif))
			if err != nil {
				return nil, nil, err
			}
			j.circ, j.id, j.blif, j.hits, j.misses = circ, oc.id, oc.blif, oc.hits, oc.misses
		}
		t := time.Now()
		if err := rp.replay(j); err != nil {
			return nil, nil, fmt.Errorf("replay gate: %w", err)
		}
		replayWall += time.Since(t)
		timed += oc.wall
		replayed++
	}
	if replayed == 0 {
		return nil, nil, fmt.Errorf("replay gate: no job of the first %d rounds completed", replayRounds)
	}
	fmt.Printf("replay gate passed: %d jobs, %d steps and %d evaluations reproduced bit for bit\n",
		replayed, rp.counts.steps, rp.counts.evals)
	recs := rp.tl.Records()
	ms := layerMetrics(recs, rp.counts)
	ms = append(ms, serviceLayerMetrics(rr.outcomes)...)
	ms = append(ms, namedMetric{"trace.overhead_s", metric{(replayWall - timed).Seconds() / float64(replayed), "s"}})
	return ms, recs, nil
}

// layerMetrics attributes each span's self time (its duration minus its
// children's) to its layer.
func layerMetrics(recs []telemetry.SpanRecord, c replayCounts) []namedMetric {
	childTime := map[uint64]time.Duration{}
	for _, r := range recs {
		if r.Parent != 0 {
			childTime[r.Parent] += r.Duration()
		}
	}
	calls := map[string]int{}
	self := map[string]time.Duration{}
	layerBusy := map[string]time.Duration{}
	var wall, attributed time.Duration
	for _, r := range recs {
		s := r.Duration() - childTime[r.ID]
		calls[r.Name]++
		self[r.Name] += s
		if r.Parent == 0 {
			wall += r.Duration()
			continue
		}
		layer, _, _ := strings.Cut(r.Name, ".")
		layerBusy[layer] += s
		attributed += s
	}
	share := func(layer string) float64 {
		if attributed == 0 {
			return 0
		}
		return layerBusy[layer].Seconds() / attributed.Seconds()
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	evalBusy := self["qor.eval"]
	ms := []namedMetric{
		{"partition.blocks", metric{float64(c.blocks), "count"}},
		{"partition.busy_s", metric{layerBusy["partition"].Seconds(), "s"}},
		{"bmf.calls", metric{float64(calls["bmf.factorize"]), "count"}},
		{"bmf.busy_s", metric{layerBusy["bmf"].Seconds(), "s"}},
		{"synth.calls", metric{float64(calls["synth.approx_block"]), "count"}},
		{"synth.busy_s", metric{layerBusy["synth"].Seconds(), "s"}},
		{"synth.gates_out", metric{float64(c.gatesOut), "count"}},
		{"techmap.calls", metric{float64(calls["techmap.map"]), "count"}},
		{"techmap.busy_s", metric{layerBusy["techmap"].Seconds(), "s"}},
		{"qor.evals", metric{float64(calls["qor.eval"]), "count"}},
		{"qor.eval_busy_s", metric{evalBusy.Seconds(), "s"}},
		{"qor.eval_us_mean", metric{ratio(float64(evalBusy.Microseconds()), float64(calls["qor.eval"])), "us"}},
		{"qor.commit_busy_s", metric{self["qor.commit"].Seconds(), "s"}},
		{"qor.rebuild_busy_s", metric{self["qor.rebuild"].Seconds(), "s"}},
		{"qor.setup_s", metric{self["qor.setup"].Seconds(), "s"}},
		{"qor.busy_s", metric{layerBusy["qor"].Seconds(), "s"}},
		{"core.steps", metric{float64(c.steps), "count"}},
		{"core.commit_ratio", metric{ratio(float64(c.steps), float64(c.evals)), "ratio"}},
		{"core.variants_profiled", metric{float64(c.variants), "count"}},
		{"core.variants_reached_ratio", metric{ratio(float64(c.reached), float64(c.variants)), "ratio"}},
		{"store.checkpoint_writes", metric{float64(calls["store.checkpoint"]), "count"}},
		{"store.checkpoint_mb", metric{float64(c.checkpointBytes) / (1 << 20), "MB"}},
		{"store.checkpoint_busy_s", metric{self["store.checkpoint"].Seconds(), "s"}},
		{"store.journal_appends", metric{float64(calls["store.journal"]), "count"}},
		{"store.journal_busy_s", metric{self["store.journal"].Seconds(), "s"}},
		{"store.busy_s", metric{layerBusy["store"].Seconds(), "s"}},
	}
	for _, l := range layers {
		ms = append(ms, namedMetric{l + ".share", metric{share(l), "share"}})
	}
	ms = append(ms,
		namedMetric{"trace.attributed_share", metric{ratio(attributed.Seconds(), wall.Seconds()), "share"}},
		namedMetric{"trace.spans", metric{float64(len(recs)), "count"}},
	)
	busiest := ""
	for _, l := range layers {
		if busiest == "" || layerBusy[l] > layerBusy[busiest] {
			busiest = l
		}
	}
	fmt.Printf("busiest layer: %s (%.1f%% of attributed busy time)\n", busiest, 100*share(busiest))
	return ms
}

// serviceLayerMetrics are the engine and server numbers of the traced
// run's workload pass, from client timestamps and job status. They are
// zero on the library workloads, which have neither layer.
func serviceLayerMetrics(outcomes []*outcome) []namedMetric {
	var queue, run, submit, notify, download []float64
	var hits, lookups uint64
	for _, oc := range outcomes {
		if oc.err != nil || oc.id == "" {
			continue
		}
		queue = append(queue, oc.queueWait.Seconds())
		run = append(run, oc.runTime.Seconds())
		submit = append(submit, oc.submit.Seconds())
		notify = append(notify, oc.notifyLag.Seconds())
		download = append(download, oc.download.Seconds())
		hits += oc.hits
		lookups += oc.hits + oc.misses
	}
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(hits) / float64(lookups)
	}
	return []namedMetric{
		{"engine.queue_wait_s_p50", metric{median(queue), "s"}},
		{"engine.run_s_p50", metric{median(run), "s"}},
		{"engine.cache_hit_ratio", metric{hitRatio, "ratio"}},
		{"server.submit_s_p50", metric{median(submit), "s"}},
		{"server.notify_lag_s_p50", metric{median(notify), "s"}},
		{"server.download_s_p50", metric{median(download), "s"}},
	}
}

// exportSpans writes the traced run's spans as JSON records and as folded
// stacks (telemetry.WriteFolded), and returns the two paths.
func exportSpans(dir, prefix string, recs []telemetry.SpanRecord) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	jsonPath := filepath.Join(dir, prefix+".spans.json")
	foldedPath := filepath.Join(dir, prefix+".folded")
	write := func(path string, fn func(w *bufio.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		if err := fn(w); err != nil {
			f.Close()
			return err
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(jsonPath, func(w *bufio.Writer) error { return json.NewEncoder(w).Encode(recs) }); err != nil {
		return nil, err
	}
	if err := write(foldedPath, func(w *bufio.Writer) error { telemetry.WriteFolded(w, recs); return nil }); err != nil {
		return nil, err
	}
	return []string{jsonPath, foldedPath}, nil
}
