package main

import (
	"fmt"
	"sync"

	"github.com/blasys-go/blasys/internal/techmap"
)

// powerSamples and powerSeed fix the switching-activity simulation behind
// power_ratio, so the ratio is a pure function of the two netlists.
const (
	powerSamples = 1 << 12
	powerSeed    = 1
)

// execute runs the workload, checks every result and assembles the report.
func execute(o runOptions) (*report, error) {
	jobs := jobList(o.w, o.seed, o.w.rounds(o.budget))
	var (
		rr  *runResult
		err error
	)
	if o.w.service {
		rr, err = runService(o, jobs)
	} else {
		rr, err = runLibrary(o, jobs)
	}
	if err != nil {
		return nil, err
	}

	checks := verifyAll(o.w, rr)
	rep := &report{correct: true, attempted: len(rr.outcomes)}
	var walls []float64
	verified := 0
	for i, oc := range rr.outcomes {
		status := "ok"
		switch {
		case oc.err != nil:
			rep.failed++
			status = "FAILED: " + oc.err.Error()
		case checks[i] != nil:
			rep.correct = false
			status = "WRONG: " + checks[i].Error()
		default:
			verified++
		}
		if oc.err == nil {
			walls = append(walls, oc.wall.Seconds())
		}
		fmt.Printf("%s wall=%.3fs hash=%.16s %s\n", oc.job, oc.wall.Seconds(), oc.hash, status)
	}
	completed := len(walls)
	if completed == 0 {
		return nil, fmt.Errorf("no job completed (%d attempted)", rep.attempted)
	}
	fmt.Printf("jobs: %d attempted, %d completed, %d failed\n", rep.attempted, completed, rep.failed)

	if o.traced {
		if rep.metrics, rep.spans, err = tracedMetrics(o, rr); err != nil {
			return nil, err
		}
		return rep, nil
	}

	area, power, err := qualityRatios(rr)
	if err != nil {
		return nil, err
	}
	rep.metrics = []namedMetric{
		{"jobs_per_s", metric{float64(completed) / rr.window.Seconds(), "1/s"}},
		{"job_s_geomean", metric{geomean(walls), "s"}},
		{"job_s_p50", metric{median(walls), "s"}},
		{"cpu_s_per_job", metric{rr.cpu.Seconds() / float64(completed), "s"}},
		{"area_ratio", metric{area, "ratio"}},
		{"power_ratio", metric{power, "ratio"}},
		{"verified_share", metric{float64(verified) / float64(completed), "share"}},
		{"peak_rss_mb", metric{rr.peakMB, "MB"}},
		{"setup_s", metric{median(seconds(rr.setups)), "s"}},
	}
	// failed_share is zero whenever the program works, which a bounded
	// regression metric cannot be; it is printed but not part of the JSON.
	rep.extra = []namedMetric{
		{"failed_share", metric{float64(rep.failed) / float64(rep.attempted), "share"}},
		{"jobs", metric{float64(completed), "count"}},
	}
	return rep, nil
}

// verifyAll checks every completed job's result with the independent
// evaluator, two jobs at a time; the returned slice is parallel to
// rr.outcomes (nil = passed or not checked because the job failed).
func verifyAll(w workload, rr *runResult) []error {
	errs := make([]error, len(rr.outcomes))
	work := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				oc := rr.outcomes[i]
				cs := newCheckSpec(rr.inputs[oc.job.circuit], w.samples, threshold, oc.job.seed^0x5eed)
				if _, err := verify(cs, oc.best); err != nil {
					errs[i] = err
				}
			}
		}()
	}
	for i, oc := range rr.outcomes {
		if oc.err == nil {
			work <- i
		}
	}
	close(work)
	wg.Wait()
	return errs
}

// qualityRatios is the geometric mean, over the completed jobs, of the
// chosen circuit's mapped area and power divided by the accurate circuit's.
func qualityRatios(rr *runResult) (area, power float64, err error) {
	lib := techmap.DefaultLibrary()
	accurate := map[string]techmap.Metrics{}
	var areas, powers []float64
	for _, oc := range rr.outcomes {
		if oc.err != nil {
			continue
		}
		acc, ok := accurate[oc.job.circuit]
		if !ok {
			m, err := techmap.Map(rr.inputs[oc.job.circuit].Circ, lib)
			if err != nil {
				return 0, 0, err
			}
			acc = m.Metrics(powerSamples, powerSeed)
			accurate[oc.job.circuit] = acc
		}
		m, err := techmap.Map(oc.best, lib)
		if err != nil {
			return 0, 0, err
		}
		got := m.Metrics(powerSamples, powerSeed)
		areas = append(areas, got.Area/acc.Area)
		powers = append(powers, got.Power/acc.Power)
	}
	return geomean(areas), geomean(powers), nil
}
