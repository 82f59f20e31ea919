package core

import (
	"context"
	"errors"
	"testing"

	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/qor"
)

// adder4 builds a small ripple-carry adder for flow-level tests.
func adder4(t testing.TB) (*logic.Circuit, qor.OutputSpec) {
	t.Helper()
	b := logic.NewBuilder("adder4")
	x := b.Inputs("x", 4)
	y := b.Inputs("y", 4)
	carry := b.Const(false)
	var sums []logic.NodeID
	for i := 0; i < 4; i++ {
		axb := b.Xor(x[i], y[i])
		sums = append(sums, b.Xor(axb, carry))
		carry = b.Or(b.And(x[i], y[i]), b.And(axb, carry))
	}
	sums = append(sums, carry)
	b.Outputs("s", sums)
	return b.C, qor.Unsigned("s", 5)
}

func TestApproximateCtxCancelledUpFront(t *testing.T) {
	circ, spec := adder4(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ApproximateCtx(ctx, circ, spec, Config{Samples: 1 << 8, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestApproximateCtxCancelMidExploration(t *testing.T) {
	circ, spec := adder4(t)
	ctx, cancel := context.WithCancel(context.Background())
	steps := 0
	_, err := ApproximateCtx(ctx, circ, spec, Config{
		K: 4, M: 3, Samples: 1 << 8, Seed: 1, ExploreFully: true,
		Checkpoint: func(ExplorerState) {
			steps++
			if steps == 1 {
				cancel() // cancel after the first committed step
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if steps == 0 {
		t.Fatal("checkpoint hook never fired before cancellation")
	}
}

// TestProgressStreamMatchesTrace pins that the checkpoint hook streams the
// walk's progress: each state's trace ends with the step just committed.
func TestProgressStreamMatchesTrace(t *testing.T) {
	circ, spec := adder4(t)
	var streamed []TracePoint
	cfg := Config{
		K: 4, M: 3, Samples: 1 << 8, Seed: 1, ExploreFully: true, MaxSteps: 6,
		Checkpoint: func(st ExplorerState) {
			pts := st.TracePoints()
			streamed = append(streamed, pts[len(pts)-1])
		},
	}
	res, err := Approximate(circ, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(res.Steps) {
		t.Fatalf("streamed %d points for %d steps", len(streamed), len(res.Steps))
	}
	for i, p := range res.Trace()[1:] {
		if streamed[i] != p {
			t.Fatalf("streamed point %d = %+v, want %+v", i, streamed[i], p)
		}
	}
	// Lazy exploration must stream too.
	streamed = nil
	lazyCfg := cfg
	lazyCfg.Lazy = true
	lres, err := Approximate(circ, spec, lazyCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(lres.Steps) || len(streamed) == 0 {
		t.Fatalf("lazy streamed %d points for %d steps", len(streamed), len(lres.Steps))
	}
}

func TestCacheSharedAcrossRuns(t *testing.T) {
	circ, spec := adder4(t)
	cache := bmf.NewMemoryCache()
	cfg := Config{K: 4, M: 3, Samples: 1 << 8, Seed: 1, Cache: cache}
	cold, err := Approximate(circ, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("cold run should populate the cache, stats %+v", st)
	}
	warm, err := Approximate(circ, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st2 := cache.Stats()
	if st2.Hits <= st.Hits {
		t.Fatalf("warm run should hit the cache, stats %+v -> %+v", st, st2)
	}
	if st2.Misses != st.Misses {
		t.Fatalf("warm run re-factorized: misses %d -> %d", st.Misses, st2.Misses)
	}
	// Cached factorizations must not change the outcome.
	if len(cold.Steps) != len(warm.Steps) || cold.BestStep != warm.BestStep {
		t.Fatalf("cache changed the flow: %d/%d steps, best %d/%d",
			len(cold.Steps), len(warm.Steps), cold.BestStep, warm.BestStep)
	}
}
