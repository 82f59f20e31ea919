package core

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/qor"
)

// runWithCheckpoints runs the full flow capturing the state after every
// committed step.
func runWithCheckpoints(t *testing.T, cfg Config) (*Result, []ExplorerState) {
	t.Helper()
	circ := arrayMult(3)
	spec := qor.Unsigned("p", len(circ.Outputs))
	var states []ExplorerState
	cfg.Checkpoint = func(st ExplorerState) { states = append(states, st) }
	res, err := Approximate(circ, spec, cfg)
	if err != nil {
		t.Fatalf("Approximate: %v", err)
	}
	return res, states
}

// assertSameRun asserts the resumed run reproduced the uninterrupted run's
// trajectory, frontier, and selection bit for bit.
func assertSameRun(t *testing.T, full, resumed *Result, k int) {
	t.Helper()
	if !reflect.DeepEqual(full.Steps, resumed.Steps) {
		t.Fatalf("resume at step %d: committed trajectory diverged\nfull:    %+v\nresumed: %+v", k, full.Steps, resumed.Steps)
	}
	if !reflect.DeepEqual(full.Frontier.Points(), resumed.Frontier.Points()) {
		t.Fatalf("resume at step %d: frontier points diverged", k)
	}
	if !reflect.DeepEqual(full.Frontier.Front(), resumed.Frontier.Front()) {
		t.Fatalf("resume at step %d: non-dominated set diverged", k)
	}
	if full.BestStep != resumed.BestStep {
		t.Fatalf("resume at step %d: BestStep %d != %d", k, resumed.BestStep, full.BestStep)
	}
}

// TestCheckpointResumeDeterminism is the core durability invariant: resuming
// from the checkpoint taken after step k produces exactly the run an
// uninterrupted exploration produces, for every k, in both exploration modes.
func TestCheckpointResumeDeterminism(t *testing.T) {
	for _, mode := range []struct {
		name string
		lazy bool
	}{{"exhaustive", false}, {"lazy", true}} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := quickCfg()
			cfg.Lazy = mode.lazy
			full, states := runWithCheckpoints(t, cfg)
			if len(states) != len(full.Steps) {
				t.Fatalf("expected one checkpoint per committed step: %d checkpoints, %d steps", len(states), len(full.Steps))
			}
			if len(states) < 3 {
				t.Fatalf("exploration too short (%d steps) to exercise resume", len(states))
			}
			for k := range states {
				st := states[k]
				// Round-trip through the serialized form so the test covers
				// what a restarted process actually reads back.
				var buf bytes.Buffer
				if _, err := st.WriteTo(&buf); err != nil {
					t.Fatalf("serialize state %d: %v", k, err)
				}
				restored, err := ReadExplorerState(&buf)
				if err != nil {
					t.Fatalf("parse state %d: %v", k, err)
				}
				rcfg := quickCfg()
				rcfg.Lazy = mode.lazy
				rcfg.Resume = restored
				circ := arrayMult(3)
				resumed, err := Approximate(circ, qor.Unsigned("p", len(circ.Outputs)), rcfg)
				if err != nil {
					t.Fatalf("resume at step %d: %v", k, err)
				}
				assertSameRun(t, full, resumed, k)
			}
		})
	}
}

// TestResumeAtTerminalStepStops: a checkpoint taken at the step that crossed
// the threshold must not walk further when resumed.
func TestResumeAtTerminalStepStops(t *testing.T) {
	cfg := quickCfg()
	cfg.ExploreFully = false
	cfg.MaxSteps = 0
	cfg.Threshold = 0.02
	full, states := runWithCheckpoints(t, cfg)
	if len(states) == 0 {
		t.Fatal("no checkpoints recorded")
	}
	last := states[len(states)-1]
	rcfg := cfg
	rcfg.Checkpoint = nil
	rcfg.Resume = &last
	circ := arrayMult(3)
	resumed, err := Approximate(circ, qor.Unsigned("p", len(circ.Outputs)), rcfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	assertSameRun(t, full, resumed, len(states)-1)
}

func TestResumeRejectsMismatchedConfig(t *testing.T) {
	cfg := quickCfg()
	_, states := runWithCheckpoints(t, cfg)
	st := states[0]

	bad := quickCfg()
	bad.Seed = cfg.Seed + 1 // different sample stream -> different walk
	bad.Resume = &st
	circ := arrayMult(3)
	if _, err := Approximate(circ, qor.Unsigned("p", len(circ.Outputs)), bad); err == nil {
		t.Fatal("resume with a different seed was not rejected")
	}

	lazyMismatch := quickCfg()
	lazyMismatch.Lazy = true
	lazyMismatch.Resume = &st
	if _, err := Approximate(circ, qor.Unsigned("p", len(circ.Outputs)), lazyMismatch); err == nil {
		t.Fatal("resume of an exhaustive checkpoint under Lazy was not rejected")
	}
}

// TestWorkersExcludedFromDigest pins that Workers and Parallelism, pure
// scheduling knobs for both explorers, do not change the checkpoint config
// digest — a run checkpointed at one setting must resume at any other.
func TestWorkersExcludedFromDigest(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		base := Config{K: 6, M: 4, Samples: 1 << 10, Seed: 17, Lazy: lazy}.withDefaults()
		wide := base
		wide.Workers, wide.Parallelism = 9, base.Parallelism+3
		if configDigest(base) != configDigest(wide) {
			t.Fatalf("lazy=%t: Workers or Parallelism changed the config digest; scheduling knobs must not", lazy)
		}
	}
}

func TestExplorerStateValidate(t *testing.T) {
	st := &ExplorerState{Step: 2, Steps: []Step{{BlockIndex: 0, NewDegree: 1}}}
	if err := st.Validate(); err == nil {
		t.Fatal("step/steps mismatch not rejected")
	}
	st = &ExplorerState{
		Step:    1,
		Degrees: []int{2},
		Steps:   []Step{{BlockIndex: 5, NewDegree: 1}},
	}
	if err := st.Validate(); err == nil {
		t.Fatal("out-of-range block index not rejected")
	}
	var nilState *ExplorerState
	if err := nilState.Validate(); err == nil {
		t.Fatal("nil state not rejected")
	}
	// Corrupt lazy candidates must be rejected, not panic the resume.
	st = &ExplorerState{
		Degrees: []int{2, 3},
		Lazy:    &LazyExplorerState{Candidates: []LazyCandidate{{BlockIndex: 99, PointIndex: -1}}},
	}
	if err := st.Validate(); err == nil {
		t.Fatal("out-of-range lazy candidate block not rejected")
	}
	st = &ExplorerState{
		Degrees: []int{2, 3},
		Lazy:    &LazyExplorerState{Candidates: []LazyCandidate{{BlockIndex: 0, PointIndex: 7}}},
	}
	if err := st.Validate(); err == nil {
		t.Fatal("out-of-range lazy candidate frontier point not rejected")
	}
}

// TestResumeRejectsDifferentCircuit: a checkpoint carries a structural
// fingerprint of its circuit; resuming it against any other circuit must
// fail loudly, not splice the walks.
func TestResumeRejectsDifferentCircuit(t *testing.T) {
	cfg := quickCfg()
	_, states := runWithCheckpoints(t, cfg) // walks arrayMult(3)
	st := states[len(states)-1]

	other := rippleAdder(8)
	rcfg := quickCfg()
	rcfg.Resume = &st
	if _, err := Approximate(other, qor.Unsigned("s", len(other.Outputs)), rcfg); err == nil {
		t.Fatal("resume against a different circuit was not rejected")
	}

	// Tampered digest on the right circuit is rejected too; an empty digest
	// (older checkpoint) is accepted for compatibility.
	circ := arrayMult(3)
	spec := qor.Unsigned("p", len(circ.Outputs))
	bad := st
	bad.CircuitDigest = "deadbeef"
	bcfg := quickCfg()
	bcfg.Resume = &bad
	if _, err := Approximate(circ, spec, bcfg); err == nil {
		t.Fatal("tampered circuit digest was not rejected")
	}
	legacy := st
	legacy.CircuitDigest = ""
	lcfg := quickCfg()
	lcfg.Resume = &legacy
	if _, err := Approximate(circ, spec, lcfg); err != nil {
		t.Fatalf("legacy checkpoint without a circuit digest rejected: %v", err)
	}
}

// TestLazyResumeAcrossParallelism: no lazy result depends on Parallelism or
// Workers, so a lazy Mult8 walk checkpointed at one setting and resumed from
// several of its steps under others (through the serialized form) must
// reproduce the uninterrupted walk byte for byte: steps, frontier, best step
// and best circuit.
func TestLazyResumeAcrossParallelism(t *testing.T) {
	m := bench.Mult8()
	cache := bmf.NewMemoryCache()
	base := Config{Samples: 1 << 11, Seed: 1, Lazy: true, Cache: cache}
	cfg := base
	cfg.Parallelism, cfg.Workers = 2, 2
	var states []ExplorerState
	cfg.Checkpoint = func(st ExplorerState) { states = append(states, st) }
	full, err := Approximate(m.Circ, m.Spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) < 20 {
		t.Fatalf("walk too short (%d steps) to exercise resume", len(states))
	}
	for k := 0; k < len(states); k += 7 {
		for _, pw := range [][2]int{{1, 1}, {8, 8}, {4, 1}} {
			var buf bytes.Buffer
			if _, err := states[k].WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			st, err := ReadExplorerState(&buf)
			if err != nil {
				t.Fatal(err)
			}
			rcfg := base
			rcfg.Parallelism, rcfg.Workers, rcfg.Resume = pw[0], pw[1], st
			resumed, err := Approximate(m.Circ, m.Spec, rcfg)
			if err != nil {
				t.Fatalf("resume at step %d under parallelism/workers %d/%d: %v", k, pw[0], pw[1], err)
			}
			assertSameRun(t, full, resumed, k)
			if !bytes.Equal(resultBLIF(t, full), resultBLIF(t, resumed)) {
				t.Fatalf("resume at step %d under parallelism/workers %d/%d: best circuit differs", k, pw[0], pw[1])
			}
		}
	}
}
