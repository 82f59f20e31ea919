package core

import (
	"bytes"
	"reflect"
	"testing"

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

// TestWorkersExcludedFromDigest pins that Workers, a pure scheduling knob,
// does not change the checkpoint config digest — a run checkpointed at one
// worker count must resume at any other.
func TestWorkersExcludedFromDigest(t *testing.T) {
	base := Config{K: 6, M: 4, Samples: 1 << 10, Seed: 17}.withDefaults()
	wide := base
	wide.Workers = 9
	if configDigest(base) != configDigest(wide) {
		t.Fatal("Workers changed the config digest; scheduling knobs must not")
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

// TestLazyResumeAcrossParallelismIsRejected: the lazy stale-refresh batch
// cap is Parallelism, which shapes the trajectory, so the digest must pin it
// for lazy runs (and must NOT pin it for exhaustive runs, where any
// parallelism yields identical results).
func TestLazyResumeAcrossParallelismIsRejected(t *testing.T) {
	cfg := quickCfg()
	cfg.Lazy = true
	cfg.Parallelism = 2
	_, states := runWithCheckpoints(t, cfg)

	circ := arrayMult(3)
	spec := qor.Unsigned("p", len(circ.Outputs))
	bad := cfg
	bad.Checkpoint = nil
	bad.Parallelism = 1
	bad.Resume = &states[0]
	if _, err := Approximate(circ, spec, bad); err == nil {
		t.Fatal("lazy resume under a different Parallelism was not rejected")
	}

	ex := quickCfg()
	ex.Parallelism = 2
	_, exStates := runWithCheckpoints(t, ex)
	ok := ex
	ok.Checkpoint = nil
	ok.Parallelism = 1
	ok.Resume = &exStates[0]
	if _, err := Approximate(circ, spec, ok); err != nil {
		t.Fatalf("exhaustive resume under a different Parallelism was rejected: %v", err)
	}
}
