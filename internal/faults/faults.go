// Package faults is a deterministic, seed-driven fault-injection framework
// for the durability layer: named fault points (Ops) fire rules that delay,
// fail, or tear I/O operations so tests and chaos drills can prove the
// service survives a hostile disk.
//
// The design goal is zero cost on the clean path: every consumer holds a
// *Injector pointer that is nil in production, and Fire on a nil receiver is
// a single nil check. A passivity test in the engine pins this — attaching
// an empty injector must not change any result byte.
//
// Rules are deterministic: counting rules (After/Times) depend only on the
// sequence of Fire calls for their op, and probabilistic rules draw from a
// rand.Rand seeded at injector construction, so the same seed and the same
// op sequence reproduce the same fault schedule. (Under concurrency the op
// interleaving itself may vary; the layers under test are required to
// produce identical results regardless, which is exactly the invariant the
// chaos suite asserts.)
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Op names one fault point in the store's I/O surface.
type Op string

// Fault points threaded through internal/store.
const (
	// OpJournalOpen guards opening (creating) a job's journal file.
	OpJournalOpen Op = "journal.open"
	// OpJournalAppend guards writing one journal record line.
	OpJournalAppend Op = "journal.append"
	// OpJournalSync guards the fsync forced by terminal records.
	OpJournalSync Op = "journal.sync"
	// OpCheckpointWrite guards the atomic checkpoint replace.
	OpCheckpointWrite Op = "checkpoint.write"
	// OpCacheRead guards loading one disk-cache entry.
	OpCacheRead Op = "cache.read"
	// OpCacheWrite guards persisting one disk-cache entry.
	OpCacheWrite Op = "cache.write"
	// OpProbe guards the store's writability probe (readiness checks and the
	// circuit breaker's half-open probe both pass through it).
	OpProbe Op = "probe"
)

// knownOps validates ParseSchedule input.
var knownOps = map[Op]bool{
	OpJournalOpen: true, OpJournalAppend: true, OpJournalSync: true,
	OpCheckpointWrite: true, OpCacheRead: true, OpCacheWrite: true,
	OpProbe: true,
}

// Injected error kinds. These are the package's own sentinels (not syscall
// errnos) so consumers stay portable; ErrNoSpace stands in for ENOSPC.
var (
	ErrInjectedIO = errors.New("injected I/O error")
	ErrNoSpace    = errors.New("injected disk full (no space left on device)")
	errTorn       = errors.New("injected torn write")
)

// IsTorn reports whether err carries the torn-write marker: the injected
// failure happened mid-write, and the caller should simulate a partial write
// (a truncated record) before surfacing the error.
func IsTorn(err error) bool { return errors.Is(err, errTorn) }

// IsInjected reports whether err originated from an injector (any kind).
func IsInjected(err error) bool {
	return errors.Is(err, ErrInjectedIO) || errors.Is(err, ErrNoSpace) || errors.Is(err, errTorn)
}

// A Rule arms one fault point. The zero value of the optional fields means
// "fire on every matching call with ErrInjectedIO": counting fields narrow
// the window, Prob makes firing probabilistic (seeded), Latency delays the
// op (with or without an error), and Torn marks the failure as a partial
// write.
type Rule struct {
	// Op selects the fault point.
	Op Op `json:"op"`
	// After skips the first After matching calls before the rule can fire.
	After int `json:"after,omitempty"`
	// Times bounds how many calls fire; 0 = unbounded.
	Times int `json:"times,omitempty"`
	// Prob fires each eligible call with this probability (0 or >= 1 fire
	// always), drawn from the injector's seeded source.
	Prob float64 `json:"prob,omitempty"`
	// Latency delays the op before any error is surfaced.
	Latency time.Duration `json:"latency,omitempty"`
	// Err is the injected error; nil with a Latency makes a slow-disk rule,
	// nil without one defaults to ErrInjectedIO.
	Err error `json:"-"`
	// Torn marks the injected failure as a partial write.
	Torn bool `json:"torn,omitempty"`
}

// fault resolves the error a firing rule surfaces (nil for latency-only).
func (r Rule) fault() error {
	err := r.Err
	if err == nil && (r.Latency > 0 && !r.Torn) {
		return nil // pure slow-disk rule
	}
	if err == nil {
		err = ErrInjectedIO
	}
	if r.Torn {
		return fmt.Errorf("faults: %s: %w: %w", r.Op, errTorn, err)
	}
	return fmt.Errorf("faults: %s: %w", r.Op, err)
}

// ruleState tracks one armed rule's counters.
type ruleState struct {
	Rule
	seen  int // matching Fire calls observed
	fired int // calls that actually injected
}

// RuleStatus is the introspectable state of one armed rule (for the
// /debug/faults control surface).
type RuleStatus struct {
	Op        Op      `json:"op"`
	After     int     `json:"after,omitempty"`
	Times     int     `json:"times,omitempty"`
	Prob      float64 `json:"prob,omitempty"`
	LatencyMS int64   `json:"latency_ms,omitempty"`
	Error     string  `json:"error,omitempty"`
	Torn      bool    `json:"torn,omitempty"`
	Seen      int     `json:"seen"`
	Fired     int     `json:"fired"`
}

// Injector holds an armed fault schedule. All methods are safe for
// concurrent use; the nil *Injector is the inert production value — Fire on
// it is a nil check and nothing else.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []*ruleState
}

// New returns an injector whose probabilistic rules draw from a source
// seeded with seed (making a given schedule reproducible).
func New(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Add arms rules on top of the current schedule and returns the injector
// for chaining.
func (in *Injector) Add(rules ...Rule) *Injector {
	in.mu.Lock()
	for _, r := range rules {
		rc := r
		in.rules = append(in.rules, &ruleState{Rule: rc})
	}
	in.mu.Unlock()
	return in
}

// Clear disarms every rule.
func (in *Injector) Clear() {
	in.mu.Lock()
	in.rules = in.rules[:0]
	in.mu.Unlock()
}

// Snapshot reports every armed rule with its counters.
func (in *Injector) Snapshot() []RuleStatus {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]RuleStatus, 0, len(in.rules))
	for _, r := range in.rules {
		st := RuleStatus{
			Op: r.Op, After: r.After, Times: r.Times, Prob: r.Prob,
			LatencyMS: r.Latency.Milliseconds(), Torn: r.Torn,
			Seen: r.seen, Fired: r.fired,
		}
		if r.Err != nil {
			st.Error = r.Err.Error()
		} else if r.Latency == 0 || r.Torn {
			st.Error = ErrInjectedIO.Error()
		}
		out = append(out, st)
	}
	return out
}

// Fire evaluates the schedule at one fault point. It sleeps the accumulated
// latency of every firing rule, then returns the first firing rule's error
// (nil when no rule injects a failure). On a nil receiver it returns nil
// immediately — the production clean path.
func (in *Injector) Fire(op Op) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	var (
		latency time.Duration
		err     error
	)
	for _, r := range in.rules {
		if r.Op != op {
			continue
		}
		r.seen++
		if r.seen <= r.After {
			continue
		}
		if r.Times > 0 && r.fired >= r.Times {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && in.rng.Float64() >= r.Prob {
			continue
		}
		r.fired++
		latency += r.Latency
		if err == nil {
			err = r.fault()
		}
	}
	in.mu.Unlock()
	if latency > 0 {
		time.Sleep(latency)
	}
	return err
}

// errNames maps schedule-spec error kinds to sentinels.
var errNames = map[string]error{
	"eio":    ErrInjectedIO,
	"enospc": ErrNoSpace,
}

// ParseSchedule parses a textual fault schedule, the wire form used by the
// -faults flag and the /debug/faults endpoint:
//
//	rule (";" rule)*
//	rule = op [":" kv ("," kv)*]
//	kv   = "after=" N | "times=" N | "prob=" F | "latency=" DURATION
//	     | "err=" ("eio" | "enospc") | "torn"
//
// An op with no options fails every call with ErrInjectedIO. Example:
//
//	journal.append:after=2,times=3,err=eio;checkpoint.write:err=enospc;cache.write:latency=5ms
func ParseSchedule(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		opText, opts, _ := strings.Cut(part, ":")
		op := Op(strings.TrimSpace(opText))
		if !knownOps[op] {
			return nil, fmt.Errorf("faults: unknown op %q in schedule", opText)
		}
		r := Rule{Op: op}
		if opts != "" {
			for _, kv := range strings.Split(opts, ",") {
				kv = strings.TrimSpace(kv)
				if kv == "" {
					continue
				}
				key, val, hasVal := strings.Cut(kv, "=")
				var err error
				switch key {
				case "after":
					r.After, err = strconv.Atoi(val)
				case "times":
					r.Times, err = strconv.Atoi(val)
				case "prob":
					r.Prob, err = strconv.ParseFloat(val, 64)
				case "latency":
					r.Latency, err = time.ParseDuration(val)
				case "err":
					sentinel, ok := errNames[val]
					if !ok {
						return nil, fmt.Errorf("faults: unknown err kind %q (known: eio, enospc)", val)
					}
					r.Err = sentinel
				case "torn":
					if hasVal && val != "true" {
						return nil, fmt.Errorf("faults: torn takes no value (got %q)", val)
					}
					r.Torn = true
				default:
					return nil, fmt.Errorf("faults: unknown option %q in schedule", key)
				}
				if err != nil {
					return nil, fmt.Errorf("faults: bad %s value %q: %v", key, val, err)
				}
			}
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, errors.New("faults: empty schedule")
	}
	return rules, nil
}
