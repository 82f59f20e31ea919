package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"time"

	"github.com/blasys-go/blasys/internal/core"
)

// Position is how far an exploration state reaches: its committed step count
// and its frontier length. Both only grow along a walk, and the step count
// fixes the frontier length, so a step record is placed by the position it
// extends. The zero Position is the empty state.
type Position struct {
	Step     int `json:"step"`
	Frontier int `json:"frontier"`
}

// PositionOf returns the position st has reached (zero for nil).
func PositionOf(st *core.ExplorerState) Position {
	if st == nil {
		return Position{}
	}
	return Position{Step: len(st.Steps), Frontier: len(st.Frontier)}
}

// stepRecord is one line of a job's step log: the trajectory and frontier
// entries an exploration state gained past Base, plus the state's small
// fields whole.
type stepRecord struct {
	Base     Position             `json:"base"`
	Steps    []core.Step          `json:"steps"`
	Frontier []core.FrontierPoint `json:"frontier"`

	Degrees           []int                   `json:"degrees"`
	Lazy              *core.LazyExplorerState `json:"lazy,omitempty"`
	AccurateModelArea float64                 `json:"accurate_model_area"`
	Seed              int64                   `json:"seed"`
	Samples           int                     `json:"samples"`
	CircuitDigest     string                  `json:"circuit_digest"`
	ConfigDigest      string                  `json:"config_digest"`
}

// extend applies r to st when r starts at or before st's position and
// reaches past it. Any other record — a retried duplicate, one already
// covered, or one past a gap — leaves st as it is.
func (r *stepRecord) extend(st *core.ExplorerState) {
	at := PositionOf(st)
	if r.Base.Step < 0 || r.Base.Frontier < 0 || r.Base.Step > at.Step || r.Base.Frontier > at.Frontier ||
		at.Step-r.Base.Step >= len(r.Steps) || at.Frontier-r.Base.Frontier > len(r.Frontier) {
		return
	}
	st.Steps = append(st.Steps, r.Steps[at.Step-r.Base.Step:]...)
	st.Frontier = append(st.Frontier, r.Frontier[at.Frontier-r.Base.Frontier:]...)
	st.Step = len(st.Steps)
	st.Degrees = r.Degrees
	st.Lazy = r.Lazy
	st.AccurateModelArea = r.AccurateModelArea
	st.Seed, st.Samples = r.Seed, r.Samples
	st.CircuitDigest, st.ConfigDigest = r.CircuitDigest, r.ConfigDigest
}

// Checkpoint makes an exploration state durable: it appends one fsynced
// record to the job's step log holding what st adds past base — the
// position of the job's last durable checkpoint, or the zero Position to
// write the state whole. Replay folds the records back into the latest
// state. The append keeps the checkpoint's retry label and fault point, and
// blasys_store_checkpoint_write_seconds times encode, write and fsync
// together.
func (j *Journal) Checkpoint(st *core.ExplorerState, base Position) error {
	if at := PositionOf(st); base.Step < 0 || base.Frontier < 0 || base.Step > at.Step || base.Frontier > at.Frontier {
		return fmt.Errorf("store: checkpoint %s: base %+v is outside the state at %+v", j.id, base, at)
	}
	start := time.Now()
	line, err := stepLine(st, base)
	if err != nil {
		return fmt.Errorf("store: checkpoint %s: %w", j.id, err)
	}
	if err := j.steps.append(j.st, line, true); err != nil {
		return fmt.Errorf("store: checkpoint %s: %w", j.id, err)
	}
	mCheckpointWrite.Observe(time.Since(start).Seconds())
	return nil
}

// stepLine encodes the step-log line holding what st adds past base (which
// the caller has checked lies within st).
func stepLine(st *core.ExplorerState, base Position) ([]byte, error) {
	line, err := json.Marshal(&stepRecord{
		Base:              base,
		Steps:             st.Steps[base.Step:],
		Frontier:          st.Frontier[base.Frontier:],
		Degrees:           st.Degrees,
		Lazy:              st.Lazy,
		AccurateModelArea: st.AccurateModelArea,
		Seed:              st.Seed,
		Samples:           st.Samples,
		CircuitDigest:     st.CircuitDigest,
		ConfigDigest:      st.ConfigDigest,
	})
	return append(line, '\n'), err
}

// loadCheckpoint folds a job's durable exploration state: the snapshot, if
// there is one, then every step-log record that extends the state reached so
// far, in log order. Returns nil when the fold holds no step, and when it
// fails validation (the job then resumes from step 0).
func (s *Store) loadCheckpoint(id string) *core.ExplorerState {
	snap, err := s.ReadCheckpoint(id)
	if err != nil {
		s.log.Warn("store: unreadable checkpoint snapshot, folding the step log alone", "job", id, "err", err)
	}
	st := snap
	if st == nil {
		st = &core.ExplorerState{}
	}
	s.foldStepLog(id, st)
	if len(st.Steps) == 0 {
		return nil
	}
	if err := st.Validate(); err != nil {
		s.log.Warn("store: inconsistent exploration state, resuming from step 0", "job", id, "err", err)
		return nil
	}
	return st
}

// foldStepLog applies the job's step records to st in log order. Corrupt and
// over-long lines are skipped with a warning, as journal replay does.
func (s *Store) foldStepLog(id string, st *core.ExplorerState) {
	f, err := os.Open(s.jobPath(id, stepsExt))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.log.Warn("store: unreadable step log", "job", id, "err", err)
		}
		return
	}
	defer f.Close()
	line := 0
	err = scanLines(f, func(raw []byte, long bool) {
		line++
		if long {
			s.log.Warn("store: skipping record (over-long step-log line)", "job", id, "line", line, "max", maxLine)
			return
		}
		if len(raw) == 0 {
			return
		}
		var r stepRecord
		if err := json.Unmarshal(raw, &r); err != nil {
			s.log.Warn("store: skipping record (corrupt step-log line)", "job", id, "line", line, "err", err)
			return
		}
		r.extend(st)
	})
	if err != nil {
		s.log.Warn("store: truncating step-log replay", "job", id, "line", line, "err", err)
	}
}
