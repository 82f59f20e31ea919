// Package store is the durability layer of the approximation service: a
// journal+step-log job store on disk plus a disk-backed factorization cache
// (cache.go), keyed by job ID and content address respectively.
//
// Layout under the store directory:
//
//	jobs/<id>.journal     append-only JSONL: request, state transitions,
//	                      trace points, spans, terminal result — written as
//	                      they happen, one self-contained record per line
//	jobs/<id>.steps       append-only JSONL step log: one fsynced record per
//	                      committed exploration step, holding what the
//	                      core.ExplorerState gained since the last durable
//	                      record plus its small fields whole; deleted when
//	                      the job finishes (a timed-out job keeps it)
//	jobs/<id>.checkpoint  optional whole core.ExplorerState snapshot,
//	                      atomically replaced; replay folds the step log onto
//	                      it. The engine writes only the step log, so a
//	                      snapshot comes from a store written before the step
//	                      log existed or from a caller of WriteCheckpoint
//	cache/<aa>/<key>.json content-addressed factorization results
//
// Both job files hold small monotone facts: appends are cheap, replay is a
// fold, and a torn final line loses at most one record. The step log keeps
// the bytes written per step proportional to that step's growth (its new
// trajectory entry and frontier points) instead of the whole state so far,
// and still costs one fsync per committed step. Replay starts from the
// snapshot, if any, and applies each step record that extends the state
// reached so far; retried duplicates and records already covered are
// skipped.
//
// Replay is deliberately lenient: a corrupt or truncated journal or step-log
// line is skipped with a logged warning (the crash that necessitated the
// replay is exactly when a torn write is expected), and an unreadable or
// inconsistent exploration state degrades to resuming from step 0. Replay
// never fails the whole store open for one damaged job.
package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/faults"
	"github.com/blasys-go/blasys/internal/telemetry"
)

const (
	jobsSubdir  = "jobs"
	cacheSubdir = "cache"

	journalExt    = ".journal"
	stepsExt      = ".steps"
	checkpointExt = ".checkpoint"
)

// Store is a directory-backed job store. All methods are safe for concurrent
// use; per-job journals serialize their own appends.
type Store struct {
	dir string
	log *slog.Logger

	// flt is the optional fault injector (nil in production — Fire on a nil
	// injector is a plain nil check, the zero-overhead clean path).
	flt   atomic.Pointer[faults.Injector]
	retry RetryPolicy
	brk   *breaker

	mu       sync.Mutex
	journals map[string]*Journal
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{jobsSubdir, cacheSubdir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	s := &Store{
		dir:      dir,
		log:      slog.Default(),
		retry:    DefaultRetryPolicy,
		journals: make(map[string]*Journal),
	}
	s.brk = newBreaker(s)
	return s, nil
}

// SetFaults installs (or, with nil, removes) a fault injector on every store
// I/O path. Testing and chaos drills only.
func (s *Store) SetFaults(in *faults.Injector) { s.flt.Store(in) }

// Faults returns the installed fault injector (nil in production) — the
// introspection handle behind the /debug/faults admin surface.
func (s *Store) Faults() *faults.Injector { return s.flt.Load() }

// injector returns the current fault injector (usually nil).
func (s *Store) injector() *faults.Injector { return s.flt.Load() }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetSlogger redirects the store's warning messages to a structured logger
// (default slog.Default()).
func (s *Store) SetSlogger(l *slog.Logger) {
	if l != nil {
		s.log = l
	}
}

// ProbeError reports which store directories failed the writability probe,
// so readiness detail can distinguish a degraded journal (durability gone)
// from a degraded cache (only warm-start speed gone).
type ProbeError struct {
	Jobs  error // jobs dir (journals + checkpoints) probe failure, if any
	Cache error // cache dir probe failure, if any
}

func (e *ProbeError) Error() string {
	switch {
	case e.Jobs != nil && e.Cache != nil:
		return fmt.Sprintf("store: not writable: jobs: %v; cache: %v", e.Jobs, e.Cache)
	case e.Jobs != nil:
		return fmt.Sprintf("store: jobs dir not writable: %v", e.Jobs)
	default:
		return fmt.Sprintf("store: cache dir not writable: %v", e.Cache)
	}
}

// Writable probes that the store's job and cache directories accept writes —
// the readiness signal a serving process reports before accepting work, and
// the check the circuit breaker's half-open probe runs. A failure is a
// *ProbeError identifying which directory is sick.
func (s *Store) Writable() error {
	if err := s.injector().Fire(faults.OpProbe); err != nil {
		return fmt.Errorf("store: not writable: %w", err)
	}
	pe := &ProbeError{
		Jobs:  probeDir(filepath.Join(s.dir, jobsSubdir)),
		Cache: probeDir(filepath.Join(s.dir, cacheSubdir)),
	}
	if pe.Jobs == nil && pe.Cache == nil {
		return nil
	}
	return pe
}

// probeDir round-trips a temp file through dir.
func probeDir(dir string) error {
	f, err := os.CreateTemp(dir, ".probe*")
	if err != nil {
		return err
	}
	name := f.Name()
	f.Close()
	return os.Remove(name)
}

func (s *Store) jobPath(id, ext string) string {
	return filepath.Join(s.dir, jobsSubdir, id+ext)
}

// entry is one journal line. Exactly one payload field is set, selected by
// Type; Time stamps when the fact was recorded.
type entry struct {
	Type string    `json:"type"` // request | state | trace | span | result
	Time time.Time `json:"time"`

	Request *RequestRecord        `json:"request,omitempty"`
	State   string                `json:"state,omitempty"`
	Error   string                `json:"error,omitempty"`
	Trace   *core.TracePoint      `json:"trace,omitempty"`
	Span    *telemetry.SpanRecord `json:"span,omitempty"`
	Result  *ResultRecord         `json:"result,omitempty"`

	CacheHits   uint64 `json:"cache_hits,omitempty"`
	CacheMisses uint64 `json:"cache_misses,omitempty"`
}

// Journal is one job's append-only record stream: its journal file, and the
// step log its Checkpoint appends to (opened on the first checkpoint).
type Journal struct {
	id    string
	st    *Store
	log   appendLog
	steps appendLog
}

// Journal opens (appending) the journal for a job ID, creating it on first
// use. The same *Journal is returned for repeated calls until Close.
func (s *Store) Journal(id string) (*Journal, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.journals[id]; ok {
		return j, nil
	}
	j := &Journal{
		id:    id,
		st:    s,
		log:   appendLog{kind: journalLog, path: s.jobPath(id, journalExt)},
		steps: appendLog{kind: stepLog, path: s.jobPath(id, stepsExt)},
	}
	err := s.withRetry("journal_open", true, func() error {
		if err := s.injector().Fire(faults.OpJournalOpen); err != nil {
			return err
		}
		return j.log.open()
	})
	if err != nil {
		return nil, fmt.Errorf("store: journal %s: %w", id, err)
	}
	s.journals[id] = j
	return j, nil
}

// validID rejects IDs that could escape the jobs directory or collide with
// the store's own file extensions.
func validID(id string) error {
	if id == "" || strings.ContainsAny(id, "/\\") || strings.Contains(id, "..") {
		return fmt.Errorf("store: invalid job id %q", id)
	}
	return nil
}

// logKind is what tells a job's two append-only files apart: the retry
// label, fault points and latency histograms their appends report under.
type logKind struct {
	retry   string
	writeOp faults.Op
	// syncOp is the fault point of the fsync; empty when writeOp covers the
	// whole append.
	syncOp faults.Op
	// writeHist and syncHist time one write and one fsync; nil leaves the
	// timing to the caller.
	writeHist, syncHist *telemetry.Histogram
}

var (
	journalLog = logKind{
		retry: "journal_append", writeOp: faults.OpJournalAppend, syncOp: faults.OpJournalSync,
		writeHist: mJournalAppend, syncHist: mFsync,
	}
	// A step-log append is a checkpoint write: it keeps the checkpoint's
	// retry label and fault point, and Journal.Checkpoint times it whole.
	stepLog = logKind{retry: "checkpoint_write", writeOp: faults.OpCheckpointWrite}
)

// appendLog is one append-only file of JSON lines. Appends are serialized,
// and a line a failed write may have left partial (a torn tail) is healed by
// the next append, which poisons the fragment with a newline first: the
// retried record then starts on a fresh line and replay skips only the
// fragment.
type appendLog struct {
	kind logKind
	path string

	mu     sync.Mutex
	f      *os.File
	torn   bool
	closed bool
}

// open opens the file for appending, creating it if needed. A file that
// ends mid-line (a crash tore its last append) is marked torn, so the first
// append heals it instead of gluing a record onto the fragment. Callers hold
// a.mu or own a not yet shared appendLog.
func (a *appendLog) open() error {
	f, err := os.OpenFile(a.path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], fi.Size()-1); err != nil || last[0] != '\n' {
			a.torn = true
		}
	}
	a.f = f
	return nil
}

// append lands one newline-terminated line under the store's retry loop,
// fsyncing it when sync is set.
func (a *appendLog) append(s *Store, line []byte, sync bool) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return fmt.Errorf("store: %s closed", filepath.Base(a.path))
	}
	return s.withRetry(a.kind.retry, true, func() error {
		return a.writeOnce(s.injector(), line, sync)
	})
}

// writeOnce is one attempt to land a line (plus its fsync when sync is set).
// Called with a.mu held, via the store's retry loop.
func (a *appendLog) writeOnce(inj *faults.Injector, line []byte, sync bool) error {
	start := time.Now()
	if a.f == nil {
		if err := a.open(); err != nil {
			return err
		}
	}
	if a.torn {
		if _, err := a.f.Write([]byte("\n")); err != nil {
			return err
		}
		a.torn = false
	}
	if err := inj.Fire(a.kind.writeOp); err != nil {
		if faults.IsTorn(err) {
			// Simulate the short write the fault stands for: half the record
			// lands, no newline. The retry path must heal this.
			a.f.Write(line[:len(line)/2])
			a.torn = true
		}
		return err
	}
	n, err := a.f.Write(line)
	if err != nil {
		if n > 0 && n < len(line) {
			a.torn = true
		}
		return err
	}
	a.kind.writeHist.Observe(time.Since(start).Seconds())
	if !sync {
		return nil
	}
	if a.kind.syncOp != "" {
		if err := inj.Fire(a.kind.syncOp); err != nil {
			return err
		}
	}
	fsyncStart := time.Now()
	err = a.f.Sync()
	a.kind.syncHist.Observe(time.Since(fsyncStart).Seconds())
	return err
}

// close closes the file; later appends fail.
func (a *appendLog) close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closed = true
	if a.f == nil {
		return nil
	}
	err := a.f.Close()
	a.f = nil
	return err
}

func (j *Journal) append(e entry, sync bool) error {
	e.Time = time.Now().UTC()
	line, err := json.Marshal(&e)
	if err != nil {
		return fmt.Errorf("store: journal %s: %w", j.id, err)
	}
	return j.log.append(j.st, append(line, '\n'), sync)
}

// Request journals the job's (re-materializable) submission.
func (j *Journal) Request(r *RequestRecord) error {
	return j.append(entry{Type: "request", Request: r}, true)
}

// State journals a lifecycle transition; jobErr carries the failure message
// for terminal error states. Terminal states are fsynced.
func (j *Journal) State(state, jobErr string) error {
	sync := state == "done" || state == "failed" || state == "cancelled" || state == "timeout"
	return j.append(entry{Type: "state", State: state, Error: jobErr}, sync)
}

// Trace journals one committed exploration trace point.
func (j *Journal) Trace(p core.TracePoint) error {
	return j.append(entry{Type: "trace", Trace: &p}, false)
}

// Span journals one completed telemetry span (not fsynced: a span lost to a
// crash only trims the restored timeline, it never affects results).
func (j *Journal) Span(r telemetry.SpanRecord) error {
	return j.append(entry{Type: "span", Span: &r}, false)
}

// Result journals the terminal result record (fsynced).
func (j *Journal) Result(r *ResultRecord, hits, misses uint64) error {
	return j.append(entry{Type: "result", Result: r, CacheHits: hits, CacheMisses: misses}, true)
}

// Close closes the journal and its step log, detaching them from the store.
// The files stay on disk.
func (j *Journal) Close() error {
	err := j.log.close()
	if serr := j.steps.close(); err == nil {
		err = serr
	}
	j.st.mu.Lock()
	if j.st.journals[j.id] == j {
		delete(j.st.journals, j.id)
	}
	j.st.mu.Unlock()
	return err
}

// WriteFileAtomic replaces path atomically: the content is written to a
// temp file in the same directory, optionally fsynced, then renamed into
// place — a reader (or a crash) sees either the old or the new file in
// full, never a torn one. sync should be true when losing BOTH versions to
// a power cut is unacceptable (checkpoints); false when a lost file merely
// costs a recomputation (cache entries, which read-validate anyway).
func WriteFileAtomic(path string, sync bool, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// WriteCheckpoint atomically replaces the job's exploration snapshot: a
// whole core.ExplorerState that replay folds the job's step log onto. The
// engine makes its steps durable through Journal.Checkpoint instead; a
// snapshot suits a caller that keeps one whole file per job.
func (s *Store) WriteCheckpoint(id string, st *core.ExplorerState) error {
	if err := validID(id); err != nil {
		return err
	}
	start := time.Now()
	path := s.jobPath(id, checkpointExt)
	err := s.withRetry("checkpoint_write", true, func() error {
		if err := s.injector().Fire(faults.OpCheckpointWrite); err != nil {
			return err
		}
		return WriteFileAtomic(path, true, func(w io.Writer) error {
			_, werr := st.WriteTo(w)
			return werr
		})
	})
	if err != nil {
		return fmt.Errorf("store: checkpoint %s: %w", id, err)
	}
	mCheckpointWrite.Observe(time.Since(start).Seconds())
	return nil
}

// ReadCheckpoint loads the job's exploration snapshot alone, without the
// step log folded onto it; (nil, nil) when none was ever written.
func (s *Store) ReadCheckpoint(id string) (*core.ExplorerState, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	f, err := os.Open(s.jobPath(id, checkpointExt))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: checkpoint %s: %w", id, err)
	}
	defer f.Close()
	return core.ReadExplorerState(f)
}

// JobRecord is one job's state folded out of its journal and checkpoint.
type JobRecord struct {
	ID       string
	State    string
	Created  time.Time
	Started  time.Time
	Finished time.Time
	Error    string

	Request *RequestRecord
	Trace   []core.TracePoint
	Spans   []telemetry.SpanRecord
	// Checkpoint is the latest durable exploration state (the snapshot with
	// the step log folded onto it); nil for finished jobs and for jobs with
	// no durable step.
	Checkpoint *core.ExplorerState
	Result     *ResultRecord

	CacheHits, CacheMisses uint64

	// CorruptLines counts journal lines skipped during replay.
	CorruptLines int
}

// Terminal reports whether the record's state is final.
func (r *JobRecord) Terminal() bool {
	return r.State == "done" || r.State == "failed" || r.State == "cancelled" || r.State == "timeout"
}

// Replay folds every job journal in the store into records, sorted by
// creation time (journal order within a job is authoritative). Damaged
// journal and step-log lines and unreadable checkpoints are skipped with a
// warning — replay reconstructs as much as the disk still holds, it never
// refuses the whole store because one job's tail was torn by a crash.
func (s *Store) Replay() ([]*JobRecord, error) {
	start := time.Now()
	defer func() { mReplay.Observe(time.Since(start).Seconds()) }()
	dir := filepath.Join(s.dir, jobsSubdir)
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: replay: %w", err)
	}
	var recs []*JobRecord
	for _, de := range names {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, journalExt) {
			continue
		}
		id := strings.TrimSuffix(name, journalExt)
		rec, err := s.replayJob(id)
		if err != nil {
			s.log.Warn("store: replay skipping job", "job", id, "err", err)
			mReplayJobs.With("skipped").Inc()
			continue
		}
		if rec.Terminal() {
			mReplayJobs.With("terminal").Inc()
		} else {
			mReplayJobs.With("resumable").Inc()
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].Created.Equal(recs[j].Created) {
			return recs[i].Created.Before(recs[j].Created)
		}
		return recs[i].ID < recs[j].ID
	})
	return recs, nil
}

// replayJob folds one job's journal (and exploration state, for unfinished
// and timed-out jobs) into a record.
func (s *Store) replayJob(id string) (*JobRecord, error) {
	f, err := os.Open(s.jobPath(id, journalExt))
	if err != nil {
		return nil, err
	}
	defer f.Close()

	rec := &JobRecord{ID: id, State: "queued"}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
	line := 0
	// Trace points are keyed by exploration step: a job that crashed between
	// journaling a trace point and its checkpoint re-journals that step after
	// resuming, so replay keeps the first record per step (the duplicates are
	// bit-identical — the walk is deterministic). Spans dedup by ID the same
	// way.
	seenSteps := make(map[int]bool)
	seenSpans := make(map[uint64]bool)
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var e entry
		if err := json.Unmarshal(raw, &e); err != nil {
			rec.CorruptLines++
			s.log.Warn("store: skipping record (corrupt journal line)", "job", id, "line", line, "err", err)
			continue
		}
		switch e.Type {
		case "request":
			rec.Request = e.Request
			rec.Created = e.Time
		case "state":
			rec.State = e.State
			rec.Error = e.Error
			switch e.State {
			case "running":
				rec.Started = e.Time
			case "done", "failed", "cancelled", "timeout":
				rec.Finished = e.Time
			}
		case "trace":
			if e.Trace != nil && !seenSteps[e.Trace.Step] {
				seenSteps[e.Trace.Step] = true
				rec.Trace = append(rec.Trace, *e.Trace)
			}
		case "span":
			// A job that resumed after a crash re-journals the stages it
			// replays; keep the first record per span ID (they describe the
			// same deterministic work).
			if e.Span != nil && !seenSpans[e.Span.ID] {
				seenSpans[e.Span.ID] = true
				rec.Spans = append(rec.Spans, *e.Span)
			}
		case "result":
			rec.Result = e.Result
			rec.CacheHits, rec.CacheMisses = e.CacheHits, e.CacheMisses
		default:
			rec.CorruptLines++
			s.log.Warn("store: skipping unknown journal record type", "job", id, "line", line, "type", e.Type)
		}
	}
	if err := sc.Err(); err != nil {
		// A torn tail (e.g. crash mid-append past the scanner's buffer) loses
		// the remainder of the journal, not the whole job.
		rec.CorruptLines++
		s.log.Warn("store: truncating journal replay", "job", id, "line", line, "err", err)
	}
	if rec.Request == nil {
		return nil, fmt.Errorf("no readable request record")
	}
	if rec.Created.IsZero() {
		rec.Created = time.Now().UTC()
	}
	// Unfinished jobs need their checkpoint to resume; timed-out jobs keep
	// theirs as the durable record of the best-so-far frontier.
	if !rec.Terminal() || rec.State == "timeout" {
		rec.Checkpoint = s.loadCheckpoint(id)
	}
	return rec, nil
}

// Remove deletes every record of a job — its journal and step log (closing
// any open handles) and its snapshot. Used when a submission is rejected
// after its request was journaled, and when the engine evicts a terminal job
// past its retention bound (the store mirrors the in-memory retention, or
// evicted jobs would resurrect on the next restart and journals would
// accumulate forever).
func (s *Store) Remove(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	s.mu.Lock()
	j := s.journals[id]
	s.mu.Unlock()
	if j != nil {
		if err := j.Close(); err != nil {
			return err
		}
	}
	err := os.Remove(s.jobPath(id, journalExt))
	if errors.Is(err, fs.ErrNotExist) {
		err = nil
	}
	if cperr := s.RemoveCheckpoint(id); err == nil {
		err = cperr
	}
	return err
}

// RemoveCheckpoint deletes a job's exploration state: its step log and its
// snapshot (done once the job reaches a terminal state: the journal's result
// record supersedes them).
func (s *Store) RemoveCheckpoint(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	var first error
	for _, ext := range []string{stepsExt, checkpointExt} {
		err := os.Remove(s.jobPath(id, ext))
		if err != nil && !errors.Is(err, fs.ErrNotExist) && first == nil {
			first = err
		}
	}
	return first
}

// Close stops the breaker's background probing and closes every open
// journal and step log.
func (s *Store) Close() error {
	s.brk.stop()
	s.mu.Lock()
	open := make([]*Journal, 0, len(s.journals))
	for _, j := range s.journals {
		open = append(open, j)
	}
	s.mu.Unlock()
	var first error
	for _, j := range open {
		if err := j.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
