package store

import (
	"io"
	"log/slog"
	"os"
	"testing"
)

// FuzzReplay feeds arbitrary bytes as one job's journal, step log and
// snapshot (an empty input stands for an absent file). Replay must not
// panic, and every exploration state it folds must be internally
// consistent. The committed seed, testdata/fuzz/FuzzReplay/adder32-interrupted,
// is the journal and step log an engine shutdown left for an Adder32 job
// (2^8 samples, full curve) interrupted after four durable steps.
func FuzzReplay(f *testing.F) {
	f.Add([]byte(`{"type":"request","request":{"benchmark":"Fig3","spec":[],"config":{}}}`+"\n"+`{"type":"state","state":"running"}`+"\n"),
		[]byte(`{"base":{"step":0,"frontier":0},"steps":[{"BlockIndex":0,"NewDegree":1}],"frontier":[{"step":-1,"block_index":-1}],"degrees":[1]}`+"\n"),
		[]byte(nil))
	f.Fuzz(func(t *testing.T, journal, steps, snapshot []byte) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.SetSlogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
		const id = "job-fuzz"
		for ext, data := range map[string][]byte{journalExt: journal, stepsExt: steps, checkpointExt: snapshot} {
			if len(data) == 0 {
				continue
			}
			if err := os.WriteFile(s.jobPath(id, ext), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		recs, err := s.Replay()
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		for _, rec := range recs {
			if rec.Checkpoint == nil {
				continue
			}
			if err := rec.Checkpoint.Validate(); err != nil {
				t.Fatalf("replay folded an inconsistent state: %v", err)
			}
		}
	})
}
