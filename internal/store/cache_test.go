package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/tt"
)

// factorizeSample produces a real factorization result plus its content key.
func factorizeSample(t *testing.T, f int) (bmf.Key, *bmf.ColumnResult, *tt.Matrix) {
	t.Helper()
	M := tt.NewMatrix(8, 4)
	for r := 0; r < 8; r++ {
		for c := 0; c < 4; c++ {
			if (r>>uint(c))&1 == 1 || r%3 == c {
				M.Set(r, c, true)
			}
		}
	}
	res, err := bmf.FactorizeColumns(M, f, bmf.Options{})
	if err != nil {
		t.Fatalf("FactorizeColumns: %v", err)
	}
	return bmf.KeyForColumns(M, f, bmf.Options{}), res, M
}

func TestDiskCachePersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, res, _ := factorizeSample(t, 2)
	c1 := s1.DiskCache()
	c1.Put(key, res)
	if got, ok := c1.Get(key); !ok {
		t.Fatal("entry not readable in the writing process")
	} else if !reflect.DeepEqual(got, res) {
		t.Fatalf("round trip mutated the result:\nput %+v\ngot %+v", res, got)
	}
	s1.Close()

	// A fresh open of the same directory — a restarted process — serves the
	// same factorization without recomputing it.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c2 := s2.DiskCache()
	got, ok := c2.Get(key)
	if !ok {
		t.Fatal("entry lost across restart")
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("restart round trip mutated the result:\nput %+v\ngot %+v", res, got)
	}
	if st := c2.Stats(); st.Entries != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 entry, 1 hit", st)
	}
}

func TestDiskCacheCorruptEntryIsAMiss(t *testing.T) {
	s := openTestStore(t)
	key, res, _ := factorizeSample(t, 1)
	c := s.DiskCache()
	c.Put(key, res)
	if err := os.WriteFile(c.path(key), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, err := os.Stat(c.path(key)); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not removed")
	}
}

func TestDiskCacheIgnoresUnknownTypes(t *testing.T) {
	s := openTestStore(t)
	c := s.DiskCache()
	var key bmf.Key
	c.Put(key, "not a factorization")
	if _, ok := c.Get(key); ok {
		t.Fatal("unknown type round-tripped")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("unknown type was persisted: %+v", st)
	}
}

func TestTieredCachePromotesAndWritesThrough(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key, res, M := factorizeSample(t, 2)

	tc := s.TieredCache()
	if _, ok := tc.Get(key); ok {
		t.Fatal("empty cache hit")
	}
	tc.Put(key, res)

	// A second tiered cache over the same store (fresh memory layer) — the
	// restart case — must hit via the disk layer and promote.
	tc2 := s.TieredCache()
	if _, ok := tc2.Get(key); !ok {
		t.Fatal("disk layer did not serve the entry")
	}
	if _, ok := tc2.mem.Get(key); !ok {
		t.Fatal("disk hit was not promoted into the memory layer")
	}

	// And the cached-factorize entry points hit it transparently.
	got, err := bmf.FactorizeColumnsCached(tc2, M, 2, bmf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatal("FactorizeColumnsCached did not serve the tiered entry")
	}

	if st := tc2.Stats(); st.Hits < 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDiskCacheFanOutLayout(t *testing.T) {
	s := openTestStore(t)
	key, res, _ := factorizeSample(t, 2)
	c := s.DiskCache()
	c.Put(key, res)
	// The entry must live under cache/<first two hex digits>/.
	matches, err := filepath.Glob(filepath.Join(s.Dir(), cacheSubdir, "??", "*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("fan-out layout: matches=%v err=%v", matches, err)
	}
}

// TestTieredCacheServesAllDegreeCalls writes a store's tiered cache the way
// profiling did before it factorized every degree of a block in one call
// (one FactorizeCached or FactorizeColumnsCached per degree), then restarts
// with a fresh memory layer: the all-degree calls must be served from disk,
// one hit per degree with no miss, with results equal to uncached ones.
func TestTieredCacheServesAllDegreeCalls(t *testing.T) {
	s := openTestStore(t)
	_, _, M := factorizeSample(t, 1)
	opt := bmf.Options{ColWeights: tt.PowerOfTwoWeights(M.Cols)}
	maxF := M.Cols - 1
	old := s.TieredCache()
	for f := 1; f <= maxF; f++ {
		if _, err := bmf.FactorizeCached(old, M, f, opt); err != nil {
			t.Fatal(err)
		}
		if _, err := bmf.FactorizeColumnsCached(old, M, f, opt); err != nil {
			t.Fatal(err)
		}
	}

	tc := s.TieredCache()
	before := tc.Stats()
	asso, err := bmf.FactorizeDegreesCached(tc, M, maxF, opt)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := bmf.FactorizeColumnsDegreesCached(tc, M, maxF, opt)
	if err != nil {
		t.Fatal(err)
	}
	after := tc.Stats()
	if after.Hits-before.Hits != uint64(2*maxF) || after.Misses != before.Misses {
		t.Fatalf("stats %+v -> %+v, want %d disk hits and no miss", before, after, 2*maxF)
	}
	wantAsso, err := bmf.FactorizeDegrees(M, maxF, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantCols, err := bmf.FactorizeColumnsDegrees(M, maxF, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(asso, wantAsso) || !reflect.DeepEqual(cols, wantCols) {
		t.Fatal("the disk tier served different factorizations than an uncached pass")
	}
}
