package bmf

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/blasys-go/blasys/internal/tt"
)

func testMatrix() *tt.Matrix {
	// The paper's Fig. 3 truth table (4 inputs, 4 outputs).
	return tt.MatrixFromRows(4, []uint64{
		0b0000, 0b0001, 0b0010, 0b0011,
		0b0100, 0b0101, 0b0110, 0b0111,
		0b1000, 0b1001, 0b1010, 0b1011,
		0b1100, 0b1101, 0b1110, 0b1111,
	})
}

func TestKeyDeterministicAndSensitive(t *testing.T) {
	M := testMatrix()
	base := keyFor(familyColumns, M, 2, Options{})
	if again := keyFor(familyColumns, M, 2, Options{}); again != base {
		t.Fatal("identical problems hash to different keys")
	}
	// Normalized defaults share a key with explicit ones.
	if k := keyFor(familyColumns, M, 2, Options{TauSweep: DefaultTauSweep}); k != base {
		t.Fatal("normalized defaults should hash like implied defaults")
	}
	distinct := []Key{
		keyFor(familyASSO, M, 2, Options{}),
		keyFor(familyColumns, M, 3, Options{}),
		keyFor(familyColumns, M, 2, Options{Semiring: Xor}),
		keyFor(familyColumns, M, 2, Options{ColWeights: tt.PowerOfTwoWeights(4)}),
		keyFor(familyColumns, M, 2, Options{TauSweep: []float64{0.5}}),
	}
	seen := map[Key]bool{base: true}
	for i, k := range distinct {
		if seen[k] {
			t.Fatalf("variant %d collided with a previous key", i)
		}
		seen[k] = true
	}
	// A single flipped matrix bit must change the key.
	M2 := testMatrix()
	M2.Set(3, 1, !M2.Get(3, 1))
	if keyFor(familyColumns, M2, 2, Options{}) == base {
		t.Fatal("matrix content not reflected in key")
	}
}

// TestKeysPinned pins keys recorded before the refine switch and ASSO's
// cover weights became constants: the key must keep hashing them as the
// option defaults did, or every disk-cache entry written earlier misses.
func TestKeysPinned(t *testing.T) {
	M := testMatrix()
	for _, tc := range []struct {
		name string
		key  Key
		want string
	}{
		{"asso", KeyFor(M, 2, Options{}), "c5f74e81dfa90698d66a8a60817e5ba77f4b3922c9412809818830fe6a41c8ab"},
		{"columns", KeyForColumns(M, 2, Options{}), "c4ff0d461a42f42638bef67bf6b6f983ab3bdbd62f89801e56833950330c4ece"},
		{"asso xor weighted", KeyFor(M, 3, Options{Semiring: Xor, ColWeights: tt.PowerOfTwoWeights(4), TauSweep: []float64{0.25, 0.75}}),
			"de78d652206d9792ee712e4df79ac54326f17b90423af261cda6b1b4865ee125"},
	} {
		if got := hex.EncodeToString(tc.key[:]); got != tc.want {
			t.Errorf("%s: key %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestFactorizeCachedHitsAndEquivalence(t *testing.T) {
	M := testMatrix()
	cache := NewMemoryCache()
	direct, err := Factorize(M, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := FactorizeCached(cache, M, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := FactorizeCached(cache, M, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatal("second call should return the cached pointer")
	}
	if !first.B.Equal(direct.B) || !first.C.Equal(direct.C) || first.Hamming != direct.Hamming {
		t.Fatal("cached path and direct path disagree")
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}

	// The column family must not alias the ASSO family.
	colRes, err := FactorizeColumnsCached(cache, M, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	colAgain, err := FactorizeColumnsCached(cache, M, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if colAgain != colRes {
		t.Fatal("column result not cached")
	}
	if got := cache.Stats().Entries; got != 2 {
		t.Fatalf("entries = %d, want 2", got)
	}
}

func TestMemoryCacheConcurrent(t *testing.T) {
	M := testMatrix()
	cache := NewMemoryCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := 1; f <= 3; f++ {
				if _, err := FactorizeColumnsCached(cache, M, f, Options{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := cache.Stats()
	if st.Entries != 3 {
		t.Fatalf("entries = %d, want 3", st.Entries)
	}
	if st.Hits+st.Misses != 8*3 {
		t.Fatalf("hits+misses = %d, want 24", st.Hits+st.Misses)
	}
}

// recordingCache is a MemoryCache that logs the keys of every Get and Put.
type recordingCache struct {
	*MemoryCache
	mu         sync.Mutex
	gets, puts []Key
}

func (c *recordingCache) Get(k Key) (any, bool) {
	c.mu.Lock()
	c.gets = append(c.gets, k)
	c.mu.Unlock()
	return c.MemoryCache.Get(k)
}

func (c *recordingCache) Put(k Key, v any) {
	c.mu.Lock()
	c.puts = append(c.puts, k)
	c.mu.Unlock()
	c.MemoryCache.Put(k, v)
}

// TestDegreesCachedServedByPerDegreeEntries warms a cache with per-degree
// FactorizeCached and FactorizeColumnsCached calls only; the all-degree
// calls must then be served entirely from it, one Get per degree, returning
// the very objects the per-degree calls stored.
func TestDegreesCachedServedByPerDegreeEntries(t *testing.T) {
	M := testMatrix()
	opt := Options{ColWeights: tt.PowerOfTwoWeights(M.Cols)}
	cache := NewMemoryCache()
	var asso []*Result
	var cols []*ColumnResult
	for f := 1; f <= M.Cols; f++ {
		r, err := FactorizeCached(cache, M, f, opt)
		if err != nil {
			t.Fatal(err)
		}
		c, err := FactorizeColumnsCached(cache, M, f, opt)
		if err != nil {
			t.Fatal(err)
		}
		asso, cols = append(asso, r), append(cols, c)
	}
	before := cache.Stats()
	gotAsso, err := FactorizeDegreesCached(cache, M, M.Cols, opt)
	if err != nil {
		t.Fatal(err)
	}
	gotCols, err := FactorizeColumnsDegreesCached(cache, M, M.Cols, opt)
	if err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Hits-before.Hits != uint64(2*M.Cols) || after.Misses != before.Misses || after.Entries != before.Entries {
		t.Fatalf("stats %+v -> %+v, want %d more hits and nothing else", before, after, 2*M.Cols)
	}
	for f := 1; f <= M.Cols; f++ {
		if gotAsso[f-1] != asso[f-1] || gotCols[f-1] != cols[f-1] {
			t.Fatalf("f=%d: the all-degree call did not return the per-degree call's cached object", f)
		}
	}
}

// TestDegreesCachedPartialHit warms some degrees of a problem and checks
// what the all-degree call does with the rest: one Get per degree, one pass
// up to the highest missing degree that asks for the missing degrees only,
// a Put for each of them, the cached objects for the hits, and fresh results
// equal to the uncached ones.
func TestDegreesCachedPartialHit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	M := randomMatrix(rng, 64, 6, 0.5)
	const maxF = 5
	for _, tc := range []struct {
		warm []int
		want []bool // the kernel's want mask
	}{
		{warm: []int{3, 4, 5}, want: []bool{true, true}},
		{warm: []int{2, 4}, want: []bool{true, false, true, false, true}},
		{warm: []int{1, 2, 3, 4, 5}, want: nil},
		{warm: nil, want: []bool{true, true, true, true, true}},
	} {
		cache := &recordingCache{MemoryCache: NewMemoryCache()}
		warmed := map[int]*Result{}
		for _, f := range tc.warm {
			r, err := FactorizeCached(cache, M, f, Options{})
			if err != nil {
				t.Fatal(err)
			}
			warmed[f] = r
		}
		cache.gets, cache.puts = nil, nil
		var asked []bool
		spy := func(M *tt.Matrix, want []bool, opt Options) ([]*Result, error) {
			asked = append([]bool(nil), want...)
			return factorizeDegrees(M, want, opt)
		}
		out, err := cachedDegrees(cache, familyASSO, M, 1, maxF, Options{}, spy)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(asked) != fmt.Sprint(tc.want) {
			t.Fatalf("warm %v: kernel asked for %v, want %v", tc.warm, asked, tc.want)
		}
		if len(cache.gets) != maxF {
			t.Fatalf("warm %v: %d Gets, want %d", tc.warm, len(cache.gets), maxF)
		}
		var wantPuts []Key
		for f := 1; f <= maxF; f++ {
			if r, ok := warmed[f]; ok {
				if out[f-1] != r {
					t.Fatalf("warm %v f=%d: hit did not return the cached object", tc.warm, f)
				}
				continue
			}
			wantPuts = append(wantPuts, KeyFor(M, f, Options{}))
			ref, err := Factorize(M, f, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !out[f-1].B.Equal(ref.B) || !out[f-1].C.Equal(ref.C) || out[f-1].WeightedError != ref.WeightedError {
				t.Fatalf("warm %v f=%d: computed result differs from Factorize", tc.warm, f)
			}
		}
		if fmt.Sprint(cache.puts) != fmt.Sprint(wantPuts) {
			t.Fatalf("warm %v: Put %d keys, want the %d misses", tc.warm, len(cache.puts), len(wantPuts))
		}
	}
}
