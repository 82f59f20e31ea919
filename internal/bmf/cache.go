package bmf

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/blasys-go/blasys/internal/tt"
)

// Key is the content address of one factorization problem: a deterministic
// hash of the truth matrix, the degree, the factor family, and every Options
// field that influences the result. Two problems with equal keys have
// bit-identical factorizations, so a cached result can be substituted for a
// fresh computation.
type Key [sha256.Size]byte

// family tags keep the two factor families (general ASSO vs column-basis)
// from ever colliding in one cache.
const (
	familyASSO    byte = 'A'
	familyColumns byte = 'C'
)

// keyFor hashes a factorization problem. Defaults are normalized before
// hashing (nil sweep) so an explicit default and an implied one share a key.
// The key still hashes a refine byte (0) and ASSO's cover weights (1.0 and
// 1.0), once options and now constants, so keys and disk-cache entries
// written while they were options still hit.
func keyFor(family byte, M *tt.Matrix, f int, opt Options) Key {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeFloat := func(v float64) { writeInt(math.Float64bits(v)) }

	h.Write([]byte{family, byte(opt.Semiring), 0})
	writeInt(uint64(f))
	writeInt(uint64(M.Rows))
	writeInt(uint64(M.Cols))
	for _, r := range M.Row {
		writeInt(r)
	}
	writeFloat(1) // w+
	writeFloat(1) // w-
	if opt.ColWeights == nil {
		writeInt(0) // uniform marker
	} else {
		writeInt(uint64(len(opt.ColWeights)) + 1)
		for _, w := range opt.ColWeights {
			writeFloat(w)
		}
	}
	sweep := opt.TauSweep
	if sweep == nil {
		sweep = DefaultTauSweep
	}
	writeInt(uint64(len(sweep)))
	for _, tau := range sweep {
		writeFloat(tau)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// KeyFor returns the content address FactorizeCached stores its result
// under. Exposed so external Cache implementations (e.g. a disk-backed
// store) can be tested and pre-warmed against the exact keys the flow uses.
func KeyFor(M *tt.Matrix, f int, opt Options) Key {
	return keyFor(familyASSO, M, f, opt)
}

// KeyForColumns is KeyFor for the column-basis family
// (FactorizeColumnsCached).
func KeyForColumns(M *tt.Matrix, f int, opt Options) Key {
	return keyFor(familyColumns, M, f, opt)
}

// CacheStats reports a cache's cumulative effectiveness counters.
type CacheStats struct {
	Hits, Misses, Entries uint64
}

// Cache memoizes factorization results by content address. Implementations
// must be safe for concurrent use; stored values are treated as immutable by
// every consumer, so one entry may be shared across goroutines and jobs.
type Cache interface {
	Get(Key) (any, bool)
	Put(Key, any)
	Stats() CacheStats
}

// MemoryCache is an in-process Cache: a mutex-guarded map with hit/miss
// counters. It grows without bound; the working set of a BLASYS service (one
// entry per distinct block truth table per degree) is small relative to the
// simulation state, so eviction has not been needed yet.
type MemoryCache struct {
	mu           sync.RWMutex
	m            map[Key]any
	hits, misses atomic.Uint64
}

// NewMemoryCache returns an empty MemoryCache.
func NewMemoryCache() *MemoryCache {
	return &MemoryCache{m: make(map[Key]any)}
}

// Get returns the entry stored under k, counting the hit or miss.
func (c *MemoryCache) Get(k Key) (any, bool) {
	start := time.Now()
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	observeCacheGet("memory", ok, time.Since(start))
	return v, ok
}

// Put stores v under k.
func (c *MemoryCache) Put(k Key, v any) {
	c.mu.Lock()
	c.m[k] = v
	c.mu.Unlock()
}

// Stats returns the cumulative hit/miss counters and the entry count.
func (c *MemoryCache) Stats() CacheStats {
	c.mu.RLock()
	n := len(c.m)
	c.mu.RUnlock()
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: uint64(n)}
}

// FactorizeCached is Factorize with an optional memoization layer: a nil
// cache degrades to a direct call. The returned Result is shared with the
// cache and must not be mutated.
func FactorizeCached(c Cache, M *tt.Matrix, f int, opt Options) (*Result, error) {
	if c == nil {
		return Factorize(M, f, opt)
	}
	if err := checkDegree(M, f); err != nil {
		return nil, err
	}
	out, err := cachedDegrees(c, familyASSO, M, f, f, opt, factorizeDegrees)
	if err != nil {
		return nil, err
	}
	return out[f-1], nil
}

// FactorizeDegreesCached is FactorizeDegrees with the same optional
// memoization layer: each degree is cached under its own KeyFor key, as
// FactorizeCached stores it, so the two entry points serve each other.
func FactorizeDegreesCached(c Cache, M *tt.Matrix, maxF int, opt Options) ([]*Result, error) {
	if c == nil {
		return FactorizeDegrees(M, maxF, opt)
	}
	if err := checkDegree(M, maxF); err != nil {
		return nil, err
	}
	return cachedDegrees(c, familyASSO, M, 1, maxF, opt, factorizeDegrees)
}

// FactorizeColumnsCached is FactorizeColumns with the same optional
// memoization layer as FactorizeCached.
func FactorizeColumnsCached(c Cache, M *tt.Matrix, f int, opt Options) (*ColumnResult, error) {
	if c == nil {
		return FactorizeColumns(M, f, opt)
	}
	if err := checkDegree(M, f); err != nil {
		return nil, err
	}
	out, err := cachedDegrees(c, familyColumns, M, f, f, opt, factorizeColumnsDegrees)
	if err != nil {
		return nil, err
	}
	return out[f-1], nil
}

// FactorizeColumnsDegreesCached is FactorizeColumnsDegrees with the same
// optional memoization layer, keyed per degree by KeyForColumns.
func FactorizeColumnsDegreesCached(c Cache, M *tt.Matrix, maxF int, opt Options) ([]*ColumnResult, error) {
	if c == nil {
		return FactorizeColumnsDegrees(M, maxF, opt)
	}
	if err := checkDegree(M, maxF); err != nil {
		return nil, err
	}
	return cachedDegrees(c, familyColumns, M, 1, maxF, opt, factorizeColumnsDegrees)
}

// cachedDegrees serves degrees lo..hi of one factorization problem: one Get
// per degree, then a single kernel pass up to the highest missing degree h
// that computes only the missing ones, each of which is Put under its key.
// It returns out[f-1] for f in lo..hi; hits are the cached objects.
func cachedDegrees[R any](c Cache, family byte, M *tt.Matrix, lo, hi int, opt Options,
	kernel func(*tt.Matrix, []bool, Options) ([]R, error)) ([]R, error) {
	out := make([]R, hi)
	keys := make([]Key, hi)
	want := make([]bool, hi)
	h := 0
	for f := lo; f <= hi; f++ {
		keys[f-1] = keyFor(family, M, f, opt)
		if v, ok := c.Get(keys[f-1]); ok {
			if res, ok := v.(R); ok {
				out[f-1] = res
				continue
			}
		}
		want[f-1] = true
		h = f
	}
	if h == 0 {
		return out, nil
	}
	fresh, err := kernel(M, want[:h], opt)
	if err != nil {
		return nil, err
	}
	for f := lo; f <= h; f++ {
		if want[f-1] {
			out[f-1] = fresh[f-1]
			c.Put(keys[f-1], fresh[f-1])
		}
	}
	return out, nil
}
