package store

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/faults"
)

// DiskCache is a disk-backed bmf.Cache: each factorization result lives in
// its own content-addressed JSON file under <store>/cache/<aa>/<key>.json
// (two-hex-digit fan-out keeps directories small). Values are written via
// temp-file + rename, so concurrent writers of the same key and crashes both
// leave a whole file; a corrupt file reads as a miss and is removed.
//
// Only the two bmf result types (*bmf.Result, *bmf.ColumnResult) are
// persisted — they are what FactorizeCached/FactorizeColumnsCached store.
// Unknown value types pass through as cache misses rather than failing the
// flow.
type DiskCache struct {
	dir string
	log *slog.Logger
	// st backs the retry/degraded/fault plumbing.
	st *Store

	hits, misses, entries atomic.Uint64
}

// DiskCache returns the store's factorization cache layer.
func (s *Store) DiskCache() *DiskCache {
	c := &DiskCache{dir: filepath.Join(s.dir, cacheSubdir), log: s.log, st: s}
	c.entries.Store(countFiles(c.dir))
	return c
}

// countFiles counts existing cache entries (best effort, for Stats).
func countFiles(dir string) uint64 {
	var n uint64
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			n++
		}
		return nil
	})
	return n
}

// diskEntry is the file envelope: Kind selects the concrete result type.
type diskEntry struct {
	Kind    string            `json:"kind"` // "asso" | "columns"
	Result  *bmf.Result       `json:"result,omitempty"`
	Columns *bmf.ColumnResult `json:"columns,omitempty"`
}

func (c *DiskCache) path(k bmf.Key) string {
	hexKey := hex.EncodeToString(k[:])
	return filepath.Join(c.dir, hexKey[:2], hexKey+".json")
}

// Get loads the entry stored under k, counting the hit or miss.
func (c *DiskCache) Get(k bmf.Key) (any, bool) {
	start := time.Now()
	v, ok := c.get(k)
	bmf.ObserveCacheGet("disk", ok, time.Since(start))
	return v, ok
}

func (c *DiskCache) get(k bmf.Key) (any, bool) {
	if err := c.st.injector().Fire(faults.OpCacheRead); err != nil {
		c.misses.Add(1)
		return nil, false
	}
	b, err := os.ReadFile(c.path(k))
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	var e diskEntry
	if err := json.Unmarshal(b, &e); err != nil {
		c.log.Warn("store: removing corrupt cache entry", "key", fmt.Sprintf("%x", k[:4]), "err", err)
		_ = os.Remove(c.path(k))
		c.misses.Add(1)
		return nil, false
	}
	var v any
	switch e.Kind {
	case "asso":
		v = e.Result
	case "columns":
		v = e.Columns
	}
	if v == nil {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return v, true
}

// Put persists v under k. Values of unknown type are ignored (the memory
// layer above still holds them for this process's lifetime).
func (c *DiskCache) Put(k bmf.Key, v any) {
	var e diskEntry
	switch r := v.(type) {
	case *bmf.Result:
		e = diskEntry{Kind: "asso", Result: r}
	case *bmf.ColumnResult:
		e = diskEntry{Kind: "columns", Columns: r}
	default:
		return
	}
	path := c.path(k)
	if _, err := os.Stat(path); err == nil {
		return // content-addressed: an existing entry is already correct
	}
	// No fsync: a cache entry lost to a power cut merely costs one
	// refactorization, and Get validates (and removes) torn files anyway.
	// The fill retries like other store I/O but never trips the breaker —
	// and while the store is degraded, fills are skipped entirely (the
	// memory layer above still serves this process).
	err := c.st.withRetry("cache_write", false, func() error {
		if err := c.st.injector().Fire(faults.OpCacheWrite); err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return WriteFileAtomic(path, false, func(w io.Writer) error {
			return json.NewEncoder(w).Encode(&e)
		})
	})
	if err != nil {
		// Degraded drops are expected in bulk and already counted; one warn
		// per skipped fill would drown the log.
		if !errors.Is(err, ErrDegraded) {
			c.log.Warn("store: cache put failed", "key", fmt.Sprintf("%x", k[:4]), "err", err)
		}
		return
	}
	c.entries.Add(1)
}

// Stats returns cumulative counters; Entries counts files written or found
// on disk.
func (c *DiskCache) Stats() bmf.CacheStats {
	return bmf.CacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Entries: c.entries.Load(),
	}
}

// TieredCache layers an in-process MemoryCache over a DiskCache: gets hit
// memory first and promote disk hits into memory; puts write through to both
// layers. This is the cache a durable service runs with — the memory layer
// keeps the hot loop allocation-free and lock-cheap, the disk layer makes
// warm factorizations survive restarts.
type TieredCache struct {
	mem  *bmf.MemoryCache
	disk *DiskCache

	hits, misses atomic.Uint64
}

// TieredCache returns the store's ready-to-use two-layer factorization
// cache (fresh memory layer over the store's disk layer).
func (s *Store) TieredCache() *TieredCache {
	return &TieredCache{mem: bmf.NewMemoryCache(), disk: s.DiskCache()}
}

// Get hits the memory layer, then the disk layer (promoting into memory).
// Each layer records its own telemetry tier; the combined lookup reports as
// tier "tiered".
func (c *TieredCache) Get(k bmf.Key) (any, bool) {
	start := time.Now()
	v, ok := c.get(k)
	bmf.ObserveCacheGet("tiered", ok, time.Since(start))
	return v, ok
}

func (c *TieredCache) get(k bmf.Key) (any, bool) {
	if v, ok := c.mem.Get(k); ok {
		c.hits.Add(1)
		return v, true
	}
	if v, ok := c.disk.Get(k); ok {
		c.mem.Put(k, v)
		c.hits.Add(1)
		return v, true
	}
	c.misses.Add(1)
	return nil, false
}

// Put writes through to both layers.
func (c *TieredCache) Put(k bmf.Key, v any) {
	c.mem.Put(k, v)
	c.disk.Put(k, v)
}

// Stats reports combined-layer hits/misses and the durable entry count.
func (c *TieredCache) Stats() bmf.CacheStats {
	return bmf.CacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Entries: c.disk.Stats().Entries,
	}
}
