package core

import (
	"testing"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/partition"
)

// TestProfileCacheCountsMatchPerDegreeLoop checks that profiling through
// one all-degree factorization call per block looks to a cache exactly
// like one cached call per degree: a serial profile of Mult8, cold and then
// warm, makes the same number of Gets with the same hits, misses and
// entries as replaying the per-degree FactorizeCached (or
// FactorizeColumnsCached) loop over the same blocks on a fresh cache.
func TestProfileCacheCountsMatchPerDegreeLoop(t *testing.T) {
	bm := bench.Mult8()
	for _, basis := range []Basis{BasisColumns, BasisASSO} {
		cache := bmf.NewMemoryCache()
		cfg := Config{Basis: basis, Samples: 1 << 8, Seed: 1, MaxSteps: -1, Parallelism: 1, Workers: 1, Cache: cache}
		res, err := Approximate(bm.Circ, bm.Spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cold := cache.Stats()
		if _, err := Approximate(bm.Circ, bm.Spec, cfg); err != nil {
			t.Fatal(err)
		}
		warm := cache.Stats()

		// The per-degree loop profiling ran before the all-degree kernel.
		blocks := make([]partition.Block, len(res.Profiles))
		for bi, p := range res.Profiles {
			blocks[bi] = p.Block
		}
		weights := blockOutputWeights(res.Circuit, blocks, res.Spec, res.Config.Weighted)
		ref := bmf.NewMemoryCache()
		perDegree := func() bmf.CacheStats {
			for bi, p := range res.Profiles {
				if len(p.Variants) == 0 {
					continue
				}
				M, err := partition.TruthMatrix(res.Circuit, p.Block)
				if err != nil {
					t.Fatal(err)
				}
				opts := bmf.Options{Semiring: res.Config.Semiring, ColWeights: weights[bi], TauSweep: res.Config.TauSweep}
				for f := 1; f <= len(p.Variants); f++ {
					if basis == BasisASSO {
						_, err = bmf.FactorizeCached(ref, M, f, opts)
					} else {
						_, err = bmf.FactorizeColumnsCached(ref, M, f, opts)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			return ref.Stats()
		}
		if want := perDegree(); cold != want {
			t.Fatalf("%v cold: cache stats %+v, per-degree loop %+v", basis, cold, want)
		}
		if want := perDegree(); warm != want {
			t.Fatalf("%v warm: cache stats %+v, per-degree loop %+v", basis, warm, want)
		}
		if cold.Hits == 0 {
			t.Fatalf("%v: no block repeated another's problem; the hit count went unexercised", basis)
		}
	}
}
