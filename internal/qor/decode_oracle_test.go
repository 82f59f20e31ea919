package qor

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// oracleBatchStats is the metric decode as it was before the reference-decode
// cache became mandatory and the flip masks were scattered: every mismatching
// lane gathers its reference integer from the output words, and rebuilds its
// flip mask from every differing bit position of the group. It is kept only
// as the oracle computeBatchStats must match bit for bit.
func oracleBatchStats(spec *OutputSpec, out, refOut []uint64, mask uint64, p *batchStats) {
	p.reset(len(spec.Groups))
	diff := make([]uint64, len(out))
	var anyDiff uint64
	var hamming int
	for o := range out {
		d := (out[o] ^ refOut[o]) & mask
		diff[o] = d
		hamming += bits.OnesCount64(d)
		anyDiff |= d
	}
	p.hamming += int64(hamming)
	p.errSamples += int64(bits.OnesCount64(anyDiff))
	if anyDiff == 0 {
		return
	}
	worstRel, worstAbs := p.worstRel, p.worstAbs
	for gi := range spec.Groups {
		g := &spec.Groups[gi]
		var diffJ []uint
		var diffD []uint64
		var groupDiff uint64
		for j, bit := range g.Bits {
			if d := diff[bit]; d != 0 {
				diffJ = append(diffJ, uint(j))
				diffD = append(diffD, d)
				groupDiff |= d
			}
		}
		var sumAbs, sumSq, sumRel float64
		for lanes := groupDiff; lanes != 0; lanes &= lanes - 1 {
			lane := uint(bits.TrailingZeros64(lanes))
			rvInt := decodeInt(refOut, g, lane)
			rv := groupFloat(g, rvInt)
			den := math.Max(math.Abs(rv), 1)
			var flip uint64
			for di, j := range diffJ {
				flip |= (diffD[di] >> lane & 1) << j
			}
			av := groupFloat(g, rvInt^flip)
			abs := math.Abs(av - rv)
			rel := abs / den
			sumAbs += abs
			sumSq += abs * abs
			sumRel += rel
			if rel > worstRel {
				worstRel = rel
			}
			if abs > worstAbs {
				worstAbs = abs
			}
		}
		p.sumAbs[gi] = sumAbs
		p.sumSq[gi] = sumSq
		p.sumRel[gi] = sumRel
	}
	p.worstRel, p.worstAbs = worstRel, worstAbs
}

// sameBatchStats reports the first field where got and want differ,
// comparing floats by their bits.
func sameBatchStats(got, want *batchStats) error {
	if got.hamming != want.hamming || got.errSamples != want.errSamples {
		return fmt.Errorf("hamming/errSamples %d/%d, oracle %d/%d",
			got.hamming, got.errSamples, want.hamming, want.errSamples)
	}
	fb := math.Float64bits
	if fb(got.worstRel) != fb(want.worstRel) || fb(got.worstAbs) != fb(want.worstAbs) {
		return fmt.Errorf("worstRel/worstAbs %v/%v, oracle %v/%v",
			got.worstRel, got.worstAbs, want.worstRel, want.worstAbs)
	}
	for gi := range want.sumRel {
		if fb(got.sumRel[gi]) != fb(want.sumRel[gi]) ||
			fb(got.sumAbs[gi]) != fb(want.sumAbs[gi]) ||
			fb(got.sumSq[gi]) != fb(want.sumSq[gi]) {
			return fmt.Errorf("group %d sums rel/abs/sq %v/%v/%v, oracle %v/%v/%v", gi,
				got.sumRel[gi], got.sumAbs[gi], got.sumSq[gi],
				want.sumRel[gi], want.sumAbs[gi], want.sumSq[gi])
		}
	}
	return nil
}

// noiseWord draws a 64-lane diff word whose density is set by level: 0 is
// clean, 1–5 set each lane with probability 2^-(6-level) (sparse to half),
// and 6 flips every lane.
func noiseWord(rng *rand.Rand, level int) uint64 {
	switch level {
	case 0:
		return 0
	case 6:
		return ^uint64(0)
	}
	w := ^uint64(0)
	for i := 0; i < 6-level; i++ {
		w &= rng.Uint64()
	}
	return w
}

// TestFlipDecodeMatchesOracle checks the scattered-flip decode over the
// reference-decode cache against oracleBatchStats, field by field, on seeded
// random output and reference words. One batchStats is reused across every
// batch of every case, as reportAccum reuses its scratch.
//
// It then checks the committed-relative decode (committedLanes.score) the
// same way: every batch advances a committed state through seeded random
// commits in update mode, and then scores candidates equal to the committed
// state, equal to the reference, reverting some lanes to the reference, and
// random around the committed state. Every partial — the committed one after
// each commit, and each candidate's — must equal the oracle's decode of
// those outputs against the reference.
func TestFlipDecodeMatchesOracle(t *testing.T) {
	// span lists output indices [lo, lo+n).
	span := func(lo, n int) []int {
		b := make([]int, n)
		for i := range b {
			b[i] = lo + i
		}
		return b
	}
	cases := []struct {
		name   string
		nOut   int
		groups []Group
	}{
		{"u1", 1, []Group{{Bits: span(0, 1)}}},
		{"s1", 1, []Group{{Bits: span(0, 1), Signed: true}}},
		{"u33", 33, []Group{{Bits: span(0, 33)}}},
		{"s33", 33, []Group{{Bits: span(0, 33), Signed: true}}},
		{"u63", 63, []Group{{Bits: span(0, 63)}}},
		{"s63", 63, []Group{{Bits: span(0, 63), Signed: true}}},
		// Several groups over disjoint outputs: one batch's dirty lanes
		// overlap across groups, so a flip mask left behind by one group
		// would corrupt the next group's value at the same lane.
		{"multi", 1 + 33 + 63 + 8, []Group{
			{Bits: span(0, 1)},
			{Bits: span(1, 33), Signed: true},
			{Bits: span(34, 63)},
			{Bits: span(97, 8), Signed: true},
		}},
		// Groups that share outputs, listed in different orders.
		{"shared", 40, []Group{
			{Bits: span(0, 40)},
			{Bits: []int{39, 3, 17, 0, 21, 8, 30}, Signed: true},
			{Bits: span(10, 20)},
		}},
	}
	const batchesPerCase = 300
	rng := rand.New(rand.NewSource(16))
	var got, want batchStats
	for _, tc := range cases {
		spec := OutputSpec{Groups: tc.groups}
		refOut := make([][]uint64, batchesPerCase)
		for b := range refOut {
			refOut[b] = make([]uint64, tc.nOut)
			for o := range refOut[b] {
				refOut[b][o] = rng.Uint64()
			}
		}
		rc := buildRefLanes(&spec, refOut)
		rc.addFloats(&spec)
		out := make([]uint64, tc.nOut)
		for b := range refOut {
			// Every batch draws one density for all outputs half the time,
			// and a density per output otherwise, so batches run from
			// bit-exact through sparse to fully dirty.
			level, perOutput := rng.Intn(7), rng.Intn(2) == 0
			for o := range out {
				if perOutput {
					level = rng.Intn(7)
				}
				out[o] = refOut[b][o] ^ noiseWord(rng, level)
			}
			mask := ^uint64(0)
			switch rng.Intn(4) {
			case 0:
				mask = uint64(1)<<uint(1+rng.Intn(63)) - 1 // partial final batch
			case 1:
				mask = 1 // a single valid sample
			}
			computeBatchStats(&spec, out, refOut[b], mask, &got, rc, b)
			oracleBatchStats(&spec, out, refOut[b], mask, &want)
			if err := sameBatchStats(&got, &want); err != nil {
				t.Fatalf("%s batch %d mask %#x: %v", tc.name, b, mask, err)
			}
		}
		checkCommittedDecode(t, rng, tc.name, &spec, refOut)
	}
}

// checkCommittedDecode runs the committed-relative half of
// TestFlipDecodeMatchesOracle over one case's reference words.
func checkCommittedDecode(t *testing.T, rng *rand.Rand, name string, spec *OutputSpec, refOut [][]uint64) {
	t.Helper()
	nOut := len(refOut[0])
	cl := newCommittedLanes(spec, buildRefLanes(spec, refOut))
	committed := make([]batchStats, len(refOut))
	diff := make([]uint64, nOut)
	var got, want batchStats
	var tally laneTally
	// score decodes cand against the committed words com; a false return
	// means the partial is the committed one.
	score := func(b int, cand, com []uint64, mask uint64, p *batchStats, update bool) *batchStats {
		if cl.score(b, cand, com, refOut[b], mask, diff, p, update, &tally) {
			return p
		}
		return &committed[b]
	}
	// noisy returns the words w with every output flipped at one random
	// density, or at a density per output.
	noisy := func(w []uint64) []uint64 {
		c := make([]uint64, len(w))
		level, perOutput := rng.Intn(7), rng.Intn(2) == 0
		for o := range c {
			if perOutput {
				level = rng.Intn(7)
			}
			c[o] = w[o] ^ noiseWord(rng, level)
		}
		return c
	}
	// reverted returns w with a random set of lanes back at the reference.
	reverted := func(b int, w []uint64) []uint64 {
		back := noiseWord(rng, rng.Intn(7))
		c := make([]uint64, len(w))
		for o := range c {
			c[o] = w[o]&^back | refOut[b][o]&back
		}
		return c
	}
	for b := range refOut {
		committed[b].reset(len(spec.Groups))
		mask := ^uint64(0)
		switch rng.Intn(4) {
		case 0:
			mask = uint64(1)<<uint(1+rng.Intn(63)) - 1
		case 1:
			mask = 1
		}
		com := append([]uint64(nil), refOut[b]...)
		for c, n := 0, rng.Intn(4); c < n; c++ {
			next := noisy(com)
			if rng.Intn(3) == 0 {
				next = reverted(b, next)
			}
			score(b, next, com, mask, &committed[b], true)
			com = next
			oracleBatchStats(spec, com, refOut[b], mask, &want)
			if err := sameBatchStats(&committed[b], &want); err != nil {
				t.Fatalf("%s batch %d mask %#x commit %d: %v", name, b, mask, c, err)
			}
		}
		kinds := []struct {
			name string
			cand []uint64
		}{
			{"committed", com},
			{"reference", refOut[b]},
			{"reverting", reverted(b, com)},
			{"random", noisy(com)},
		}
		for _, k := range kinds {
			p := score(b, k.cand, com, mask, &got, false)
			oracleBatchStats(spec, k.cand, refOut[b], mask, &want)
			if err := sameBatchStats(p, &want); err != nil {
				t.Fatalf("%s batch %d mask %#x %s candidate: %v", name, b, mask, k.name, err)
			}
		}
	}
}
