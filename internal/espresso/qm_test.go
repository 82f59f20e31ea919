package espresso

import (
	"math/rand"
	"testing"
)

// TestMinimizeExactDeterministic calls MinimizeExact repeatedly on the same
// functions: the covers must be identical. Prime generation merges cubes
// through maps, and the covering steps break ties by prime index, so an
// unordered prime list returned a different minimum cover on about half of
// these functions.
func TestMinimizeExactDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		nvars := 3 + rng.Intn(4)
		on := randomTable(rng, nvars, 0.2+0.6*rng.Float64())
		dc := randomTable(rng, nvars, 0.15).And(on.Not())
		if trial%2 == 0 {
			dc = nil
		}
		first, err := MinimizeExact(on, dc)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			again, err := MinimizeExact(on, dc)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCubes(first, again) {
				t.Fatalf("trial %d (nvars=%d, dc=%v): call %d returned\n%v\nfirst call\n%v",
					trial, nvars, dc != nil, rep+2, again, first)
			}
		}
	}
}
