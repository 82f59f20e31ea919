package bmf_test

import (
	"fmt"
	"testing"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/synth"
	"github.com/blasys-go/blasys/internal/techmap"
)

// TestFigure3HammingNoWorseThanPaper factorizes the 4x4 truth table of the
// paper's Fig. 3 at f = 3, 2, 1 and checks each Hamming distance against the
// figure's (3, 6 and 13 of 64). It logs the mapped area of each synthesized
// block beside the original's; the paper's areas (19.1, 16.2 and 9.4 of
// 22.3 µm²) come from its own library, so only their ratios compare.
func TestFigure3HammingNoWorseThanPaper(t *testing.T) {
	paper := map[int]int{3: 3, 2: 6, 1: 13}
	M := bench.Fig3Matrix()
	res, err := bmf.FactorizeDegrees(M, 3, bmf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lib := techmap.DefaultLibrary()
	orig, err := synth.CircuitFromMatrix("fig3", M, synth.Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	origMapped, err := techmap.Map(orig, lib)
	if err != nil {
		t.Fatal(err)
	}
	for f := 3; f >= 1; f-- {
		r := res[f-1]
		if r.Hamming > paper[f] {
			t.Errorf("f=%d: Hamming distance %d, the paper's is %d", f, r.Hamming, paper[f])
		}
		blk, err := synth.ApproxBlock(fmt.Sprintf("fig3_f%d", f), r, bmf.Or, synth.Options{Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := techmap.Map(blk, lib)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("f=%d: Hamming %d (paper %d), area %.1f of %.1f µm²", f, r.Hamming, paper[f], mapped.Area(), origMapped.Area())
	}
}
