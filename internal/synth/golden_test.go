package synth_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/synth"
	"github.com/blasys-go/blasys/internal/tt"
)

// The digests below were recorded with the table-at-a-time truth-table and
// espresso kernels that the word-level ones replaced. They pin the
// synthesized netlists byte for byte: a kernel change that alters any cover,
// and so any gate, changes them.

// fromTableDCGolden digests FromTable netlists of seeded random functions
// with don't-care sets, the way SALSA resynthesizes cones.
const fromTableDCGolden = "cde8c56189c6d83fa815d79cf6d2391b9b1cd9ffc97c8c5e0320377ab96f0a57"

// approxBlockGolden digests ApproxBlock netlists at every degree of every
// block of BUT, Adder32 and Mult8.
const approxBlockGolden = "98c4393d59c9e7b1e7ae95c8d29944fab810221ff918aafedb590929df4fe6f9"

func TestFromTableWithDontCaresUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := sha256.New()
	for nvars := 2; nvars <= 10; nvars++ {
		for k := 0; k < 12; k++ {
			on, dc := tt.NewTable(nvars), tt.NewTable(nvars)
			density, dcDensity := rng.Float64(), 0.05+0.4*rng.Float64()
			for r := 0; r < on.Len(); r++ {
				on.Set(r, rng.Float64() < density)
				dc.Set(r, rng.Float64() < dcDensity)
			}
			b := logic.NewBuilder(fmt.Sprintf("dc%d_%d", nvars, k))
			vars := b.Inputs("x", nvars)
			b.Output("y", synth.FromTable(b, on, dc, vars, synth.Options{}))
			writeBLIF(t, h, b.C)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != fromTableDCGolden {
		t.Errorf("FromTable netlist digest %s, want %s", got, fromTableDCGolden)
	}
}

func TestApproxBlockUnchanged(t *testing.T) {
	h := sha256.New()
	for _, c := range []bench.Circuit{bench.BUT(), bench.Adder32(), bench.Mult8()} {
		for bi, frs := range blockFactorizations(t, c.Circ, 10, 10) {
			for _, fr := range frs {
				blk, err := synth.ApproxBlock(fmt.Sprintf("%s_b%d_f%d", c.Name, bi, fr.B.Cols), fr, bmf.Or, synth.Options{})
				if err != nil {
					t.Fatal(err)
				}
				writeBLIF(t, h, blk)
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != approxBlockGolden {
		t.Errorf("ApproxBlock netlist digest %s, want %s", got, approxBlockGolden)
	}
}
