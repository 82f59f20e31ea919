package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/blif"
)

// variantDigest hashes every profiled variant's netlist as BLIF, plus the
// committed steps.
func variantDigest(t *testing.T, res *Result) string {
	t.Helper()
	h := sha256.New()
	for bi, p := range res.Profiles {
		for _, v := range p.Variants {
			var buf bytes.Buffer
			if err := blif.Write(&buf, v.Impl); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "block %d f %d area %v\n", bi, v.F, v.MappedArea)
			h.Write(buf.Bytes())
		}
	}
	for _, s := range res.Steps {
		fmt.Fprintf(h, "step %d %d %+v %v\n", s.BlockIndex, s.NewDegree, s.Report, s.ModelArea)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSynthExactDeterministic runs the same SynthExact ASSO job several
// times in one process: the variant netlists and steps must be identical,
// as for every other configuration.
func TestSynthExactDeterministic(t *testing.T) {
	but := bench.BUT()
	cfg := Config{K: 6, M: 4, Samples: 1 << 10, Seed: 3, Basis: BasisASSO, SynthExact: true}
	var ref string
	for run := 0; run < 4; run++ {
		res, err := Approximate(but.Circ, but.Spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := variantDigest(t, res)
		if run == 0 {
			ref = d
		} else if d != ref {
			t.Fatalf("run %d: variant digest %s, first run %s", run+1, d[:16], ref[:16])
		}
	}
}
