package synth_test

import (
	"bytes"
	"fmt"
	"hash"
	"testing"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/blif"
	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/partition"
	"github.com/blasys-go/blasys/internal/synth"
)

// blockFactorizations returns, per block of the circuit (decomposed with at
// most k inputs and m outputs), the ASSO factorizations at every degree the
// flow profiles.
func blockFactorizations(t *testing.T, c *logic.Circuit, k, m int) [][]*bmf.Result {
	t.Helper()
	prepared := logic.ReorderDFS(c)
	blocks, err := partition.Decompose(prepared, partition.Options{MaxInputs: k, MaxOutputs: m})
	if err != nil {
		t.Fatal(err)
	}
	var out [][]*bmf.Result
	for _, b := range blocks {
		if len(b.Outputs) < 2 || len(b.Inputs) == 0 {
			continue
		}
		M, err := partition.TruthMatrix(prepared, b)
		if err != nil {
			t.Fatal(err)
		}
		var frs []*bmf.Result
		for f := 1; f < len(b.Outputs) && f <= bmf.MaxDegree; f++ {
			fr, err := bmf.Factorize(M, f, bmf.Options{})
			if err != nil {
				t.Fatal(err)
			}
			frs = append(frs, fr)
		}
		out = append(out, frs)
	}
	return out
}

func writeBLIF(t *testing.T, h hash.Hash, c *logic.Circuit) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := blif.Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	if h != nil {
		h.Write(buf.Bytes())
	}
	return buf.Bytes()
}

// TestSharedMemoMatchesFreshApproxBlock synthesizes every degree of a block
// through one Synthesizer, as block profiling does, and requires each
// netlist to equal a fresh package-level ApproxBlock's, byte for byte.
func TestSharedMemoMatchesFreshApproxBlock(t *testing.T) {
	cases := []struct {
		circ bench.Circuit
		k, m int
		opt  synth.Options
	}{
		{bench.BUT(), 10, 10, synth.Options{}},
		{bench.Adder32(), 10, 10, synth.Options{}},
		{bench.Mult8(), 10, 10, synth.Options{}},
		{bench.BUT(), 6, 4, synth.Options{Exact: true}},
		{bench.Mult8(), 6, 4, synth.Options{}},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/k%d/%+v", tc.circ.Name, tc.k, tc.opt)
		for bi, frs := range blockFactorizations(t, tc.circ.Circ, tc.k, tc.m) {
			sy := synth.New(tc.opt)
			for _, fr := range frs {
				blk := fmt.Sprintf("b%d_f%d", bi, fr.B.Cols)
				shared, err := sy.ApproxBlock(blk, fr, bmf.Or)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := synth.ApproxBlock(blk, fr, bmf.Or, tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(writeBLIF(t, nil, shared), writeBLIF(t, nil, fresh)) {
					t.Fatalf("%s block %s: shared-memo netlist differs from a fresh ApproxBlock", name, blk)
				}
			}
		}
	}
}
