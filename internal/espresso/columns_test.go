package espresso_test

import (
	"encoding/binary"
	"testing"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/espresso"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/partition"
	"github.com/blasys-go/blasys/internal/tt"
)

// assoColumns returns the distinct B columns of the ASSO factorizations, at
// every degree, of every block of the circuit, decomposed as the flow does
// by default (k = m = 10). These are the functions ASSO resynthesis
// minimizes.
func assoColumns(t *testing.T, c *logic.Circuit) []*tt.Table {
	t.Helper()
	prepared := logic.ReorderDFS(c)
	blocks, err := partition.Decompose(prepared, partition.Options{MaxInputs: 10, MaxOutputs: 10})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var out []*tt.Table
	for _, b := range blocks {
		if len(b.Outputs) < 2 || len(b.Inputs) == 0 {
			continue
		}
		M, err := partition.TruthMatrix(prepared, b)
		if err != nil {
			t.Fatal(err)
		}
		for f := 1; f < len(b.Outputs) && f <= bmf.MaxDegree; f++ {
			fr, err := bmf.Factorize(M, f, bmf.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < fr.B.Cols; i++ {
				col := fr.B.Column(i)
				key := []byte{byte(col.NumVars())}
				for _, w := range col.Words() {
					key = binary.LittleEndian.AppendUint64(key, w)
				}
				if !seen[string(key)] {
					seen[string(key)] = true
					out = append(out, col)
				}
			}
		}
	}
	return out
}

// TestMinimizeMatchesReferenceOnASSOColumns pins Minimize and ISOP to the reference
// implementations on the functions the flow actually minimizes: every B
// column of BUT, Adder32 and Mult8, and each column's complement (FromTable
// minimizes both phases).
func TestMinimizeMatchesReferenceOnASSOColumns(t *testing.T) {
	for _, c := range []bench.Circuit{bench.BUT(), bench.Adder32(), bench.Mult8()} {
		cols := assoColumns(t, c.Circ)
		if len(cols) == 0 {
			t.Fatalf("%s: no B columns", c.Name)
		}
		for i, col := range cols {
			for _, on := range []*tt.Table{col, col.Not()} {
				if got, want := espresso.Minimize(on, nil), espresso.MinimizeRef(on, nil); got.String() != want.String() {
					t.Fatalf("%s column %d (%v): Minimize\n%v\nreference\n%v", c.Name, i, on, got, want)
				}
				if got, want := espresso.ISOP(on, nil), espresso.ISOPRef(on, nil); got.String() != want.String() {
					t.Fatalf("%s column %d (%v): ISOP\n%v\nreference\n%v", c.Name, i, on, got, want)
				}
			}
		}
		t.Logf("%s: %d distinct B columns", c.Name, len(cols))
	}
}
