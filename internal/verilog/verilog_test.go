package verilog

import (
	"bytes"
	"strings"
	"testing"

	"github.com/blasys-go/blasys/internal/logic"
)

func sampleCircuit() *logic.Circuit {
	b := logic.NewBuilder("sample")
	a := b.Input("a")
	x := b.Input("b[0]") // hostile name, must be sanitized
	c := b.Input("c")
	g := b.Mux(a, b.Xor(x, c), b.Nand(x, c))
	b.Output("y", g)
	b.Output("const_out", b.Const(true))
	return b.C
}

func TestWriteStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleCircuit()); err != nil {
		t.Fatal(err)
	}
	v := buf.String()
	for _, want := range []string{"module sample(", "input a;", "output y;", "endmodule", "1'b1"} {
		if !strings.Contains(v, want) {
			t.Errorf("output missing %q:\n%s", want, v)
		}
	}
	if strings.Contains(v, "[0]") {
		t.Errorf("unsanitized identifier leaked:\n%s", v)
	}
	// Every assign's RHS operands must be declared (inputs, wires, consts).
	if strings.Count(v, "assign") < 3 {
		t.Errorf("expected several assigns:\n%s", v)
	}
}

func TestWriteFile(t *testing.T) {
	path := t.TempDir() + "/c.v"
	if err := WriteFile(path, sampleCircuit()); err != nil {
		t.Fatal(err)
	}
}
