// Package verilog writes gate-level netlists as synthesizable structural
// Verilog, so results of the flow can be taken into any downstream tool.
package verilog

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/blasys-go/blasys/internal/logic"
)

// Write emits the circuit as a single Verilog module built from continuous
// assignments.
func Write(w io.Writer, c *logic.Circuit) error {
	bw := bufio.NewWriter(w)
	names := netNames(c)
	outNames := outputNames(c)

	ports := make([]string, 0, len(c.Inputs)+len(c.Outputs))
	for _, in := range c.Inputs {
		ports = append(ports, names[in])
	}
	ports = append(ports, outNames...)
	fmt.Fprintf(bw, "module %s(%s);\n", sanitize(c.Name, "top"), strings.Join(ports, ", "))
	for _, in := range c.Inputs {
		fmt.Fprintf(bw, "  input %s;\n", names[in])
	}
	for _, n := range outNames {
		fmt.Fprintf(bw, "  output %s;\n", n)
	}

	live := c.TransitiveFanin(c.Outputs...)
	for i := range c.Nodes {
		if !live[i] {
			continue
		}
		switch c.Nodes[i].Op {
		case logic.Const0, logic.Const1, logic.Input:
			continue
		}
		fmt.Fprintf(bw, "  wire %s;\n", names[i])
	}
	for i := range c.Nodes {
		n := &c.Nodes[i]
		if !live[i] {
			continue
		}
		switch n.Op {
		case logic.Const0, logic.Const1, logic.Input:
			continue
		}
		fmt.Fprintf(bw, "  assign %s = %s;\n", names[i], expr(n, names))
	}
	for i, o := range c.Outputs {
		fmt.Fprintf(bw, "  assign %s = %s;\n", outNames[i], operand(o, names))
	}
	fmt.Fprintln(bw, "endmodule")
	return bw.Flush()
}

// WriteFile writes the circuit to a Verilog file.
func WriteFile(path string, c *logic.Circuit) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Write(f, c)
}

func expr(n *logic.Node, names []string) string {
	a := operand(n.Fanin[0], names)
	var b, s string
	if n.Nfanin > 1 {
		b = operand(n.Fanin[1], names)
	}
	if n.Nfanin > 2 {
		s = operand(n.Fanin[2], names)
	}
	switch n.Op {
	case logic.Buf:
		return a
	case logic.Not:
		return "~" + a
	case logic.And:
		return a + " & " + b
	case logic.Or:
		return a + " | " + b
	case logic.Xor:
		return a + " ^ " + b
	case logic.Nand:
		return "~(" + a + " & " + b + ")"
	case logic.Nor:
		return "~(" + a + " | " + b + ")"
	case logic.Xnor:
		return "~(" + a + " ^ " + b + ")"
	case logic.Mux:
		return a + " ? " + s + " : " + b
	}
	panic(fmt.Sprintf("verilog: cannot serialize op %s", n.Op))
}

func operand(id logic.NodeID, names []string) string {
	switch id {
	case 0:
		return "1'b0"
	case 1:
		return "1'b1"
	}
	return names[id]
}

func netNames(c *logic.Circuit) []string {
	names := make([]string, len(c.Nodes))
	used := make(map[string]bool)
	for i, in := range c.Inputs {
		n := sanitize(c.InputNames[i], fmt.Sprintf("pi%d", i))
		for used[n] {
			n += "_"
		}
		used[n] = true
		names[in] = n
	}
	for i := range c.Nodes {
		if names[i] != "" {
			continue
		}
		n := fmt.Sprintf("n%d", i)
		for used[n] {
			n += "_"
		}
		used[n] = true
		names[i] = n
	}
	return names
}

func outputNames(c *logic.Circuit) []string {
	used := make(map[string]bool)
	out := make([]string, len(c.Outputs))
	for i := range c.Outputs {
		n := sanitize(c.OutputNames[i], fmt.Sprintf("po%d", i))
		for used[n] {
			n += "_"
		}
		used[n] = true
		out[i] = n
	}
	return out
}

func sanitize(s, fallback string) string {
	if s == "" {
		return fallback
	}
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	out := b.String()
	if out == "" || (out[0] >= '0' && out[0] <= '9') {
		out = "s_" + out
	}
	return out
}
