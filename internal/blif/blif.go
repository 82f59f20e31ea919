// Package blif reads and writes combinational netlists in Berkeley Logic
// Interchange Format (BLIF), the lingua franca of academic logic-synthesis
// tools (SIS, ABC, VTR). Only the combinational subset is supported:
// .model/.inputs/.outputs/.names/.end; latches are rejected.
package blif

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/blasys-go/blasys/internal/logic"
)

// Read parses a BLIF model into a circuit. Multi-model files use only the
// first model.
func Read(r io.Reader) (*logic.Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)

	var lines []string
	var pending strings.Builder
	for sc.Scan() {
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasSuffix(line, "\\") {
			pending.WriteString(strings.TrimSuffix(line, "\\"))
			pending.WriteByte(' ')
			continue
		}
		pending.WriteString(line)
		lines = append(lines, pending.String())
		pending.Reset()
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	type namesBlock struct {
		signals []string // inputs then the defined output
		cover   []string
	}
	var (
		model   string
		inputs  []string
		outputs []string
		blocks  []*namesBlock
		current *namesBlock
	)
	for _, line := range lines {
		fields := strings.Fields(line)
		switch fields[0] {
		case ".model":
			if model == "" && len(fields) > 1 {
				model = fields[1]
			}
		case ".inputs":
			inputs = append(inputs, fields[1:]...)
			current = nil
		case ".outputs":
			outputs = append(outputs, fields[1:]...)
			current = nil
		case ".names":
			if len(fields) < 2 {
				return nil, fmt.Errorf("blif: .names without signals")
			}
			current = &namesBlock{signals: fields[1:]}
			blocks = append(blocks, current)
		case ".latch":
			return nil, fmt.Errorf("blif: sequential elements (.latch) are not supported")
		case ".end":
			current = nil
		default:
			if strings.HasPrefix(fields[0], ".") {
				// Ignore unknown dot-directives (.default_input_arrival etc).
				current = nil
				continue
			}
			if current == nil {
				return nil, fmt.Errorf("blif: cover line %q outside .names", line)
			}
			current.cover = append(current.cover, line)
		}
	}
	if model == "" {
		model = "blif"
	}

	b := logic.NewBuilder(model)
	nets := make(map[string]logic.NodeID)
	for _, in := range inputs {
		if _, dup := nets[in]; dup {
			return nil, fmt.Errorf("blif: duplicate input %s", in)
		}
		nets[in] = b.Input(in)
	}

	// Resolve .names blocks in dependency order (BLIF allows any order).
	defined := make(map[string]*namesBlock, len(blocks))
	for _, blk := range blocks {
		out := blk.signals[len(blk.signals)-1]
		if _, dup := defined[out]; dup {
			return nil, fmt.Errorf("blif: signal %s defined twice", out)
		}
		defined[out] = blk
	}
	var resolve func(name string, path map[string]bool) (logic.NodeID, error)
	resolve = func(name string, path map[string]bool) (logic.NodeID, error) {
		if id, ok := nets[name]; ok {
			return id, nil
		}
		blk, ok := defined[name]
		if !ok {
			return 0, fmt.Errorf("blif: signal %s never defined", name)
		}
		if path[name] {
			return 0, fmt.Errorf("blif: combinational cycle through %s", name)
		}
		path[name] = true
		ins := make([]logic.NodeID, len(blk.signals)-1)
		for i, s := range blk.signals[:len(blk.signals)-1] {
			id, err := resolve(s, path)
			if err != nil {
				return 0, err
			}
			ins[i] = id
		}
		delete(path, name)
		id, err := coverToNode(b, blk.cover, ins)
		if err != nil {
			return 0, fmt.Errorf("blif: signal %s: %w", name, err)
		}
		nets[name] = id
		return id, nil
	}
	for _, out := range outputs {
		id, err := resolve(out, make(map[string]bool))
		if err != nil {
			return nil, err
		}
		b.Output(out, id)
	}
	if err := b.C.Validate(); err != nil {
		return nil, err
	}
	return b.C, nil
}

// coverToNode lowers a .names cover to gates.
func coverToNode(b *logic.Builder, cover []string, ins []logic.NodeID) (logic.NodeID, error) {
	if len(ins) == 0 {
		// Constant: a "1" line means const1; empty cover means const0.
		for _, line := range cover {
			if strings.TrimSpace(line) == "1" {
				return b.Const(true), nil
			}
		}
		return b.Const(false), nil
	}
	var onTerms, offTerms []logic.NodeID
	for _, line := range cover {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return 0, fmt.Errorf("malformed cover line %q", line)
		}
		pat, val := fields[0], fields[1]
		if len(pat) != len(ins) {
			return 0, fmt.Errorf("cover %q has %d columns for %d inputs", pat, len(pat), len(ins))
		}
		var lits []logic.NodeID
		for i, ch := range pat {
			switch ch {
			case '1':
				lits = append(lits, ins[i])
			case '0':
				lits = append(lits, b.Not(ins[i]))
			case '-':
			default:
				return 0, fmt.Errorf("bad cover character %q", string(ch))
			}
		}
		term := b.AndTree(lits)
		switch val {
		case "1":
			onTerms = append(onTerms, term)
		case "0":
			offTerms = append(offTerms, term)
		default:
			return 0, fmt.Errorf("bad cover output %q", val)
		}
	}
	if len(onTerms) > 0 && len(offTerms) > 0 {
		return 0, fmt.Errorf("cover mixes ON and OFF lines")
	}
	if len(offTerms) > 0 {
		return b.Not(b.OrTree(offTerms)), nil
	}
	return b.OrTree(onTerms), nil
}

// ReadFile parses a BLIF file.
func ReadFile(path string) (*logic.Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// Write emits the circuit as a BLIF model, one .names block per gate.
func Write(w io.Writer, c *logic.Circuit) error {
	bw := bufio.NewWriter(w)
	names := netNames(c)
	fmt.Fprintf(bw, ".model %s\n", sanitize(c.Name, "model"))
	fmt.Fprintf(bw, ".inputs")
	for _, in := range c.Inputs {
		fmt.Fprintf(bw, " %s", names[in])
	}
	fmt.Fprintln(bw)
	fmt.Fprintf(bw, ".outputs")
	outNames := make([]string, len(c.Outputs))
	used := map[string]bool{}
	for i := range c.Outputs {
		n := sanitize(c.OutputNames[i], fmt.Sprintf("po%d", i))
		for used[n] {
			n += "_"
		}
		used[n] = true
		outNames[i] = n
		fmt.Fprintf(bw, " %s", n)
	}
	fmt.Fprintln(bw)

	live := c.TransitiveFanin(c.Outputs...)
	for i := range c.Nodes {
		n := &c.Nodes[i]
		if !live[i] {
			continue
		}
		switch n.Op {
		case logic.Const0, logic.Const1, logic.Input:
			continue
		}
		writeNames(bw, names, logic.NodeID(i), n)
	}
	// Output buffers (outputs may alias internal nets, inputs or constants).
	for i, o := range c.Outputs {
		switch c.Nodes[o].Op {
		case logic.Const0:
			fmt.Fprintf(bw, ".names %s\n", outNames[i])
		case logic.Const1:
			fmt.Fprintf(bw, ".names %s\n1\n", outNames[i])
		default:
			fmt.Fprintf(bw, ".names %s %s\n1 1\n", names[o], outNames[i])
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// WriteFile writes the circuit to a BLIF file.
func WriteFile(path string, c *logic.Circuit) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Write(f, c)
}

func writeNames(w io.Writer, names []string, id logic.NodeID, n *logic.Node) {
	ins := n.Fanins()
	fmt.Fprintf(w, ".names")
	for _, f := range ins {
		fmt.Fprintf(w, " %s", names[f])
	}
	fmt.Fprintf(w, " %s\n", names[id])
	switch n.Op {
	case logic.Buf:
		fmt.Fprintln(w, "1 1")
	case logic.Not:
		fmt.Fprintln(w, "0 1")
	case logic.And:
		fmt.Fprintln(w, "11 1")
	case logic.Or:
		fmt.Fprintln(w, "1- 1\n-1 1")
	case logic.Xor:
		fmt.Fprintln(w, "10 1\n01 1")
	case logic.Nand:
		fmt.Fprintln(w, "0- 1\n-0 1")
	case logic.Nor:
		fmt.Fprintln(w, "00 1")
	case logic.Xnor:
		fmt.Fprintln(w, "11 1\n00 1")
	case logic.Mux:
		// Fanins are (s, a0, a1): out = s ? a1 : a0.
		fmt.Fprintln(w, "01- 1\n1-1 1")
	default:
		panic(fmt.Sprintf("blif: cannot serialize op %s", n.Op))
	}
}

// netNames assigns a unique BLIF identifier to every node.
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
