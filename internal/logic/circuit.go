// Package logic provides the gate-level combinational netlist representation
// used throughout the BLASYS flow, together with a 64-way bit-parallel
// simulator, structural-hashing construction, cleanup passes, and block
// substitution.
//
// A Circuit is a DAG of nodes stored in topological order: every node's
// fanins have smaller indices. Node 0 is always the constant-0 node and node
// 1 the constant-1 node; primary inputs follow, then gates. Outputs are
// references to arbitrary nodes.
package logic

import (
	"fmt"
	"strings"
)

// NodeID identifies a node within a Circuit. IDs are indices into
// Circuit.Nodes.
type NodeID int32

// Nil is the invalid node ID.
const Nil NodeID = -1

// Op enumerates gate operations. All gates have at most three fanins
// (three only for MUX); multi-input functions are built as gate trees.
type Op uint8

// Gate operations.
const (
	Const0 Op = iota // constant 0, no fanins
	Const1           // constant 1, no fanins
	Input            // primary input, no fanins
	Buf              // identity, 1 fanin
	Not              // inverter, 1 fanin
	And              // 2-input AND
	Or               // 2-input OR
	Xor              // 2-input XOR
	Nand             // 2-input NAND
	Nor              // 2-input NOR
	Xnor             // 2-input XNOR
	Mux              // Mux(s, a, b) = b if s else a; 3 fanins (s, a, b)
	numOps
)

var opNames = [numOps]string{
	"const0", "const1", "input", "buf", "not", "and", "or", "xor",
	"nand", "nor", "xnor", "mux",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Arity returns the fanin count required by the operation.
func (o Op) Arity() int {
	switch o {
	case Const0, Const1, Input:
		return 0
	case Buf, Not:
		return 1
	case And, Or, Xor, Nand, Nor, Xnor:
		return 2
	case Mux:
		return 3
	}
	panic(fmt.Sprintf("logic: unknown op %d", int(o)))
}

// Eval computes the gate function on explicit fanin values (64 parallel
// samples packed in each word).
func (o Op) Eval(a, b, c uint64) uint64 {
	switch o {
	case Const0:
		return 0
	case Const1:
		return ^uint64(0)
	case Buf:
		return a
	case Not:
		return ^a
	case And:
		return a & b
	case Or:
		return a | b
	case Xor:
		return a ^ b
	case Nand:
		return ^(a & b)
	case Nor:
		return ^(a | b)
	case Xnor:
		return ^(a ^ b)
	case Mux:
		return (a & c) | (^a & b)
	}
	panic(fmt.Sprintf("logic: cannot evaluate op %s", o))
}

// Node is a single gate, input, or constant in a circuit.
type Node struct {
	Op     Op
	Fanin  [3]NodeID
	Nfanin uint8
}

// Fanins returns the active fanin IDs as a slice (aliasing the node).
func (n *Node) Fanins() []NodeID { return n.Fanin[:n.Nfanin] }

// Circuit is a combinational logic network. The zero value is not usable;
// construct circuits with New or a Builder.
type Circuit struct {
	Name        string
	Nodes       []Node
	Inputs      []NodeID // primary inputs, in declaration order
	Outputs     []NodeID // primary outputs; may reference any node
	InputNames  []string // parallel to Inputs ("" allowed)
	OutputNames []string // parallel to Outputs ("" allowed)
}

// New returns an empty circuit containing only the two constant nodes.
func New(name string) *Circuit {
	return &Circuit{
		Name:  name,
		Nodes: []Node{{Op: Const0}, {Op: Const1}},
	}
}

// ConstNode returns the node ID of the requested constant.
func (c *Circuit) ConstNode(v bool) NodeID {
	if v {
		return 1
	}
	return 0
}

// AddInput appends a primary input and returns its node ID.
func (c *Circuit) AddInput(name string) NodeID {
	id := NodeID(len(c.Nodes))
	c.Nodes = append(c.Nodes, Node{Op: Input})
	c.Inputs = append(c.Inputs, id)
	c.InputNames = append(c.InputNames, name)
	return id
}

// AddInputs appends n primary inputs named prefix0..prefix(n-1) and returns
// their IDs.
func (c *Circuit) AddInputs(prefix string, n int) []NodeID {
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = c.AddInput(fmt.Sprintf("%s%d", prefix, i))
	}
	return ids
}

// AddGate appends a gate node. Fanins must already exist (topological
// construction). Returns the new node's ID.
func (c *Circuit) AddGate(op Op, fanins ...NodeID) NodeID {
	if len(fanins) != op.Arity() {
		panic(fmt.Sprintf("logic: AddGate(%s): got %d fanins, want %d", op, len(fanins), op.Arity()))
	}
	n := Node{Op: op, Nfanin: uint8(len(fanins))}
	for i, f := range fanins {
		if f < 0 || int(f) >= len(c.Nodes) {
			panic(fmt.Sprintf("logic: AddGate(%s): fanin %d out of range", op, f))
		}
		n.Fanin[i] = f
	}
	id := NodeID(len(c.Nodes))
	c.Nodes = append(c.Nodes, n)
	return id
}

// AddOutput registers node id as a primary output with the given name.
func (c *Circuit) AddOutput(name string, id NodeID) {
	if id < 0 || int(id) >= len(c.Nodes) {
		panic(fmt.Sprintf("logic: AddOutput(%q): node %d out of range", name, id))
	}
	c.Outputs = append(c.Outputs, id)
	c.OutputNames = append(c.OutputNames, name)
}

// AddOutputs registers a bus of outputs named prefix0..prefix(n-1),
// LSB first.
func (c *Circuit) AddOutputs(prefix string, ids []NodeID) {
	for i, id := range ids {
		c.AddOutput(fmt.Sprintf("%s%d", prefix, i), id)
	}
}

// NumGates counts logic nodes (everything except constants and inputs).
func (c *Circuit) NumGates() int {
	n := 0
	for i := range c.Nodes {
		switch c.Nodes[i].Op {
		case Const0, Const1, Input:
		default:
			n++
		}
	}
	return n
}

// NumInputs returns the primary input count.
func (c *Circuit) NumInputs() int { return len(c.Inputs) }

// NumOutputs returns the primary output count.
func (c *Circuit) NumOutputs() int { return len(c.Outputs) }

// Validate checks structural invariants: topological fanin order, arity,
// well-formed input/output references. It returns the first violation found.
func (c *Circuit) Validate() error {
	if len(c.Nodes) < 2 || c.Nodes[0].Op != Const0 || c.Nodes[1].Op != Const1 {
		return fmt.Errorf("logic: %s: missing constant nodes", c.Name)
	}
	if len(c.Inputs) != len(c.InputNames) {
		return fmt.Errorf("logic: %s: %d inputs but %d input names", c.Name, len(c.Inputs), len(c.InputNames))
	}
	if len(c.Outputs) != len(c.OutputNames) {
		return fmt.Errorf("logic: %s: %d outputs but %d output names", c.Name, len(c.Outputs), len(c.OutputNames))
	}
	for i, n := range c.Nodes {
		if int(n.Nfanin) != n.Op.Arity() {
			return fmt.Errorf("logic: %s: node %d (%s) has %d fanins, want %d", c.Name, i, n.Op, n.Nfanin, n.Op.Arity())
		}
		for _, f := range n.Fanins() {
			if f < 0 || int(f) >= len(c.Nodes) {
				return fmt.Errorf("logic: %s: node %d fanin %d out of range", c.Name, i, f)
			}
			if int(f) >= i {
				return fmt.Errorf("logic: %s: node %d fanin %d violates topological order", c.Name, i, f)
			}
		}
	}
	for i, in := range c.Inputs {
		if in < 0 || int(in) >= len(c.Nodes) || c.Nodes[in].Op != Input {
			return fmt.Errorf("logic: %s: input %d references node %d which is not an Input", c.Name, i, in)
		}
	}
	for i, out := range c.Outputs {
		if out < 0 || int(out) >= len(c.Nodes) {
			return fmt.Errorf("logic: %s: output %d references node %d out of range", c.Name, i, out)
		}
	}
	return nil
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	cp := &Circuit{
		Name:        c.Name,
		Nodes:       append([]Node(nil), c.Nodes...),
		Inputs:      append([]NodeID(nil), c.Inputs...),
		Outputs:     append([]NodeID(nil), c.Outputs...),
		InputNames:  append([]string(nil), c.InputNames...),
		OutputNames: append([]string(nil), c.OutputNames...),
	}
	return cp
}

// Levels returns each node's logic depth: inputs and constants are level 0,
// a gate is 1 + max(fanin levels). The second result is the circuit depth
// (maximum over outputs).
func (c *Circuit) Levels() ([]int, int) {
	lvl := make([]int, len(c.Nodes))
	for i := range c.Nodes {
		n := &c.Nodes[i]
		if n.Op == Input || n.Op == Const0 || n.Op == Const1 {
			continue
		}
		max := 0
		for _, f := range n.Fanins() {
			if lvl[f] > max {
				max = lvl[f]
			}
		}
		lvl[i] = max + 1
	}
	depth := 0
	for _, o := range c.Outputs {
		if lvl[o] > depth {
			depth = lvl[o]
		}
	}
	return lvl, depth
}

// TransitiveFanin returns the set of node IDs (as a bool slice indexed by
// node) in the transitive fanin of the given roots, including the roots.
func (c *Circuit) TransitiveFanin(roots ...NodeID) []bool {
	in := make([]bool, len(c.Nodes))
	stack := append([]NodeID(nil), roots...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if in[id] {
			continue
		}
		in[id] = true
		for _, f := range c.Nodes[id].Fanins() {
			if !in[f] {
				stack = append(stack, f)
			}
		}
	}
	return in
}

// TransitiveFanout returns the set of node IDs (as a bool slice indexed by
// node) reachable from the given roots through fanin references, including
// the roots: every node whose value can change when a root's value changes.
// It is the dual of TransitiveFanin and relies on the Circuit invariant that
// node indices are topologically ordered (fanins precede consumers), which
// Validate enforces; a single forward pass therefore suffices.
func (c *Circuit) TransitiveFanout(roots ...NodeID) []bool {
	out := make([]bool, len(c.Nodes))
	for _, r := range roots {
		out[r] = true
	}
	for i := range c.Nodes {
		if out[i] {
			continue
		}
		for _, f := range c.Nodes[i].Fanins() {
			if out[f] {
				out[i] = true
				break
			}
		}
	}
	return out
}

// Stats summarizes circuit size for logging.
func (c *Circuit) Stats() string {
	_, depth := c.Levels()
	return fmt.Sprintf("%s: %d inputs, %d outputs, %d gates, depth %d",
		c.Name, len(c.Inputs), len(c.Outputs), c.NumGates(), depth)
}

// String renders a compact textual netlist for debugging.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit %s\n", c.Name)
	for i, in := range c.Inputs {
		fmt.Fprintf(&b, "  input  n%d %s\n", in, c.InputNames[i])
	}
	for i := range c.Nodes {
		n := &c.Nodes[i]
		switch n.Op {
		case Const0, Const1, Input:
			continue
		}
		fmt.Fprintf(&b, "  n%d = %s(", i, n.Op)
		for j, f := range n.Fanins() {
			if j > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "n%d", f)
		}
		b.WriteString(")\n")
	}
	for i, o := range c.Outputs {
		fmt.Fprintf(&b, "  output n%d %s\n", o, c.OutputNames[i])
	}
	return b.String()
}
