package logic

import (
	"strings"
	"testing"
)

func TestOpStringAndArity(t *testing.T) {
	cases := map[Op]struct {
		name  string
		arity int
	}{
		Const0: {"const0", 0}, Const1: {"const1", 0}, Input: {"input", 0},
		Buf: {"buf", 1}, Not: {"not", 1},
		And: {"and", 2}, Or: {"or", 2}, Xor: {"xor", 2},
		Nand: {"nand", 2}, Nor: {"nor", 2}, Xnor: {"xnor", 2},
		Mux: {"mux", 3},
	}
	for op, want := range cases {
		if op.String() != want.name {
			t.Errorf("Op(%d).String() = %q, want %q", int(op), op.String(), want.name)
		}
		if op.Arity() != want.arity {
			t.Errorf("%s.Arity() = %d, want %d", op, op.Arity(), want.arity)
		}
	}
	if !strings.Contains(Op(200).String(), "200") {
		t.Error("unknown op String should include the code")
	}
}

func TestOpEvalTruthTables(t *testing.T) {
	// Each op evaluated on all input word combinations of {0, ~0}.
	z, o := uint64(0), ^uint64(0)
	cases := []struct {
		op      Op
		a, b, c uint64
		want    uint64
	}{
		{Const0, z, z, z, z},
		{Const1, z, z, z, o},
		{Buf, o, z, z, o},
		{Not, o, z, z, z},
		{And, o, o, z, o},
		{And, o, z, z, z},
		{Or, z, z, z, z},
		{Or, o, z, z, o},
		{Xor, o, o, z, z},
		{Xor, o, z, z, o},
		{Nand, o, o, z, z},
		{Nor, z, z, z, o},
		{Xnor, o, o, z, o},
		{Mux, z, o, z, o}, // sel=0 -> b (second arg)
		{Mux, o, z, o, o}, // sel=1 -> c (third arg)
	}
	for _, tc := range cases {
		if got := tc.op.Eval(tc.a, tc.b, tc.c); got != tc.want {
			t.Errorf("%s.Eval(%x,%x,%x) = %x, want %x", tc.op, tc.a, tc.b, tc.c, got, tc.want)
		}
	}
}

func TestAddGatePanics(t *testing.T) {
	c := New("p")
	a := c.AddInput("a")
	mustPanic(t, "wrong arity", func() { c.AddGate(And, a) })
	mustPanic(t, "fanin out of range", func() { c.AddGate(Not, NodeID(99)) })
	mustPanic(t, "output out of range", func() { c.AddOutput("o", NodeID(99)) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	f()
}

func TestEvalPanicsOnWrongWidth(t *testing.T) {
	b := NewBuilder("w")
	a := b.Input("a")
	b.Output("o", b.Not(a))
	mustPanic(t, "Eval wrong width", func() { b.C.Eval([]bool{true, false}) })
	mustPanic(t, "Run wrong width", func() { NewSimulator(b.C).Run([]uint64{1, 2}, nil) })
}

func TestEvalUintWidthGuard(t *testing.T) {
	b := NewBuilder("wide")
	ins := b.Inputs("x", 65)
	b.Output("o", ins[0])
	mustPanic(t, "EvalUint > 64 inputs", func() { b.C.EvalUint(0) })
}

func TestOpCountsAndStats(t *testing.T) {
	b := NewBuilder("s")
	x := b.Input("x")
	y := b.Input("y")
	b.Output("o", b.And(b.Xor(x, y), b.Or(x, y)))
	stats := b.C.Stats()
	for _, want := range []string{"2 inputs", "1 outputs", "3 gates", "depth 2"} {
		if !strings.Contains(stats, want) {
			t.Errorf("Stats %q missing %q", stats, want)
		}
	}
	str := b.C.String()
	for _, want := range []string{"circuit s", "input", "output", "and("} {
		if !strings.Contains(str, want) {
			t.Errorf("String missing %q:\n%s", want, str)
		}
	}
}

func TestValidateNameMismatches(t *testing.T) {
	b := NewBuilder("v")
	a := b.Input("a")
	b.Output("o", a)
	c := b.C
	c.InputNames = nil
	if err := c.Validate(); err == nil {
		t.Error("accepted missing input names")
	}
	c = NewBuilder("v2").C
	c.OutputNames = []string{"phantom"}
	if err := c.Validate(); err == nil {
		t.Error("accepted output-name/output mismatch")
	}
}

func TestReplaceBlocksEmptySubsSweeps(t *testing.T) {
	b := NewBuilder("e")
	x := b.Input("x")
	dead := b.Not(x)
	_ = dead
	b.Output("o", x)
	got, err := ReplaceBlocks(b.C, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumGates() != 0 {
		t.Errorf("empty substitution should sweep dead gates, got %d", got.NumGates())
	}
}

func TestCountingWordsMatchesEnumeration(t *testing.T) {
	dst := make([]uint64, 8)
	CountingWords(128, dst)
	for i := range dst {
		for j := 0; j < 64; j++ {
			want := ((128+j)>>uint(i))&1 == 1
			if (dst[i]>>uint(j))&1 == 1 != want {
				t.Fatalf("CountingWords input %d lane %d wrong", i, j)
			}
		}
	}
}

func TestBuilderGateDispatch(t *testing.T) {
	// Builder.Gate must route every op through the simplifying builders.
	b := NewBuilder("d")
	x := b.Input("x")
	y := b.Input("y")
	if b.Gate(Buf, x) != x {
		t.Error("Gate(Buf) should be the identity")
	}
	if b.Gate(Nand, x, y) != b.Not(b.And(x, y)) {
		t.Error("Gate(Nand) not shared with Not(And)")
	}
	if b.Gate(Const1) != 1 || b.Gate(Const0) != 0 {
		t.Error("constants wrong")
	}
	if got := b.Gate(Xnor, x, y); got != b.Not(b.Xor(x, y)) {
		t.Errorf("Gate(Xnor) = %d", got)
	}
	if got := b.Gate(Nor, x, y); got != b.Not(b.Or(x, y)) {
		t.Errorf("Gate(Nor) = %d", got)
	}
	mustPanic(t, "Gate arity", func() { b.Gate(Mux, x, y) })
}

func TestMuxFoldings(t *testing.T) {
	b := NewBuilder("m")
	s := b.Input("s")
	x := b.Input("x")
	if b.Mux(s, x, 0) != b.And(b.Not(s), x) {
		t.Error("mux(s,x,0) should fold to and(!s,x)")
	}
	if b.Mux(s, x, 1) != b.Or(s, x) {
		t.Error("mux(s,x,1) = s?1:x should fold to or(s,x)")
	}
	if b.Mux(s, 0, x) != b.And(s, x) {
		t.Error("mux(s,0,x) should fold to and(s,x)")
	}
	if b.Mux(s, 1, x) != b.Or(b.Not(s), x) {
		t.Error("mux(s,1,x) should fold to or(!s,x)")
	}
}
