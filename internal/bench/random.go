package bench

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/qor"
)

// RandomOptions shapes RandomCircuit. The zero value is completed to a small
// but structurally interesting netlist.
type RandomOptions struct {
	Inputs  int // primary inputs (default 8)
	Gates   int // random gates over the growing node pool (default 60)
	Outputs int // primary outputs, drawn from the most recent gates (default 6)
}

func (o RandomOptions) withDefaults() RandomOptions {
	if o.Inputs <= 0 {
		o.Inputs = 8
	}
	if o.Gates <= 0 {
		o.Gates = 60
	}
	if o.Outputs <= 0 {
		o.Outputs = 6
	}
	return o
}

// Resolve maps a circuit spec string to a benchmark: either a Table 1 name
// accepted by ByName ("Mult8", "Adder32", ...) or a seeded random circuit of
// the form "rand:<seed>" / "rand:<seed>:<inputs>x<gates>x<outputs>". Random
// specs are fully determined by their text, so a spec written into an
// experiment manifest or a benchmark corpus always regenerates the same
// netlist.
func Resolve(spec string) (Circuit, error) {
	if !strings.HasPrefix(spec, "rand:") {
		return ByName(spec)
	}
	parts := strings.Split(spec[len("rand:"):], ":")
	if len(parts) != 1 && len(parts) != 2 {
		return Circuit{}, fmt.Errorf("bench: bad random spec %q (want rand:<seed> or rand:<seed>:<in>x<gates>x<out>)", spec)
	}
	seed, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return Circuit{}, fmt.Errorf("bench: bad random-spec seed in %q: %v", spec, err)
	}
	var opts RandomOptions
	if len(parts) == 2 {
		dims := strings.Split(parts[1], "x")
		if len(dims) != 3 {
			return Circuit{}, fmt.Errorf("bench: bad random-spec shape in %q (want <in>x<gates>x<out>)", spec)
		}
		vals := make([]int, 3)
		for i, d := range dims {
			vals[i], err = strconv.Atoi(d)
			if err != nil || vals[i] <= 0 {
				return Circuit{}, fmt.Errorf("bench: bad random-spec shape in %q: %q", spec, d)
			}
		}
		opts = RandomOptions{Inputs: vals[0], Gates: vals[1], Outputs: vals[2]}
	}
	c := RandomCircuit(rand.New(rand.NewSource(seed)), opts)
	c.Name = spec // the spec is the identity; keep it round-trippable
	c.Circ.Name = sanitizeName(spec)
	return c, nil
}

// sanitizeName makes a spec usable as a netlist model name (BLIF and Verilog
// identifiers dislike ':').
func sanitizeName(s string) string {
	return strings.ReplaceAll(s, ":", "_")
}

// RandomCircuit generates a seeded random combinational circuit: each gate
// draws a uniform op and uniform fanins from the inputs plus all earlier
// gates, and outputs are drawn from the most recent gates so deep logic stays
// live. The same rng stream always yields the same circuit, making random
// corpora reproducible from a single seed — the differential-fuzz workload
// stressing incremental-vs-full-rebuild (and batch-vs-scalar) equivalence on
// circuits nobody hand-picked. The builder's structural folding may elide
// some drawn gates, so NumGates can come in under Gates.
func RandomCircuit(rng *rand.Rand, opts RandomOptions) Circuit {
	opts = opts.withDefaults()
	b := logic.NewBuilder(fmt.Sprintf("rand%dx%d", opts.Inputs, opts.Outputs))
	ids := b.Inputs("i", opts.Inputs)
	ops := []logic.Op{
		logic.And, logic.Or, logic.Xor, logic.Nand,
		logic.Nor, logic.Xnor, logic.Not, logic.Mux,
	}
	for g := 0; g < opts.Gates; g++ {
		op := ops[rng.Intn(len(ops))]
		pick := func() logic.NodeID { return ids[rng.Intn(len(ids))] }
		var id logic.NodeID
		switch op.Arity() {
		case 1:
			id = b.Gate(op, pick())
		case 2:
			id = b.Gate(op, pick(), pick())
		default:
			id = b.Gate(op, pick(), pick(), pick())
		}
		ids = append(ids, id)
	}
	window := len(ids) - opts.Inputs
	if window < 1 {
		window = 1
	}
	if window > opts.Gates/2+1 {
		window = opts.Gates/2 + 1
	}
	for o := 0; o < opts.Outputs; o++ {
		b.Output("z", ids[len(ids)-1-rng.Intn(window)])
	}
	return Circuit{
		Name: b.C.Name,
		Circ: b.C,
		Spec: qor.Unsigned("z", opts.Outputs),
	}
}
