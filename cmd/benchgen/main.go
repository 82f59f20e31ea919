// Command benchgen emits the paper's benchmark circuits as BLIF and
// structural Verilog netlists and prints their accurate design metrics
// (Table 1 of the paper). It can also generate seeded random circuits —
// the corpus the differential-fuzz CI job evaluates the incremental and
// paper-literal kernels against.
//
//	benchgen -out netlists              # write all paper benchmarks
//	benchgen -bench Mult8 -out .        # just one
//	benchgen -rand 8 -rand-seed 3       # eight seeded random circuits
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/blif"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/techmap"
	"github.com/blasys-go/blasys/internal/verilog"
)

func main() {
	var (
		name     = flag.String("bench", "", "single benchmark to emit (default: all)")
		out      = flag.String("out", "netlists", "output directory")
		seed     = flag.Int64("seed", 1, "seed for the power estimate")
		nRand    = flag.Int("rand", 0, "emit N seeded random circuits instead of the paper set")
		randSeed = flag.Int64("rand-seed", 1, "base seed of the random-circuit stream")
	)
	flag.Parse()
	if err := run(*name, *out, *seed, *nRand, *randSeed); err != nil {
		fmt.Fprintln(os.Stderr, "benchgen:", err)
		os.Exit(1)
	}
}

func run(name, out string, seed int64, nRand int, randSeed int64) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	var list []bench.Circuit
	switch {
	case nRand > 0:
		// Circuit i of a given base seed is always the same netlist: each
		// draws from its own derived stream, so corpora are reproducible and
		// individually regenerable.
		for i := 0; i < nRand; i++ {
			rng := rand.New(rand.NewSource(randSeed + int64(i)*1_000_003))
			c := bench.RandomCircuit(rng, bench.RandomOptions{
				Inputs:  6 + rng.Intn(6),
				Gates:   60 + rng.Intn(140),
				Outputs: 4 + rng.Intn(6),
			})
			c.Name = fmt.Sprintf("%s_s%d_%d", c.Name, randSeed, i)
			list = append(list, c)
		}
	case name != "":
		b, err := bench.ByName(name)
		if err != nil {
			return err
		}
		list = []bench.Circuit{b}
	default:
		list = bench.All()
	}
	lib := techmap.DefaultLibrary()
	fmt.Println("| Name | I/O | Gates | Area (um^2) | Power (uW) | Delay (ns) |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, b := range list {
		prepared := logic.ReorderDFS(b.Circ)
		base := filepath.Join(out, strings.ToLower(b.Name))
		if err := blif.WriteFile(base+".blif", prepared); err != nil {
			return err
		}
		if err := verilog.WriteFile(base+".v", prepared); err != nil {
			return err
		}
		mapped, err := techmap.Map(prepared, lib)
		if err != nil {
			return err
		}
		met := mapped.Metrics(1<<14, seed)
		fmt.Printf("| %s | %d/%d | %d | %.1f | %.1f | %.3f |\n",
			b.Name, b.Circ.NumInputs(), b.Circ.NumOutputs(), prepared.NumGates(),
			met.Area, met.Power, met.Delay)
	}
	fmt.Printf("netlists written under %s/\n", out)
	return nil
}
