// Ablation benchmarks for the design choices documented in DESIGN.md:
// each compares a mechanism against its switched-off variant and reports the
// quality delta as benchmark metrics.
package blasys_test

import (
	"testing"

	"github.com/blasys-go/blasys/internal/bench"
	"github.com/blasys-go/blasys/internal/bmf"
	"github.com/blasys-go/blasys/internal/core"
	"github.com/blasys-go/blasys/internal/logic"
	"github.com/blasys-go/blasys/internal/techmap"
)

// BenchmarkAblationBasis compares the column (structural) basis against the
// unrestricted ASSO basis on a Mult8 block profile: error at equal degree
// and, critically, the mapped area of the resulting block implementations.
func BenchmarkAblationBasis(b *testing.B) {
	bm := bench.Mult8()
	for _, basis := range []core.Basis{core.BasisColumns, core.BasisASSO} {
		basis := basis
		b.Run(basis.String(), func(b *testing.B) {
			var savings float64
			for i := 0; i < b.N; i++ {
				lib := techmap.DefaultLibrary()
				accurate, err := techmap.Map(logic.ReorderDFS(bm.Circ), lib)
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.Approximate(bm.Circ, bm.Spec, core.Config{
					Samples: 1 << 12, Seed: 1, Threshold: 0.05, Basis: basis,
					Lib: lib, MaxSteps: 60,
				})
				if err != nil {
					b.Fatal(err)
				}
				met, _, err := res.FinalMetrics(res.BestStep, 1<<12)
				if err != nil {
					b.Fatal(err)
				}
				savings = 100 * (accurate.Area() - met.Area) / accurate.Area()
			}
			reportMetric(b, savings, "area-savings-%")
		})
	}
}

// BenchmarkAblationLazyExploration compares lazy-greedy against the
// paper-literal exhaustive greedy: final savings and exploration work.
func BenchmarkAblationLazyExploration(b *testing.B) {
	bm := bench.Mult8()
	lib := techmap.DefaultLibrary()
	for _, lazy := range []bool{false, true} {
		lazy := lazy
		name := "exhaustive"
		if lazy {
			name = "lazy"
		}
		b.Run(name, func(b *testing.B) {
			var savings float64
			for i := 0; i < b.N; i++ {
				accurate, err := techmap.Map(logic.ReorderDFS(bm.Circ), lib)
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.Approximate(bm.Circ, bm.Spec, core.Config{
					Samples: 1 << 12, Seed: 1, Threshold: 0.05, Lazy: lazy, Lib: lib,
				})
				if err != nil {
					b.Fatal(err)
				}
				met, _, err := res.FinalMetrics(res.BestStep, 1<<12)
				if err != nil {
					b.Fatal(err)
				}
				savings = 100 * (accurate.Area() - met.Area) / accurate.Area()
			}
			reportMetric(b, savings, "area-savings-%")
		})
	}
}

// BenchmarkAblationSemiring compares OR-semiring against XOR-field
// decompressors end to end.
func BenchmarkAblationSemiring(b *testing.B) {
	bm := bench.Mult8()
	lib := techmap.DefaultLibrary()
	for _, sr := range []bmf.Semiring{bmf.Or, bmf.Xor} {
		sr := sr
		b.Run(sr.String(), func(b *testing.B) {
			var savings float64
			for i := 0; i < b.N; i++ {
				accurate, err := techmap.Map(logic.ReorderDFS(bm.Circ), lib)
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.Approximate(bm.Circ, bm.Spec, core.Config{
					Samples: 1 << 12, Seed: 1, Threshold: 0.05, Semiring: sr,
					Lib: lib, MaxSteps: 60,
				})
				if err != nil {
					b.Fatal(err)
				}
				met, _, err := res.FinalMetrics(res.BestStep, 1<<12)
				if err != nil {
					b.Fatal(err)
				}
				savings = 100 * (accurate.Area() - met.Area) / accurate.Area()
			}
			reportMetric(b, savings, "area-savings-%")
		})
	}
}
