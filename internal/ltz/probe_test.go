package ltz

import (
	"os"
	"testing"

	"parcc/internal/graph"
	"parcc/internal/graph/gen"
	"parcc/internal/labeled"
	"parcc/internal/pram"
	"parcc/internal/pram/pramtest"
	"parcc/internal/solve"
)

// TestProbeRounds is a diagnostic: it logs round counts per family and
// parameter choice.  Run with -v to inspect; it never fails.
func TestProbeRounds(t *testing.T) {
	if os.Getenv("PARCC_PROBE") == "" {
		t.Skip("diagnostic only; set PARCC_PROBE=1 to run")
	}
	families := map[string]*graph.Graph{
		"path-16k":     gen.Path(1 << 14),
		"expander-16k": gen.RandomRegular(1<<14, 4, 7),
		"hyper-14":     gen.Hypercube(14),
		"cycle-16k":    gen.Cycle(1 << 14),
	}
	for _, beta := range []int{8, 32, 128} {
		for _, exp := range []float64{0.1, 0.25, 0.5} {
			for name, g := range families {
				p := DefaultParams(g.N)
				p.Beta1 = beta
				p.LevelUpExp = exp
				m := pramtest.New(t, 0, pram.Seed(7))
				f := labeled.New(g.N)
				V := make([]int32, g.N)
				m.Iota32(V)
				r := SolveOn(solve.New(m), f, V, g.Edges, p)
				t.Logf("beta=%3d exp=%.2f %-13s rounds=%3d work/m=%5.1f",
					beta, exp, name, r, float64(m.Work())/float64(g.M()+g.N))
			}
		}
	}
}
