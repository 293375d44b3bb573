package ltz

import (
	"os"
	"testing"

	"parcc/internal/graph/gen"
	"parcc/internal/labeled"
	"parcc/internal/pram"
	"parcc/internal/pram/pramtest"
	"parcc/internal/solve"
)

func TestProbePathScaling(t *testing.T) {
	if os.Getenv("PARCC_PROBE") == "" {
		t.Skip("diagnostic only; set PARCC_PROBE=1 to run")
	}
	for _, lg := range []int{6, 8, 10, 12, 14, 16} {
		g := gen.Path(1 << lg)
		var tot int64
		for seed := uint64(1); seed <= 5; seed++ {
			p := DefaultParams(g.N)
			p.Seed = seed
			m := pramtest.New(t, 0, pram.Seed(seed))
			f := labeled.New(g.N)
			V := make([]int32, g.N)
			m.Iota32(V)
			tot += SolveOn(solve.New(m), f, V, g.Edges, p)
		}
		t.Logf("path 2^%d: avg rounds=%.1f", lg, float64(tot)/5)
	}
}
