package parcc_test

import (
	"slices"
	"testing"

	"parcc"
	"parcc/internal/bench"
	"parcc/internal/graph"
)

// TestCountExactAcrossFamilies checks each solve's hand-off: every
// algorithm, on both backends at procs 1, 2 and 4, on every bench family
// at n = 2^10, reports NumComponents equal to the number of distinct
// labels it returns — the count comes from the kernel's hooks (union-find,
// cas, sample) or its roots (FLS, frontier), never from a pass over the
// labels — and union-find, cas, sample and frontier return byte-identical
// labels, the component minima.
func TestCountExactAcrossFamilies(t *testing.T) {
	algos := []parcc.Algorithm{parcc.FLS, parcc.FLSKnownGap, parcc.UnionFind, parcc.CASUnite, parcc.Sample, parcc.Frontier, parcc.Auto}
	for _, be := range []parcc.Backend{parcc.BackendSequential, parcc.BackendConcurrent} {
		for _, procs := range []int{1, 2, 4} {
			solvers := map[parcc.Algorithm]*parcc.Solver{}
			for _, a := range algos {
				s, err := parcc.NewSolver(&parcc.Options{Algorithm: a, Backend: be, Procs: procs, Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				solvers[a] = s
			}
			for _, f := range bench.Families(1<<10, 1) {
				g := f.Make()
				var minima []int32
				for _, a := range algos {
					var res parcc.Result
					if err := solvers[a].SolveInto(g, &res); err != nil {
						t.Fatalf("%s/%d/%s/%s: %v", be, procs, a, f.Name, err)
					}
					if want := graph.NumLabels(res.Labels); res.NumComponents != want {
						t.Errorf("%s/%d/%s/%s: NumComponents = %d, labels hold %d",
							be, procs, a, f.Name, res.NumComponents, want)
					}
					switch a {
					case parcc.UnionFind:
						minima = res.Labels
					case parcc.CASUnite, parcc.Sample, parcc.Frontier:
						if !slices.Equal(res.Labels, minima) {
							t.Errorf("%s/%d/%s/%s: labels differ from union-find's", be, procs, a, f.Name)
						}
					}
				}
			}
		}
	}
}
