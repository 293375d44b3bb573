package core

import (
	"testing"

	"parcc/internal/graph"
	"parcc/internal/graph/gen"
	"parcc/internal/par"
	"parcc/internal/pram"
	"parcc/internal/solve"
)

// TestConnectivityOnParRuntime runs the full CONNECTIVITY driver with its
// loop bodies scheduled on the internal/par pool and checks the partition
// and the model accounting against the sequential simulator.
func TestConnectivityOnParRuntime(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"expander":   gen.RandomRegular(1<<11, 4, 2),
		"two-cycles": gen.TwoCycles(1500),
		"components": gen.ManyComponents(4, func(i int) *graph.Graph {
			return gen.GNM(300, 450, uint64(i+1))
		}),
	}
	for name, g := range graphs {
		seqM := pram.New(pram.Seed(3))
		pSeq := Default(g.N)
		pSeq.Seed ^= 3
		want := Connectivity(solve.New(seqM), g, pSeq, nil)

		rt := par.New(par.Procs(4), par.Seed(3))
		m := pram.New(pram.Seed(3), pram.OnRuntime(rt))
		pCon := Default(g.N)
		pCon.Seed ^= 3
		got := Connectivity(solve.New(m), g, pCon, nil)
		rt.Close()

		if !graph.SamePartition(want.Labels, got.Labels) {
			t.Errorf("%s: concurrent partition differs from sequential", name)
		}
		if got.NumComponents != want.NumComponents {
			t.Errorf("%s: components %d vs %d", name, got.NumComponents, want.NumComponents)
		}
		if got.Steps <= 0 || got.Work <= 0 {
			t.Errorf("%s: concurrent run lost the model accounting (steps=%d work=%d)",
				name, got.Steps, got.Work)
		}
	}
}

// TestVertexSetListDeterministicSorted guards the determinism fix: the
// vertex list must come back sorted regardless of backend (it used to be
// collected from a map, whose iteration order is random).
func TestVertexSetListDeterministicSorted(t *testing.T) {
	E := []graph.Edge{{U: 9, V: 2}, {U: 5, V: 9}, {U: 0, V: 7}, {U: 2, V: 5}}
	check := func(m *pram.Machine) {
		t.Helper()
		got := solve.VertexSet(solve.New(m), 12, E)
		want := []int32{0, 2, 5, 7, 9}
		if len(got) != len(want) {
			t.Fatalf("got %v", got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("got %v, want %v", got, want)
			}
		}
	}
	check(pram.New())
	rt := par.New(par.Procs(3))
	defer rt.Close()
	check(pram.New(pram.OnRuntime(rt)))
}
