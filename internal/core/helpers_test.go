package core

import (
	"testing"

	"parcc/internal/graph"
	"parcc/internal/graph/gen"
	"parcc/internal/labeled"
	"parcc/internal/pram"
	"parcc/internal/pram/pramtest"
	"parcc/internal/prim"
	"parcc/internal/solve"
)

func TestActiveRootsFlagsLiveEdgesOnly(t *testing.T) {
	m := pramtest.New(t, 0)
	f := labeled.New(6)
	f.P[1] = 0 // 1 is a child
	roots := []int32{0, 2, 3, 4, 5}
	// live non-loop edge (0,2); a loop at 3; nothing on 4, 5
	sets := [][]graph.Edge{
		{{U: 0, V: 2}},
		{{U: 3, V: 3}},
	}
	got := activeRoots(solve.New(m), f, roots, sets...)
	want := map[int32]bool{0: true, 2: true}
	if len(got) != len(want) {
		t.Fatalf("active roots = %v", got)
	}
	for _, v := range got {
		if !want[v] {
			t.Fatalf("unexpected active root %d", v)
		}
	}
}

func TestActiveRootsResolvesParents(t *testing.T) {
	// Edge endpoints may be stale (children); flags must land on parents.
	m := pramtest.New(t, 0)
	f := labeled.New(4)
	f.P[1] = 0
	f.P[3] = 2
	got := activeRoots(solve.New(m), f, []int32{0, 2}, []graph.Edge{{U: 1, V: 3}})
	if len(got) != 2 {
		t.Fatalf("active roots = %v, want the two parents", got)
	}
}

func TestMarkVertexSetAndList(t *testing.T) {
	m := pramtest.New(t, 0)
	E := []graph.Edge{{U: 1, V: 2}, {U: 2, V: 4}}
	flags := markVertexSet(solve.New(m), 6, E)
	for v, want := range map[int]bool{0: false, 1: true, 2: true, 3: false, 4: true} {
		if (flags[v] != 0) != want {
			t.Fatalf("flag[%d] = %d", v, flags[v])
		}
	}
	list := solve.VertexSet(solve.New(m), 6, E)
	if len(list) != 3 {
		t.Fatalf("vertex list = %v", list)
	}
}

func TestDeleteEdgesProbabilities(t *testing.T) {
	m := pramtest.New(t, 0)
	E := make([]graph.Edge, 10000)
	kept := prim.DeleteEdges(m, append([]graph.Edge(nil), E...), pram.P64(0), 1)
	if len(kept) != len(E) {
		t.Fatalf("p=0 deleted edges: %d left", len(kept))
	}
	kept = prim.DeleteEdges(m, append([]graph.Edge(nil), E...), pram.P64(1), 1)
	if len(kept) != 0 {
		t.Fatalf("p=1 kept %d edges", len(kept))
	}
	kept = prim.DeleteEdges(m, append([]graph.Edge(nil), E...), pram.P64(0.5), 1)
	frac := float64(len(kept)) / float64(len(E))
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("p=0.5 kept fraction %.3f", frac)
	}
}

func TestBackstopNoopWhenDone(t *testing.T) {
	g := gen.Path(4)
	m := pramtest.New(t, 0)
	f := labeled.New(g.N)
	// contract fully first
	for v := 1; v < g.N; v++ {
		f.P[v] = 0
	}
	if backstop(solve.New(m), f, g.Edges, Default(g.N)) {
		t.Fatal("backstop should be a no-op on a finished instance")
	}
	// and must act when edges remain
	f2 := labeled.New(g.N)
	if !backstop(solve.New(m), f2, g.Edges, Default(g.N)) {
		t.Fatal("backstop should engage on a fresh instance")
	}
	labeled.FlattenAll(m, f2)
	if graph.NumLabels(f2.Labels()) != 1 {
		t.Fatal("backstop did not finish the path")
	}
}

func TestSkipStage1StillExact(t *testing.T) {
	g := gen.Union(gen.Cycle(200), gen.RandomRegular(128, 4, 3))
	p := Default(g.N)
	p.SkipStage1 = true
	m := pramtest.New(t, 0, pram.Seed(5))
	res := Connectivity(solve.New(m), g, p, nil)
	if graph.NumLabels(res.Labels) != 2 {
		t.Fatalf("skip-stage1 run found %d components", graph.NumLabels(res.Labels))
	}
}
