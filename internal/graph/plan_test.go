package graph_test

import (
	"testing"

	"parcc/internal/graph"
	"parcc/internal/pram"
)

func randomGraph(n, m int, seed uint64) *graph.Graph {
	g := graph.New(n)
	s := seed
	for i := 0; i < m; i++ {
		s = pram.SplitMix64(s)
		u := int(s % uint64(n))
		s = pram.SplitMix64(s)
		v := int(s % uint64(n))
		g.AddEdge(u, v)
	}
	return g
}

func TestPlanDegreeStats(t *testing.T) {
	g := graph.FromPairs(5, [][2]int{{0, 1}, {1, 2}, {2, 2}, {1, 3}})
	p := graph.NewPlan(g)
	if !p.Valid() {
		t.Error("fresh plan must be valid")
	}
	g.AddEdge(0, 4)
	if p.Valid() {
		t.Error("plan must detect appended edges as staleness")
	}
}

// TestPlanDetectsInPlaceMutation: rewriting an edge without changing the
// edge count must also invalidate the plan (the fingerprint, not just the
// length, is checked) — otherwise a warm Solver would serve labels from a
// stale adjacency.
func TestPlanDetectsInPlaceMutation(t *testing.T) {
	g := graph.FromPairs(4, [][2]int{{0, 1}, {2, 3}})
	p := graph.NewPlan(g)
	if !p.Valid() {
		t.Fatal("fresh plan must be valid")
	}
	g.Edges[1] = graph.Edge{U: 1, V: 2}
	if p.Valid() {
		t.Error("plan must detect in-place edge mutation as staleness")
	}
}

func TestPlanEmptyGraph(t *testing.T) {
	p := graph.NewPlan(graph.New(0))
	if len(p.CSR.Nbr) != 0 || !p.Valid() {
		t.Error("empty graph plan")
	}
}

// TestPlanDispatchStats pins a plan's adjacency entries, with a self-loop
// counted once.  The dispatcher reads no plan statistic: its rows need
// only n and m, so an auto solve that picks cas builds no plan.
func TestPlanDispatchStats(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 2) // self-loop: one adjacency entry
	p := graph.NewPlan(g)
	if got := len(p.CSR.Nbr); got != 5 {
		t.Fatalf("adjacency entries = %d, want 5", got)
	}
	empty := graph.NewPlan(graph.New(0))
	if len(empty.CSR.Nbr) != 0 {
		t.Fatalf("empty plan adjacency entries = %d, want 0", len(empty.CSR.Nbr))
	}
}

// TestPlanDetectsVertexCountChange: the CSR is sized for the vertex count
// it was built with, so changing G.N with the edges untouched must
// invalidate the plan under both checks — a reused plan would index its
// offsets past their end on a grown graph.
func TestPlanDetectsVertexCountChange(t *testing.T) {
	g := graph.FromPairs(4, [][2]int{{0, 1}, {2, 3}})
	p := graph.NewPlan(g)
	for _, n := range []int{8, 3, 4} {
		g.N = n
		if want := n == 4; p.Valid() != want || p.ValidQuick() != want {
			t.Errorf("n %d → %d: Valid %v, ValidQuick %v, want %v", 4, n, p.Valid(), p.ValidQuick(), want)
		}
	}
}
