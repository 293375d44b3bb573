package baseline

import (
	"testing"
	"testing/quick"
	"time"

	"parcc/internal/graph"
	"parcc/internal/graph/gen"
	"parcc/internal/labeled"
	"parcc/internal/pram"
	"parcc/internal/pram/pramtest"
)

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"empty":      graph.New(0),
		"isolated":   graph.New(20),
		"path":       gen.Path(100),
		"cycle":      gen.Cycle(64),
		"grid":       gen.Grid(8, 9),
		"expander":   gen.RandomRegular(128, 4, 1),
		"gnm":        gen.GNM(150, 200, 2),
		"components": gen.Union(gen.Path(20), gen.Cycle(15), graph.New(5)),
		"loops":      graph.FromPairs(4, [][2]int{{0, 0}, {1, 2}, {2, 2}}),
		"parallel":   graph.FromPairs(3, [][2]int{{0, 1}, {0, 1}, {1, 2}}),
	}
}

func TestUnionFindMatchesBFS(t *testing.T) {
	for name, g := range testGraphs() {
		want := BFSLabels(g)
		got := UnionFindLabels(g)
		if !graph.SamePartition(want, got) {
			t.Errorf("%s: union-find disagrees with BFS", name)
		}
	}
}

func TestShiloachVishkinMatchesBFS(t *testing.T) {
	for name, g := range testGraphs() {
		m := pramtest.New(t, 0, pram.Seed(1))
		f := ShiloachVishkin(m, g)
		if !graph.SamePartition(BFSLabels(g), f.Labels()) {
			t.Errorf("%s: SV disagrees with BFS", name)
		}
	}
}

func TestShiloachVishkinSequentialOrders(t *testing.T) {
	g := gen.Union(gen.Cycle(40), gen.Grid(6, 7))
	for _, ord := range []pram.Order{pram.Forward, pram.Reverse, pram.Shuffled} {
		m := pram.New(pram.WriteOrder(ord))
		f := ShiloachVishkin(m, g)
		if !graph.SamePartition(BFSLabels(g), f.Labels()) {
			t.Errorf("%v: SV wrong under this write order", ord)
		}
	}
}

func TestRandomMateMatchesBFS(t *testing.T) {
	for name, g := range testGraphs() {
		m := pramtest.New(t, 0, pram.Seed(1))
		f := RandomMate(m, g, 99)
		if !graph.SamePartition(BFSLabels(g), f.Labels()) {
			t.Errorf("%s: random-mate disagrees with BFS", name)
		}
	}
}

func TestLabelPropMatchesBFS(t *testing.T) {
	for name, g := range testGraphs() {
		m := pramtest.New(t, 0, pram.Seed(1))
		got := LabelProp(m, g)
		if !graph.SamePartition(BFSLabels(g), got) {
			t.Errorf("%s: label propagation disagrees with BFS", name)
		}
	}
}

func TestUnionFindCount(t *testing.T) {
	u := NewUnionFind(5)
	if u.Count() != 5 {
		t.Fatal("fresh count")
	}
	if !u.Union(0, 1) || u.Count() != 4 {
		t.Fatal("union should merge")
	}
	if u.Union(0, 1) {
		t.Fatal("repeated union should report false")
	}
	u.Union(2, 3)
	u.Union(1, 3)
	if u.Count() != 2 {
		t.Fatalf("count = %d, want 2", u.Count())
	}
	if u.Find(0) != u.Find(2) {
		t.Fatal("0 and 2 should share a representative")
	}
}

func TestSVWorkScalesWithLogN(t *testing.T) {
	// SV charges full edge scans per round: on a path its round count grows
	// with log n, so work/(m+n) must grow too — the E2 contrast baseline.
	work := func(n int) float64 {
		g := gen.Path(n)
		m := pramtest.New(t, 0, pram.Seed(3))
		ShiloachVishkin(m, g)
		return float64(m.Work()) / float64(g.M()+g.N)
	}
	small, large := work(1<<8), work(1<<13)
	if large <= small {
		t.Errorf("SV normalized work should grow: %f -> %f", small, large)
	}
}

func TestRandomGraphsAgainstBFS(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.GNM(60, 70, seed)
		m := pramtest.New(t, 0, pram.Seed(seed))
		return graph.SamePartition(BFSLabels(g), ShiloachVishkin(m, g).Labels()) &&
			graph.SamePartition(BFSLabels(g), UnionFindLabels(g)) &&
			graph.SamePartition(BFSLabels(g), LabelProp(pramtest.New(t, 0, pram.Seed(seed)), g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestShiloachVishkinHookCycleRegression(t *testing.T) {
	// Regression: under concurrent execution the old star hook checked the
	// target's rootness with a racy live read; on this instance three star
	// roots check-then-wrote concurrently and closed a 3-cycle of parent
	// pointers (11 -> 34 -> 12 -> 11), which the synchronous shortcut maps
	// to its inverse forever.  Snapshot-only hook decisions must terminate.
	seed := uint64(0xc0bad6722deab0a4)
	g := gen.GNM(60, 70, seed)
	done := make(chan *labeled.Forest, 1)
	m := pramtest.New(t, 0, pram.Seed(seed))
	go func() { done <- ShiloachVishkin(m, g) }()
	select {
	case f := <-done:
		if !graph.SamePartition(BFSLabels(g), f.Labels()) {
			t.Fatal("wrong partition")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Shiloach-Vishkin livelocked")
	}
}

func TestBFSLabelsUseSmallestVertex(t *testing.T) {
	g := gen.Union(gen.Path(3), gen.Path(2))
	l := BFSLabels(g)
	if l[0] != 0 || l[3] != 3 {
		t.Errorf("labels should be the component's smallest vertex: %v", l)
	}
}

func TestParallelBFSMatchesBFS(t *testing.T) {
	for name, g := range testGraphs() {
		m := pramtest.New(t, 0, pram.Seed(1))
		got := ParallelBFS(m, g)
		if !graph.SamePartition(BFSLabels(g), got) {
			t.Errorf("%s: parallel BFS disagrees with BFS", name)
		}
	}
}

func TestParallelBFSRoundsScaleWithDiameter(t *testing.T) {
	rounds := func(g *graph.Graph) int64 {
		m := pramtest.New(t, 0, pram.Seed(1))
		ParallelBFS(m, g)
		return m.Steps()
	}
	short := rounds(gen.Star(1024))
	long := rounds(gen.Path(1024))
	if long <= short*4 {
		t.Errorf("path rounds %d should dwarf star rounds %d", long, short)
	}
}

func TestParallelBFSWorkLinear(t *testing.T) {
	// O(m+n) total work: each edge relaxes O(1) times overall.
	g := gen.RandomRegular(1<<13, 4, 3)
	m := pramtest.New(t, 0, pram.Seed(1))
	ParallelBFS(m, g)
	norm := float64(m.Work()) / float64(g.M()+g.N)
	if norm > 20 {
		t.Errorf("parallel BFS normalized work %.1f too high", norm)
	}
}

func TestShiloachVishkinNoLivelock(t *testing.T) {
	// Regression: a union of eight 4-regular expanders livelocked the
	// star-hooking step (a conditional hook and a star hook formed a
	// mutual 2-cycle that the synchronous shortcut reset identically every
	// round).  The snapshot-root target checks must keep this terminating.
	g := gen.ManyComponents(8, func(i int) *graph.Graph {
		return gen.RandomRegular(1<<12, 4, uint64(i))
	})
	done := make(chan *labeled.Forest, 1)
	m := pramtest.New(t, 0, pram.Seed(1))
	go func() { done <- ShiloachVishkin(m, g) }()
	select {
	case f := <-done:
		if !graph.SamePartition(BFSLabels(g), f.Labels()) {
			t.Fatal("wrong partition")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Shiloach-Vishkin livelocked")
	}
}

func TestShiloachVishkinManySeedsManyShapes(t *testing.T) {
	// Broad livelock sweep: every run must terminate and be exact.
	for seed := uint64(1); seed <= 6; seed++ {
		g := gen.ManyComponents(4, func(i int) *graph.Graph {
			return gen.GNM(300, 500, seed*31+uint64(i))
		})
		m := pramtest.New(t, 0, pram.Seed(seed))
		f := ShiloachVishkin(m, g)
		if !graph.SamePartition(BFSLabels(g), f.Labels()) {
			t.Fatalf("seed %d: wrong partition", seed)
		}
	}
}
