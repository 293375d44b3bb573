package stage1

import (
	"slices"
	"testing"
	"testing/quick"

	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
	"parcc/internal/labeled"
	"parcc/internal/pram"
	"parcc/internal/pram/pramtest"
	"parcc/internal/solve"
)

func newRunner(tb testing.TB, g *graph.Graph, seed uint64) (*pram.Machine, *labeled.Forest, *Runner) {
	m := pramtest.New(tb, 0, pram.Seed(seed))
	f := labeled.New(g.N)
	return m, f, NewRunner(solve.New(m), f, DefaultParams(g.N))
}

// liveRoots counts roots that still have a non-loop edge to another root
// under the current forest ("active roots" in §4.2.3).
func liveRoots(f *labeled.Forest, E []graph.Edge) int {
	set := map[int32]struct{}{}
	for _, e := range E {
		u, v := f.Root(e.U), f.Root(e.V)
		if u != v {
			set[u] = struct{}{}
			set[v] = struct{}{}
		}
	}
	return len(set)
}

func TestMatchingReducesRoots(t *testing.T) {
	// Lemma 4.4: one MATCHING call reduces roots by a constant factor.
	for _, mk := range []func() *graph.Graph{
		func() *graph.Graph { return gen.Cycle(1000) },
		func() *graph.Graph { return gen.RandomRegular(1000, 4, 3) },
		func() *graph.Graph { return gen.Grid(30, 34) },
	} {
		g := mk()
		m, f, r := newRunner(t, g, 7)
		_ = m
		before := len(f.Roots(nil))
		r.Matching(g.Edges)
		after := len(f.Roots(nil))
		if after > before*999/1000 {
			t.Errorf("matching reduced roots only %d -> %d", before, after)
		}
	}
}

func TestMatchingInvariantRootOrChildOfRoot(t *testing.T) {
	// Lemma 4.5: every original root is a root or child of a root after.
	g := gen.GNM(400, 600, 3)
	_, f, r := newRunner(t, g, 5)
	r.Matching(g.Edges)
	if h := f.MaxHeight(); h > 1 {
		t.Fatalf("tree height %d > 1 after MATCHING on a flat forest", h)
	}
	if err := f.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
}

func TestMatchingContractionSafety(t *testing.T) {
	g := gen.Union(gen.Cycle(60), gen.Grid(8, 8), gen.Path(40))
	truth := baseline.BFSLabels(g)
	_, f, r := newRunner(t, g, 9)
	E := append([]graph.Edge(nil), g.Edges...)
	for i := 0; i < 6; i++ {
		r.Matching(E)
		if err := labeled.CheckSameComponent(f, truth); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		E = labeled.Alter(r.M, f, E)
	}
}

func TestMatchingUpdatedListIsAccurate(t *testing.T) {
	g := gen.RandomRegular(300, 4, 1)
	_, f, r := newRunner(t, g, 2)
	before := slices.Clone(f.P)
	upd := r.Matching(g.Edges)
	changed := map[int32]bool{}
	for v := range before {
		if before[v] != f.P[v] {
			changed[int32(v)] = true
		}
	}
	got := map[int32]bool{}
	for _, v := range upd {
		got[v] = true
	}
	for v := range changed {
		if !got[v] {
			t.Fatalf("vertex %d changed parent but was not recorded", v)
		}
	}
	// Step 9's pointer jumps can re-point recorded vertices further, so got
	// may contain strictly more entries only if their parents also moved;
	// every recorded vertex must at least be a non-root now.
	for v := range got {
		if f.P[v] == v {
			t.Fatalf("recorded vertex %d is still a root", v)
		}
	}
}

func TestFilterKeepsPartitionValid(t *testing.T) {
	g := gen.GNM(500, 800, 11)
	truth := baseline.BFSLabels(g)
	_, f, r := newRunner(t, g, 3)
	VE, _ := r.Filter(g.Edges, 3, 77)
	if err := labeled.CheckSameComponent(f, truth); err != nil {
		t.Fatal(err)
	}
	for _, v := range VE {
		if v < 0 || int(v) >= g.N {
			t.Fatal("V(E) out of range")
		}
	}
}

func TestFilterHeightGrowth(t *testing.T) {
	// Lemma 4.7: FILTER raises tree height by at most 1 per execution.
	g := gen.RandomRegular(400, 4, 5)
	_, f, r := newRunner(t, g, 13)
	r.Filter(g.Edges, 3, 1)
	if h := f.MaxHeight(); h > 1 {
		t.Fatalf("height %d > 1 after one FILTER on flat forest", h)
	}
}

func TestExtractShrinksActiveRoots(t *testing.T) {
	g := gen.RandomRegular(2000, 4, 9)
	m, f, r := newRunner(t, g, 21)
	_ = m
	E := append([]graph.Edge(nil), g.Edges...)
	E = r.Extract(E, r.Prm.ExtractK)
	live := liveRoots(f, E)
	if live > g.N/2 {
		t.Errorf("EXTRACT left %d live roots of %d", live, g.N)
	}
	if err := f.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
	if err := labeled.CheckEdgesOnRoots(f, E); err != nil {
		t.Fatalf("Lemma 4.9 violated: %v", err)
	}
}

func TestExtractContractionSafety(t *testing.T) {
	g := gen.Union(gen.GNM(300, 500, 1), gen.Cycle(100))
	truth := baseline.BFSLabels(g)
	_, f, r := newRunner(t, g, 31)
	E := append([]graph.Edge(nil), g.Edges...)
	r.Extract(E, 2)
	if err := labeled.CheckSameComponent(f, truth); err != nil {
		t.Fatal(err)
	}
}

func TestReduceShrinksAndStaysCorrect(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"expander": gen.RandomRegular(4000, 4, 17),
		"gnm":      gen.GNM(3000, 9000, 23),
		"grid":     gen.Grid(50, 60),
		"union":    gen.Union(gen.Cycle(500), gen.RandomRegular(1000, 4, 2), graph.New(100)),
	}
	for name, g := range graphs {
		g := g
		t.Run(name, func(t *testing.T) {
			truth := baseline.BFSLabels(g)
			_, f, r := newRunner(t, g, 3)
			res := r.Reduce(g)
			if err := labeled.CheckSameComponent(f, truth); err != nil {
				t.Fatal(err)
			}
			if err := labeled.CheckEdgesOnRoots(f, res.Edges); err != nil {
				t.Fatal(err)
			}
			live := liveRoots(f, res.Edges)
			if live > g.N/3 {
				t.Errorf("REDUCE left %d live roots of %d", live, g.N)
			}
			// Finishing from the reduced graph must recover the partition:
			// contract the remainder with min-hook union-find and compare.
			u := baseline.NewUnionFind(g.N)
			for v := 0; v < g.N; v++ {
				u.Union(int32(v), f.Root(int32(v)))
			}
			for _, e := range res.Edges {
				u.Union(e.U, e.V)
			}
			lab := make([]int32, g.N)
			for v := range lab {
				lab[v] = u.Find(int32(v))
			}
			if !graph.SamePartition(truth, lab) {
				t.Fatal("reduced graph lost connectivity information")
			}
		})
	}
}

func TestReduceWorkLinear(t *testing.T) {
	// Work charged by REDUCE must stay a bounded multiple of m+n as n grows
	// (Lemma 4.25's O(m)+O(n) expectation).
	norm := func(n int) float64 {
		g := gen.RandomRegular(n, 4, 5)
		m, _, r := newRunner(t, g, 2)
		r.Reduce(g)
		return float64(m.Work()) / float64(g.M()+g.N)
	}
	small, large := norm(1<<10), norm(1<<14)
	if large > small*3 {
		t.Errorf("REDUCE normalized work grows: %.1f -> %.1f", small, large)
	}
}

func TestReverseMakesVpVerticesRoots(t *testing.T) {
	m := pramtest.New(t, 0)
	f := labeled.New(6)
	// flat tree rooted at 0 with children 1,2,3
	f.P[1], f.P[2], f.P[3] = 0, 0, 0
	E := []graph.Edge{{U: 0, V: 4}}
	Reverse(m, f, []int32{2}, E)
	if !f.IsRoot(2) {
		t.Fatalf("REVERSE should promote 2 to root, p=%v", f.P)
	}
	if f.MaxHeight() > 1 {
		t.Fatalf("REVERSE left height %d", f.MaxHeight())
	}
	// the edge moved to the new root
	if E[0].U != 2 {
		t.Fatalf("edge end = %d, want 2", E[0].U)
	}
}

func TestReverseNoVpChange(t *testing.T) {
	m := pramtest.New(t, 0)
	f := labeled.New(4)
	f.P[1] = 0
	Reverse(m, f, nil, nil)
	if f.P[1] != 0 || !f.IsRoot(0) {
		t.Fatal("REVERSE with empty V' must not disturb trees")
	}
}

func TestMatchingQuickRandom(t *testing.T) {
	fq := func(seed uint64) bool {
		g := gen.GNM(120, 200, seed)
		truth := baseline.BFSLabels(g)
		_, f, r := newRunner(t, g, seed)
		E := append([]graph.Edge(nil), g.Edges...)
		for i := 0; i < 4; i++ {
			r.Matching(E)
			E = labeled.Alter(r.M, f, E)
		}
		return labeled.CheckSameComponent(f, truth) == nil && f.CheckAcyclic() == nil
	}
	if err := quick.Check(fq, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMatchingSequentialOrders(t *testing.T) {
	g := gen.GNM(200, 300, 5)
	truth := baseline.BFSLabels(g)
	for _, ord := range []pram.Order{pram.Forward, pram.Reverse, pram.Shuffled} {
		m := pram.New(pram.WriteOrder(ord), pram.Seed(3))
		f := labeled.New(g.N)
		r := NewRunner(solve.New(m), f, DefaultParams(g.N))
		r.Matching(g.Edges)
		if err := labeled.CheckSameComponent(f, truth); err != nil {
			t.Errorf("%v: %v", ord, err)
		}
		if h := f.MaxHeight(); h > 1 {
			t.Errorf("%v: height %d", ord, h)
		}
	}
}

func TestDefaultParamsScale(t *testing.T) {
	p1 := DefaultParams(1 << 8)
	p2 := DefaultParams(1 << 30)
	if p2.ReduceK < p1.ReduceK {
		t.Error("ReduceK must grow with n")
	}
	if p1.DeleteP64 == 0 {
		t.Error("deletion probability should be positive")
	}
}
