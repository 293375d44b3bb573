package stage2

import (
	"slices"
	"testing"

	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
	"parcc/internal/labeled"
	"parcc/internal/ltz"
	"parcc/internal/obs"
	"parcc/internal/pram"
	"parcc/internal/pram/pramtest"
	"parcc/internal/solve"
	"parcc/internal/stage1"
)

// reduced runs Stage 1 and returns the machinery Stage 2 starts from.
func reduced(t *testing.T, g *graph.Graph, seed uint64) (*pram.Machine, *labeled.Forest, stage1.Result) {
	t.Helper()
	m := pramtest.New(t, 0, pram.Seed(seed))
	f := labeled.New(g.N)
	r := stage1.NewRunner(solve.New(m), f, stage1.DefaultParams(g.N))
	return m, f, r.Reduce(g)
}

func TestBuildSkeletonIsSubset(t *testing.T) {
	g := gen.RandomRegular(2000, 6, 3)
	m, _, red := reduced(t, g, 1)
	p := DefaultParams(g.N, 8)
	H := Build(solve.New(m), red.Roots, red.Edges, p)
	// Every skeleton edge (canonicalized) must exist in the current graph.
	have := map[int64]bool{}
	for _, e := range red.Edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		have[int64(u)<<32|int64(uint32(v))] = true
	}
	for _, e := range H {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		if !have[int64(u)<<32|int64(uint32(v))] {
			t.Fatalf("skeleton edge (%d,%d) not in current graph", e.U, e.V)
		}
		if e.U == e.V {
			t.Fatal("skeleton must not contain loops")
		}
	}
	// No parallel edges.
	seen := map[int64]bool{}
	for _, e := range H {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		k := int64(u)<<32 | int64(uint32(v))
		if seen[k] {
			t.Fatal("skeleton contains a parallel edge")
		}
		seen[k] = true
	}
}

func TestBuildKeepsLowDegreeEdges(t *testing.T) {
	// Lemma 5.4 ingredient: edges adjacent to low vertices are all kept, so
	// small components survive exactly.
	g := gen.Union(gen.Path(12), gen.Cycle(9))
	m := pramtest.New(t, 0, pram.Seed(2))
	V := make([]int32, g.N)
	m.Iota32(V)
	p := DefaultParams(g.N, 64) // threshold far above any degree here
	H := Build(solve.New(m), V, g.Edges, p)
	simple := map[int64]bool{} // distinct non-loop edges
	for _, e := range g.Edges {
		if e.U != e.V {
			simple[e.CanonKey()] = true
		}
	}
	if len(H) != len(simple) {
		t.Fatalf("all-low graph: skeleton has %d edges, want %d", len(H), len(simple))
	}
}

func TestBuildSamplesHighHighEdges(t *testing.T) {
	// Lemma 5.5 shape: on a dense graph with tiny threshold, the skeleton
	// must be much smaller than the input.
	g := gen.Complete(200)
	m := pramtest.New(t, 0, pram.Seed(3))
	V := make([]int32, g.N)
	m.Iota32(V)
	p := DefaultParams(g.N, 8) // every vertex is high (deg 199 > 32)
	H := Build(solve.New(m), V, g.Edges, p)
	if len(H) >= g.M()/2 {
		t.Fatalf("skeleton %d edges of %d — no down-sampling happened", len(H), g.M())
	}
	if len(H) == 0 {
		t.Fatal("skeleton should retain some sampled edges")
	}
}

func TestDensifyContractsSmallComponents(t *testing.T) {
	// Small components (< b^6-ish total degree) must contract fully during
	// DENSIFY + Theorem 2 (Lemma 5.24 direction).
	g := gen.Union(gen.Cycle(12), gen.Path(9), gen.Complete(6))
	truth := baseline.BFSLabels(g)
	m := pramtest.New(t, 0, pram.Seed(5))
	f := labeled.New(g.N)
	V := make([]int32, g.N)
	m.Iota32(V)
	p := DefaultParams(g.N, 8)
	res := Densify(solve.New(m), f, V, append([]graph.Edge(nil), g.Edges...), p)
	if err := labeled.CheckSameComponent(f, truth); err != nil {
		t.Fatal(err)
	}
	// every close edge intra-component
	for _, e := range res.Eclose {
		if truth[e.U] != truth[e.V] {
			t.Fatal("close edge crosses components")
		}
	}
	// all components fully contracted: labels match truth already
	if !graph.SamePartition(truth, f.Labels()) {
		t.Fatal("small components should be fully contracted by DENSIFY")
	}
}

// TestDensifyCountsLTZRounds: a recorder around Densify counts exactly the
// EXPAND-MAXLINK rounds its Step-1 and Step-5 states ran, with Step 5
// round-limited (inside an INTERWEAVE phase) and run to completion.  Step 1
// is cut to two rounds so that Step 5 has rounds of its own to run.
func TestDensifyCountsLTZRounds(t *testing.T) {
	g := gen.Union(gen.RandomRegular(600, 4, 3), gen.Cycle(300))
	for _, solveRounds := range []int{0, 4} {
		rec := obs.NewRecorder()
		cx := solve.New(pramtest.New(t, 0, pram.Seed(5))).WithRecorder(rec)
		V := make([]int32, g.N)
		cx.M.Iota32(V)
		p := DefaultParams(g.N, 8)
		p.DensifyRounds = 2
		p.SolveRounds = solveRounds
		res := Densify(cx, labeled.New(g.N), V, append([]graph.Edge(nil), g.Edges...), p)
		if res.Rounds <= int64(p.DensifyRounds) {
			t.Fatalf("SolveRounds=%d: Densify ran %d rounds, want Step 5 to run some", solveRounds, res.Rounds)
		}
		if got := rec.Count(obs.CtrLTZRounds); got != res.Rounds {
			t.Errorf("SolveRounds=%d: recorder counted %d LTZ rounds, Densify ran %d", solveRounds, got, res.Rounds)
		}
	}
}

func TestIncreaseRaisesMinDegree(t *testing.T) {
	// Lemma 5.25 shape: after INCREASE, surviving active roots have degree
	// ≥ b in the current graph (counting altered multi-edges).
	g := gen.RandomRegular(3000, 6, 11)
	m, f, red := reduced(t, g, 7)
	b := 8
	p := DefaultParams(g.N, b)
	E := append([]graph.Edge(nil), red.Edges...)
	Increase(solve.New(m), f, red.Roots, E, p)
	// degree of roots in current graph: count altered edge endpoints.
	deg := map[int32]int{}
	for _, e := range E {
		deg[e.U]++
		if e.U != e.V {
			deg[e.V]++
		}
	}
	live := 0
	for _, v := range red.Roots {
		if f.IsRoot(v) && deg[v] > 0 {
			// Only roots that still carry non-loop edges count as active.
			active := false
			for _, e := range E {
				if (e.U == v || e.V == v) && e.U != e.V {
					active = true
					break
				}
			}
			if !active {
				continue
			}
			live++
			if deg[v] < b {
				t.Errorf("active root %d has degree %d < b=%d", v, deg[v], b)
			}
		}
	}
	t.Logf("active roots after INCREASE: %d (from %d)", live, len(red.Roots))
}

func TestIncreaseContractionSafety(t *testing.T) {
	g := gen.Union(gen.RandomRegular(800, 4, 1), gen.Cycle(200), gen.GNM(500, 700, 9))
	truth := baseline.BFSLabels(g)
	m, f, red := reduced(t, g, 13)
	E := append([]graph.Edge(nil), red.Edges...)
	Increase(solve.New(m), f, red.Roots, E, DefaultParams(g.N, 8))
	if err := labeled.CheckSameComponent(f, truth); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
	for _, e := range E {
		if truth[e.U] != truth[e.V] {
			t.Fatal("altered edge crosses components")
		}
	}
}

func TestSparseBuildMatchesDense(t *testing.T) {
	// SPARSEBUILD from a half-sampled H₂ must still produce an edge set
	// within the same components, containing all low-degree edges.
	g := gen.GNM(1500, 4000, 21)
	truth := baseline.BFSLabels(g)
	m, f, red := reduced(t, g, 3)
	aux := BuildAux(solve.New(m), g.N, red.Edges)
	H2 := gen.SampleEdges(&graph.Graph{N: g.N, Edges: red.Edges}, 0.5, 99).Edges
	p := DefaultParams(g.N, 8)
	EH := SparseBuild(solve.New(m), f, red.Roots, aux, H2, p)
	for _, e := range EH {
		if truth[e.U] != truth[e.V] {
			t.Fatal("sparse skeleton edge crosses components")
		}
	}
}

func TestAuxGatherFindsAllEdges(t *testing.T) {
	g := gen.GNM(300, 500, 5)
	m := pramtest.New(t, 0, pram.Seed(1))
	aux := BuildAux(solve.New(m), g.N, g.Edges)
	// predicate true for all: gather must return both orientations of
	// every non-loop edge plus loops once.
	all := aux.Gather(m, func(int32) bool { return true })
	wantCount := 0
	for _, e := range g.Edges {
		if e.U == e.V {
			wantCount++
		} else {
			wantCount += 2
		}
	}
	if len(all) != wantCount {
		t.Fatalf("gather(true) returned %d entries, want %d", len(all), wantCount)
	}
	// predicate for a single vertex returns exactly its incident edges.
	var v int32 = 7
	mine := aux.Gather(m, func(u int32) bool { return u == v })
	deg := 0
	for _, e := range g.Edges {
		if e.U == v || e.V == v {
			deg++
		}
	}
	if len(mine) != deg {
		t.Fatalf("gather(v=7) returned %d, want %d", len(mine), deg)
	}
	for _, e := range mine {
		if e.U != v {
			t.Fatal("gathered edge does not start at v")
		}
	}
}

func TestAuxGatherEmptyPredicate(t *testing.T) {
	g := gen.Cycle(10)
	m := pramtest.New(t, 0)
	aux := BuildAux(solve.New(m), g.N, g.Edges)
	if got := aux.Gather(m, func(int32) bool { return false }); len(got) != 0 {
		t.Fatalf("gather(false) returned %d edges", len(got))
	}
}

// TestBuildAuxStableGrouping checks the counting sort against a reference:
// a stable group-by-U of [e, reversed e] taken in input order, loops once.
func TestBuildAuxStableGrouping(t *testing.T) {
	random := gen.GNM(300, 900, 7).Edges
	random = append(random, random[:50]...) // multi-edges
	random = append(random, graph.Edge{U: 4, V: 4}, graph.Edge{U: 299, V: 299})
	cases := []struct {
		name string
		n    int
		E    []graph.Edge
	}{
		{"small", 9, []graph.Edge{{U: 3, V: 1}, {U: 1, V: 3}, {U: 3, V: 1}, {U: 2, V: 2}, {U: 0, V: 3}, {U: 5, V: 5}, {U: 3, V: 0}, {U: 1, V: 2}}},
		{"empty", 5, nil},
		{"no-vertices", 0, nil},
		{"gnm-multi-loops", 300, random},
	}
	for _, tc := range cases {
		var seq []graph.Edge
		for _, e := range tc.E {
			seq = append(seq, e)
			if e.U != e.V {
				seq = append(seq, graph.Edge{U: e.V, V: e.U})
			}
		}
		var want []graph.Edge
		var verts []int32
		for v := int32(0); v < int32(tc.n); v++ {
			before := len(want)
			for _, e := range seq {
				if e.U == v {
					want = append(want, e)
				}
			}
			if len(want) > before {
				verts = append(verts, v)
			}
		}

		a := BuildAux(solve.New(pramtest.New(t, 0)), tc.n, tc.E)
		if !slices.Equal(a.edges, want) {
			t.Fatalf("%s: edges %v, want %v", tc.name, a.edges, want)
		}
		if !slices.Equal(a.verts, verts) {
			t.Fatalf("%s: verts %v, want %v", tc.name, a.verts, verts)
		}
		for v := 0; v < tc.n; v++ {
			lo, c := a.start[v], a.count[v]
			if c == 0 {
				if lo != -1 {
					t.Fatalf("%s: vertex %d has no entries but start %d", tc.name, v, lo)
				}
				continue
			}
			if lo < 0 || lo+c > int64(len(a.edges)) {
				t.Fatalf("%s: vertex %d range [%d,+%d) out of bounds", tc.name, v, lo, c)
			}
			if lo > 0 && a.edges[lo-1].U == int32(v) || lo+c < int64(len(a.edges)) && a.edges[lo+c].U == int32(v) {
				t.Fatalf("%s: vertex %d range [%d,+%d) is not its whole run", tc.name, v, lo, c)
			}
			for _, e := range a.edges[lo : lo+c] {
				if e.U != int32(v) {
					t.Fatalf("%s: vertex %d range holds %v", tc.name, v, e)
				}
			}
		}
	}
}

func TestEdgesNotIn(t *testing.T) {
	m := pramtest.New(t, 0)
	E := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}
	mask := []bool{true, false, true}
	out := EdgesNotIn(solve.New(m), E, mask)
	if len(out) != 1 || out[0] != (graph.Edge{U: 1, V: 2}) {
		t.Fatalf("EdgesNotIn = %v", out)
	}
}

func TestIncreaseSparseKeepsH1Consistent(t *testing.T) {
	g := gen.RandomRegular(2000, 6, 31)
	truth := baseline.BFSLabels(g)
	m, f, red := reduced(t, g, 17)
	aux := BuildAux(solve.New(m), g.N, red.Edges)
	H1 := gen.SampleEdges(&graph.Graph{N: g.N, Edges: red.Edges}, 0.4, 1).Edges
	H2 := gen.SampleEdges(&graph.Graph{N: g.N, Edges: red.Edges}, 0.4, 2).Edges
	p := DefaultParams(g.N, 8)
	p.LTZ = ltz.DefaultParams(g.N)
	h1, eclose := IncreaseSparse(solve.New(m), f, red.Roots, aux, H1, H2, p)
	if err := labeled.CheckSameComponent(f, truth); err != nil {
		t.Fatal(err)
	}
	for _, e := range h1 {
		if truth[e.U] != truth[e.V] {
			t.Fatal("H1 edge crosses components after alter")
		}
		if e.U == e.V {
			t.Fatal("IncreaseSparse should have dropped H1 loops")
		}
	}
	for _, e := range eclose {
		if truth[e.U] != truth[e.V] {
			t.Fatal("eclose edge crosses components")
		}
	}
}

func TestDefaultParamsClampB(t *testing.T) {
	p := DefaultParams(1000, 0)
	if p.B < 4 {
		t.Errorf("B = %d, want clamp to ≥ 4", p.B)
	}
	if p.TableSize < p.HighOccupancy {
		t.Error("table must be larger than the high threshold")
	}
}

// TestIncreaseShortcutsFlattenHooks crafts the groups INCREASE regroups
// into so that both hook steps fire: non-head root b (one member x)
// shares a close edge with head a, so Step 6 hooks b under a, and leader
// head v shares one with non-leader a, so Step 8 hooks a under v.  Each
// hook deepens the trees below it by one level, and only the SHORTCUTs of
// Steps 7 and 9 bring every vertex of V back to depth ≤ 1.
func TestIncreaseShortcutsFlattenHooks(t *testing.T) {
	const n, members = 40, 12
	p := DefaultParams(n, 4)
	p.TableSize, p.HeadOccupancy = 8, 4 // a 13-vertex group is a head, b's two vertices are not
	leader := func(u int32) bool { return pram.SplitMix64(p.Seed^0x1ead3a^uint64(uint32(u)))&1 == 1 }
	var leaders, others []int32
	for u := int32(0); u < n; u++ {
		if leader(u) {
			leaders = append(leaders, u)
		} else {
			others = append(others, u)
		}
	}
	// v leads, a and b do not; the group members' coins do not matter.
	v, a, b := leaders[0], others[0], others[1]
	rest := append(append([]int32(nil), leaders[1:]...), others[2:]...)
	if len(rest) < 2*members+1 {
		t.Fatalf("only %d spare vertices", len(rest))
	}
	f := labeled.New(n)
	for i, u := range rest[:2*members] {
		f.P[u] = []int32{a, v}[i%2]
	}
	x := rest[2*members]
	f.P[x] = b
	V := append([]int32{v, a, b, x}, rest[:2*members]...)
	eclose := []graph.Edge{{U: a, V: b}, {U: v, V: a}}

	finishIncrease(solve.New(pramtest.New(t, 0)), f, V, nil, eclose, p)
	for _, u := range V {
		if f.Root(u) != v {
			t.Fatalf("vertex %d ends under root %d, want %d: a hook step did not fire", u, f.Root(u), v)
		}
		if f.P[f.P[u]] != f.P[u] {
			t.Errorf("vertex %d at depth > 1 after INCREASE (parent %d, grandparent %d)", u, f.P[u], f.P[f.P[u]])
		}
	}
}
