package graph

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// edgeCounts snapshots a multiset of edges by canonical key.
func edgeCounts(edges []Edge) map[int64]int {
	m := make(map[int64]int, len(edges))
	for _, e := range edges {
		m[e.CanonKey()]++
	}
	return m
}

// incidentKeys walks x's incidence list and returns the canonical keys
// seen, asserting the store's own endpoints along the way.
func incidentKeys(t *testing.T, df *DynForest, x int32) map[int64]int {
	t.Helper()
	ks := map[int64]int{}
	for h := df.First(x); h >= 0; h = df.NextIncident(x, h) {
		if df.U(h) != x && df.V(h) != x {
			t.Fatalf("handle %d in vertex %d's list has endpoints {%d,%d}", h, x, df.U(h), df.V(h))
		}
		ks[Edge{U: df.U(h), V: df.V(h)}.CanonKey()]++
	}
	return ks
}

func TestDynForestIndexAndIterate(t *testing.T) {
	g := FromPairs(5, [][2]int{{0, 1}, {1, 2}, {2, 1}, {3, 3}, {0, 4}})
	df := NewDynForest(g, nil)
	if df.M() != 5 {
		t.Fatalf("M = %d, want 5", df.M())
	}
	// Vertex 1 sees {0,1} once and both copies of {1,2}.
	ks := incidentKeys(t, df, 1)
	if ks[Edge{U: 0, V: 1}.CanonKey()] != 1 || ks[Edge{U: 1, V: 2}.CanonKey()] != 2 {
		t.Fatalf("vertex 1 incidence = %v", ks)
	}
	// The self-loop appears exactly once in vertex 3's list.
	if ks := incidentKeys(t, df, 3); ks[Edge{U: 3, V: 3}.CanonKey()] != 1 || len(ks) != 1 {
		t.Fatalf("vertex 3 incidence = %v", ks)
	}
	if got := df.CountKey(Edge{U: 2, V: 1}.CanonKey(), 8); got != 2 {
		t.Fatalf("CountKey({1,2}) = %d, want 2 (orientation-insensitive)", got)
	}
	if got := df.CountKey(Edge{U: 0, V: 3}.CanonKey(), 8); got != 0 {
		t.Fatalf("CountKey(absent) = %d, want 0", got)
	}
}

func TestDynForestRemoveSwapKeepsPositions(t *testing.T) {
	g := FromPairs(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	df := NewDynForest(g, []bool{false, false, false, false, true})
	want := edgeCounts(g.Edges)
	// Remove from the middle: the last edge {4,5} moves into the hole.
	h := df.PickRemovable(Edge{U: 1, V: 2}.CanonKey())
	df.Remove(h)
	delete(want, Edge{U: 1, V: 2}.CanonKey())
	if len(g.Edges) != 4 {
		t.Fatalf("m = %d after remove, want 4", len(g.Edges))
	}
	got := edgeCounts(g.Edges)
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("edge multiset diverged after swap-remove: got %v want %v", got, want)
		}
	}
	// The moved edge answers at the hole: its endpoints, forest flag,
	// incidence lists, and key lookup all name handle h now.
	if df.U(h) != 4 || df.V(h) != 5 || !df.IsForest(h) {
		t.Fatalf("hole %d holds {%d,%d} forest=%v, want the moved {4,5} forest=true", h, df.U(h), df.V(h), df.IsForest(h))
	}
	for _, x := range []int32{4, 5} {
		found := false
		for y := df.First(x); y >= 0; y = df.NextIncident(x, y) {
			found = found || y == h
		}
		if !found {
			t.Fatalf("vertex %d's list does not reach the moved edge at %d", x, h)
		}
	}
	if got := df.PickRemovable(Edge{U: 5, V: 4}.CanonKey()); got != h {
		t.Fatalf("key lookup of the moved edge finds %d, want %d", got, h)
	}
	// The removed edge left every incidence list.
	for _, x := range []int32{1, 2} {
		if ks := incidentKeys(t, df, x); ks[Edge{U: 1, V: 2}.CanonKey()] != 0 {
			t.Fatalf("vertex %d still lists the removed edge", x)
		}
	}
	// Insert appends: the new handle is the next position.
	nh := df.Insert(Edge{U: 5, V: 0}, false)
	if nh != 4 {
		t.Fatalf("Insert returned handle %d, want position 4", nh)
	}
	if ks := incidentKeys(t, df, 5); ks[Edge{U: 0, V: 5}.CanonKey()] != 1 {
		t.Fatal("inserted edge not linked at its endpoints")
	}
	if len(g.Edges) != 5 || g.Edges[4] != (Edge{U: 5, V: 0}) {
		t.Fatalf("Insert must append to g.Edges, got %v", g.Edges)
	}
}

func TestDynForestPickRemovablePrefersNonForest(t *testing.T) {
	g := FromPairs(2, [][2]int{{0, 1}, {0, 1}, {1, 0}})
	df := NewDynForest(g, []bool{true, false, false})
	k := Edge{U: 0, V: 1}.CanonKey()
	h := df.PickRemovable(k)
	if df.IsForest(h) {
		t.Fatal("PickRemovable chose the forest copy while non-forest copies live")
	}
	df.Remove(h)
	h = df.PickRemovable(k)
	if df.IsForest(h) {
		t.Fatal("PickRemovable chose the forest copy while a non-forest copy lives")
	}
	df.Remove(h)
	// Only the forest copy remains: it must be returned now.
	h = df.PickRemovable(k)
	if h < 0 || !df.IsForest(h) {
		t.Fatalf("last copy pick = %d (forest %v), want the forest handle", h, h >= 0 && df.IsForest(h))
	}
	df.Remove(h)
	if df.PickRemovable(k) != -1 {
		t.Fatal("PickRemovable on an exhausted key must return -1")
	}
	if df.M() != 0 || len(g.Edges) != 0 {
		t.Fatalf("store not empty after removing every copy (m=%d)", df.M())
	}
}

// refCounts is the reference multiset of the churn test: per canonical
// key, the live non-forest and forest copies.
type refCounts map[int64][2]int

// checkAgainst asserts df indexes exactly ref: incidence lists hold every
// position at each endpoint (2m − loops entries), each key counts exactly
// its copies, and each key's pick is a copy of it, non-forest whenever a
// non-forest copy lives.
func checkAgainst(t *testing.T, df *DynForest, g *Graph, ref refCounts) {
	t.Helper()
	m, want := 0, 0
	for _, c := range ref {
		m += c[0] + c[1]
	}
	if df.M() != m || len(g.Edges) != m {
		t.Fatalf("store holds %d edges (graph %d), reference %d", df.M(), len(g.Edges), m)
	}
	for _, e := range g.Edges {
		want += 2
		if e.U == e.V {
			want--
		}
	}
	total := 0
	for x := int32(0); int(x) < g.N; x++ {
		for h := df.First(x); h >= 0; h = df.NextIncident(x, h) {
			if e := g.Edges[h]; e.U != x && e.V != x {
				t.Fatalf("vertex %d lists position %d {%d,%d}", x, h, e.U, e.V)
			}
			if total++; total > want {
				t.Fatalf("incidence lists exceed 2m − loops = %d entries", want)
			}
		}
	}
	if total != want {
		t.Fatalf("incidence lists hold %d entries, want %d", total, want)
	}
	for k, c := range ref {
		if got := df.CountKey(k, m+1); got != c[0]+c[1] {
			t.Fatalf("key %x: CountKey = %d, reference %v (non-forest, forest)", k, got, c)
		}
		h := df.PickRemovable(k)
		if h < 0 || g.Edges[h].CanonKey() != k {
			t.Fatalf("key %x: PickRemovable = %d, not a copy of the key", k, h)
		}
		if c[0] > 0 && df.IsForest(h) {
			t.Fatalf("key %x: PickRemovable chose a forest copy, reference %v (non-forest, forest)", k, c)
		}
	}
}

func TestDynForestChurnVsReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		const n = 200
		g := &Graph{N: n}
		df := NewDynForest(g, nil)
		ref := refCounts{}
		add := func(c *[2]int, forest bool, d int) {
			if forest {
				c[1] += d
			} else {
				c[0] += d
			}
		}
		// Grow to ~3000 edges, shrink to ~100, grow again: the way down
		// empties keys while swap-moving survivors.
		for step, target := range []int{3000, 100, 2500, 0} {
			for ops := 0; df.M() != target && ops < 20000; ops++ {
				grow := df.M() < target
				if rng.Intn(4) == 0 {
					grow = !grow // churn against the trend
				}
				if grow || df.M() == 0 {
					var e Edge
					switch r := rng.Intn(10); {
					case r == 0: // self-loop
						v := int32(rng.Intn(n))
						e = Edge{U: v, V: v}
					case r < 4: // heavy parallel copies among 6 hot vertices
						e = Edge{U: int32(rng.Intn(6)), V: int32(rng.Intn(6))}
					default:
						e = Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
					}
					forest := rng.Intn(3) == 0
					df.Insert(e, forest)
					c := ref[e.CanonKey()]
					add(&c, forest, 1)
					ref[e.CanonKey()] = c
				} else {
					var h int32
					if rng.Intn(2) == 0 {
						h = int32(rng.Intn(df.M())) // arbitrary position
					} else {
						h = df.PickRemovable(g.Edges[rng.Intn(df.M())].CanonKey())
					}
					k := g.Edges[h].CanonKey()
					c := ref[k]
					add(&c, df.IsForest(h), -1)
					if c == [2]int{} {
						delete(ref, k)
					} else {
						ref[k] = c
					}
					df.Remove(h)
				}
				if ops%250 == 0 {
					checkAgainst(t, df, g, ref)
				}
			}
			if df.M() != target {
				t.Fatalf("seed %d step %d: stuck at m=%d, target %d", seed, step, df.M(), target)
			}
			checkAgainst(t, df, g, ref)
		}
	}
}

// TestDynForestMemoryPerEdge pins the store's footprint: indexing 2^16
// edges allocates at most 24 bytes per edge (per-position links, forest
// flags, vertex heads).
func TestDynForestMemoryPerEdge(t *testing.T) {
	const m, n = 1 << 16, 1 << 14
	rng := rand.New(rand.NewSource(7))
	g := &Graph{N: n, Edges: make([]Edge, m)}
	for i := range g.Edges {
		g.Edges[i] = Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	df := NewDynForest(g, nil)
	runtime.ReadMemStats(&after)
	perEdge := float64(after.TotalAlloc-before.TotalAlloc) / m
	if perEdge > 24 {
		t.Fatalf("NewDynForest allocated %.1f B/edge at m=2^16, want ≤ 24", perEdge)
	}
	if df.M() != m {
		t.Fatalf("M = %d, want %d", df.M(), m)
	}
	t.Logf("NewDynForest: %.1f B/edge at m=2^16, n=2^14", perEdge)
}

// forestStore builds a store over g the way the session's attach and
// insert paths do — each edge flagged forest exactly when it unites two
// components in arrival order — and returns it with labels naming each
// component by one of its vertices.  Relabels a whole component per
// merge: O(n·m), for small fixtures.
func forestStore(g *Graph) (*DynForest, []int32) {
	labels := make([]int32, g.N)
	for v := range labels {
		labels[v] = int32(v)
	}
	flags := make([]bool, len(g.Edges))
	for i, e := range g.Edges {
		lu, lv := labels[e.U], labels[e.V]
		if flags[i] = lu != lv; flags[i] {
			for v, l := range labels {
				if l == lv {
					labels[v] = lu
				}
			}
		}
	}
	return NewDynForest(g, flags), labels
}

// TestDynForestCheck pins the certificate checker the randomized session
// tests run after every batch: a store built like the session's passes
// it through inserts of a bridge, a duplicate and a loop, and each way of
// breaking the invariant — a cycle-closing or self-loop forest flag, an
// under-spanning forest, labels that merge or split the forest's
// partition, a foreign graph — is reported.
func TestDynForestCheck(t *testing.T) {
	g := FromPairs(6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 4}})
	df, labels := forestStore(g)
	if err := df.Check(g, labels); err != nil {
		t.Fatalf("fresh store fails its own invariant: %v", err)
	}
	// The insert path: the bridge {2,5} unites, its duplicate and the
	// loop {5,5} do not.
	for _, e := range []Edge{{U: 2, V: 5}, {U: 5, V: 2}, {U: 5, V: 5}} {
		merge := labels[e.U] != labels[e.V]
		if merge {
			old := labels[e.V]
			for v := range labels {
				if labels[v] == old {
					labels[v] = labels[e.U]
				}
			}
		}
		df.Insert(e, merge)
	}
	if err := df.Check(g, labels); err != nil {
		t.Fatalf("after inserts: %v", err)
	}

	closer := df.PickRemovable(Edge{U: 2, V: 0}.CanonKey()) // the triangle's non-forest edge
	loop := df.PickRemovable(Edge{U: 4, V: 4}.CanonKey())
	bridge := df.PickRemovable(Edge{U: 3, V: 4}.CanonKey())
	for _, c := range []struct {
		name  string
		h     int32
		flag  bool
		label func([]int32)
		graph *Graph
	}{
		{name: "cycle-closing forest edge", h: closer, flag: true},
		{name: "self-loop forest edge", h: loop, flag: true},
		{name: "under-spanning forest", h: bridge, flag: false},
		{name: "labels merge two components", h: -1, label: func(l []int32) { l[3], l[4] = l[0], l[0] }},
		{name: "labels split a component", h: -1, label: func(l []int32) { l[1] = 1 }},
		{name: "foreign graph", h: -1, graph: g.Clone()},
	} {
		l := slices.Clone(labels)
		if c.h >= 0 {
			df.SetForest(c.h, c.flag)
		}
		if c.label != nil {
			c.label(l)
		}
		cg := g
		if c.graph != nil {
			cg = c.graph
		}
		if err := df.Check(cg, l); err == nil {
			t.Errorf("%s: Check passed a broken certificate", c.name)
		}
		if c.h >= 0 {
			df.SetForest(c.h, !c.flag) // each case flips its handle's true flag
		}
	}
	if err := df.Check(g, labels); err != nil {
		t.Fatalf("flags not restored: %v", err)
	}
}
