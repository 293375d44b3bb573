package par

import (
	"slices"
	"testing"

	"parcc/internal/graph"
)

// replaceFixture builds a DynForest over pairs with the given forest
// flags, a flat parent array labeling every vertex with root, and a
// frontier pair — the exact state ReplacementSearch sees inside a
// deletion batch.
func replaceFixture(n int, pairs [][2]int, forest []bool, root int32) (*graph.DynForest, []int32, *Frontier, *Frontier) {
	g := graph.FromPairs(n, pairs)
	df := graph.NewDynForest(g, forest)
	p := make([]int32, n)
	for i := range p {
		p[i] = root
	}
	return df, p, NewFrontier(nil, n), NewFrontier(nil, n)
}

func TestReplacementSearchFindsCrossing(t *testing.T) {
	// Square 0-1-2-3 with forest edges {0,1},{1,2},{2,3} and non-forest
	// closing edge {3,0}.  Deleting forest edge {1,2} must promote {3,0}.
	df, p, fu, fv := replaceFixture(4,
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
		[]bool{true, true, true, false}, 0)
	df.Remove(df.PickRemovable(graph.Edge{U: 1, V: 2}.CanonKey()))
	res := ReplacementSearch(df, p, 1, 2, fu, fv, 1<<20, nil)
	if res.Outcome != ReplaceFound {
		t.Fatalf("outcome = %v, want ReplaceFound", res.Outcome)
	}
	e := graph.Edge{U: df.U(res.Handle), V: df.V(res.Handle)}
	if e.CanonKey() != (graph.Edge{U: 3, V: 0}).CanonKey() {
		t.Fatalf("replacement = {%d,%d}, want {3,0}", e.U, e.V)
	}
	for v, pv := range p {
		if pv != 0 {
			t.Fatalf("found-replacement search mutated labels (p[%d]=%d)", v, pv)
		}
	}
	if fu.Count() != 0 || fv.Count() != 0 || fu.Len() != 0 {
		t.Fatal("frontiers must be left empty")
	}
}

func TestReplacementSearchSplitRelabelsNonRootSide(t *testing.T) {
	// Path 0-1-2-3-4, all forest, rooted at 0.  Deleting {1,2} splits;
	// the side holding root 0 must keep its labels and the far side
	// {2,3,4} must be relabeled flat to its BFS seed and reported through
	// moved, whose stale contents are reset first.
	df, p, fu, fv := replaceFixture(5,
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}},
		[]bool{true, true, true, true}, 0)
	df.Remove(df.PickRemovable(graph.Edge{U: 1, V: 2}.CanonKey()))
	moved := []int32{99}
	res := ReplacementSearch(df, p, 1, 2, fu, fv, 1<<20, &moved)
	if res.Outcome != ReplaceSplit {
		t.Fatalf("outcome = %v, want ReplaceSplit", res.Outcome)
	}
	if res.NewRoot != 2 || res.Moved != 3 {
		t.Fatalf("split = root %d moved %d, want root 2 moved 3", res.NewRoot, res.Moved)
	}
	if slices.Sort(moved); !slices.Equal(moved, []int32{2, 3, 4}) {
		t.Fatalf("moved = %v, want the relabeled side [2 3 4]", moved)
	}
	for v, want := range []int32{0, 0, 2, 2, 2} {
		if p[v] != want {
			t.Fatalf("p = %v, want [0 0 2 2 2]", p)
		}
	}
}

func TestReplacementSearchSplitRootOnSmallerSide(t *testing.T) {
	// Same path rooted at the END: root 4 sits on the side whose BFS
	// exhausts second when {3,4} is cut (side {4} exhausts first and
	// holds the root... so test the other orientation: cut {0,1} with
	// root 0 — the exhausting side {0} holds the root, forcing the
	// kernel to enumerate and relabel the complement {1,2,3,4}.
	df, p, fu, fv := replaceFixture(5,
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}},
		[]bool{true, true, true, true}, 0)
	df.Remove(df.PickRemovable(graph.Edge{U: 0, V: 1}.CanonKey()))
	res := ReplacementSearch(df, p, 0, 1, fu, fv, 1<<20, nil)
	if res.Outcome != ReplaceSplit {
		t.Fatalf("outcome = %v, want ReplaceSplit", res.Outcome)
	}
	if res.NewRoot != 1 || res.Moved != 4 {
		t.Fatalf("split = root %d moved %d, want root 1 moved 4 (complement of the root's side)",
			res.NewRoot, res.Moved)
	}
	for v, want := range []int32{0, 1, 1, 1, 1} {
		if p[v] != want {
			t.Fatalf("p = %v, want [0 1 1 1 1]", p)
		}
	}
}

func TestReplacementSearchBudgetMutatesNothing(t *testing.T) {
	// Long path: the split verdict needs ~2n scans, far over a budget of 4.
	n := 64
	pairs := make([][2]int, n-1)
	forest := make([]bool, n-1)
	for i := range pairs {
		pairs[i] = [2]int{i, i + 1}
		forest[i] = true
	}
	df, p, fu, fv := replaceFixture(n, pairs, forest, 0)
	df.Remove(df.PickRemovable(graph.Edge{U: 31, V: 32}.CanonKey()))
	res := ReplacementSearch(df, p, 31, 32, fu, fv, 4, nil)
	if res.Outcome != ReplaceBudget {
		t.Fatalf("outcome = %v, want ReplaceBudget", res.Outcome)
	}
	for v, pv := range p {
		if pv != 0 {
			t.Fatalf("budget bailout mutated labels (p[%d]=%d)", v, pv)
		}
	}
	if fu.Count() != 0 || fv.Count() != 0 {
		t.Fatal("frontiers must be left empty on budget bailout")
	}
	// The same search with budget restored succeeds and relabels.
	if res = ReplacementSearch(df, p, 31, 32, fu, fv, 1<<20, nil); res.Outcome != ReplaceSplit {
		t.Fatalf("re-run outcome = %v, want ReplaceSplit", res.Outcome)
	}
}

func TestFrontierHas(t *testing.T) {
	f := NewFrontier(nil, 130)
	f.BeginCollect(true)
	f.Add(0)
	f.Add(129)
	if !f.Has(0) || !f.Has(129) || f.Has(64) {
		t.Fatal("Has must mirror Add membership")
	}
	f.Clear()
	if f.Has(0) || f.Has(129) {
		t.Fatal("Clear must empty Has membership")
	}
	f.SeedAll()
	if !f.Has(64) {
		t.Fatal("full frontier contains every vertex")
	}
	f.Clear()
}

// forestStore builds a store over g the way Attach does — one UniteBatch
// over the edge list, whose marks are the forest flags — and returns it
// with the flat minimum labels.
func forestStore(g *graph.Graph) (*graph.DynForest, []int32) {
	p := make([]int32, g.N)
	for v := range p {
		p[v] = int32(v)
	}
	flags := make([]bool, g.M())
	UniteBatch(p, g.Edges, flags, nil)
	for v, pv := range p { // ascending flatten: a fresh forest's parents stay ≤ their vertex
		p[v] = p[pv]
	}
	return graph.NewDynForest(g, flags), p
}

// TestDynForestRebuildRegion pins the scoped fallback's in-place
// relabel: two forest edges of a cycle are removed without a replacement
// search, which leaves the labels one component too coarse and the flags
// under-spanning, and RebuildRegion over the cycle (a parallel copy and a
// self-loop among its edges) must count the region's two components and
// its edges, label each component by its minimum vertex, leave the path
// component outside the region untouched, and re-derive a spanning
// forest the checker accepts.
func TestDynForestRebuildRegion(t *testing.T) {
	const cyc, n = 64, 80
	pairs := [][2]int{{5, 6}, {7, 7}}
	for i := range cyc {
		pairs = append(pairs, [2]int{i, (i + 1) % cyc})
	}
	for i := cyc; i+1 < n; i++ {
		pairs = append(pairs, [2]int{i, i + 1})
	}
	g := graph.FromPairs(n, pairs)
	df, labels := forestStore(g)
	for _, e := range []graph.Edge{{U: 32, V: 33}, {U: 10, V: 11}} {
		h := df.PickRemovable(e.CanonKey())
		if !df.IsForest(h) {
			t.Fatalf("edge %v must be a forest edge", e)
		}
		df.Remove(h)
	}
	if err := df.Check(g, labels); err == nil {
		t.Fatal("removing forest edges without repair must leave the forest under-spanning")
	}
	var verts []int32
	in := make([]int32, n)
	for v := range int32(cyc) {
		verts = append(verts, v)
		in[v] = 1
	}
	parent := slices.Clone(labels)
	// The cycle less its two removed edges, plus the copy and the loop.
	wantEdges := cyc - 2 + 2
	if c, m := RebuildRegion(df, parent, verts, in); c != 2 || m != wantEdges {
		t.Fatalf("region components/edges = %d/%d, want 2/%d", c, m, wantEdges)
	}
	for v := range parent {
		want := int32(0) // {33..63, 0..10}
		switch {
		case v >= cyc:
			want = cyc
		case v >= 11 && v <= 32:
			want = 11
		}
		if parent[v] != want {
			t.Fatalf("parent[%d] = %d, want the minimum %d of its component", v, parent[v], want)
		}
	}
	if err := df.Check(g, parent); err != nil {
		t.Fatalf("rebuilt region fails the invariant: %v", err)
	}
}
