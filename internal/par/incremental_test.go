package par_test

import (
	"slices"
	"testing"

	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
	"parcc/internal/par"
)

// TestUniteBatchMergeCount: the reported merge count must equal the drop
// in the number of sets and the number of marked edges, with loops and
// parallel edges in the batch; then, on random GNM batches over an
// identity forest and over a flat forest whose roots are not their sets'
// minima (the shape a split leaves), the marks and losers must be exact
// (see checkUniteBatch).
func TestUniteBatchMergeCount(t *testing.T) {
	edges := []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 0}, {U: 2, V: 3}, {U: 3, V: 4},
		{U: 5, V: 5}, {U: 6, V: 7}, {U: 0, V: 4},
	}
	p := make([]int32, 9)
	for i := range p {
		p[i] = int32(i)
	}
	marks := make([]bool, len(edges))
	merges := par.UniteBatch(p, edges, marks, nil)
	if merges != 5 { // {0,1}+{2,3,4} fuse into {0..4}; {6,7}; loop & dup no-ops
		t.Fatalf("merges = %d, want 5", merges)
	}
	marked := 0
	for _, ok := range marks {
		if ok {
			marked++
		}
	}
	if marked != merges || marks[4] {
		t.Fatalf("marks = %v, want %d marked and the loop unmarked", marks, merges)
	}
	for _, pair := range [][2]int32{{0, 4}, {2, 1}, {6, 7}} {
		if par.Find(p, pair[0]) != par.Find(p, pair[1]) {
			t.Fatalf("%d and %d not merged", pair[0], pair[1])
		}
	}
	if p[5] != 5 || p[8] != 8 {
		t.Fatal("singletons moved")
	}

	const n, m, batch, group = 1 << 10, 1 << 11, 64, 16
	for seed := uint64(1); seed <= 4; seed++ {
		g := gen.GNM(n, m, seed)
		g.Edges = append(g.Edges, graph.Edge{U: 3, V: 3}, g.Edges[0])
		for _, shape := range []string{"identity", "flat-non-min-roots"} {
			p := make([]int32, n)
			for v := range p {
				p[v] = int32(v)
				if shape != "identity" {
					// Groups of 16 consecutive vertices, each flat under a
					// member other than its minimum.
					lo := v / group * group
					p[v] = int32(lo + (lo/group*7+5)%group)
				}
			}
			for lo := 0; lo < len(g.Edges); lo += batch {
				b := g.Edges[lo:min(lo+batch, len(g.Edges))]
				if err := checkUniteBatch(p, b); err != "" {
					t.Fatalf("seed %d, %s forest, batch at %d: %s", seed, shape, lo, err)
				}
			}
		}
	}
}

// checkUniteBatch runs one UniteBatch on the forest p and checks its
// bookkeeping against a baseline.UnionFind of the pre-batch partition:
// the marked edges are acyclic over that partition and reach the
// post-batch one, the losers are distinct and each was a root before the
// batch, and the merge count equals the drop in the number of sets.
// Returns "" or what broke.
func checkUniteBatch(p []int32, b []graph.Edge) string {
	n := len(p)
	ref := baseline.NewUnionFind(n)
	wasRoot := make([]bool, n)
	for v := range p {
		ref.Union(int32(v), par.Find(p, int32(v)))
		wasRoot[v] = p[v] == int32(v)
	}
	setsBefore := ref.Count()
	marks, losers := make([]bool, len(b)), make([]int32, len(b))
	merges := par.UniteBatch(p, b, marks, losers)
	for i, e := range b {
		if marks[i] && !ref.Union(e.U, e.V) {
			return "marked edge closes a cycle over the pre-batch partition"
		}
	}
	for _, e := range b {
		if ref.Find(e.U) != ref.Find(e.V) {
			return "marked edges do not reach the post-batch partition"
		}
	}
	got, want := make([]int32, n), make([]int32, n)
	for v := range p {
		got[v], want[v] = par.Find(p, int32(v)), ref.Find(int32(v))
	}
	if !graph.SamePartition(got, want) {
		return "forest partition differs from pre-batch partition plus marked edges"
	}
	if drop := setsBefore - ref.Count(); merges != drop {
		return "merge count is not the drop in the number of sets"
	}
	ls := slices.Clone(losers[:merges])
	slices.Sort(ls)
	if len(slices.Compact(ls)) != merges {
		return "a root lost twice"
	}
	for _, r := range ls {
		if !wasRoot[r] || p[r] == r {
			return "a loser was not a root before the batch or still is one"
		}
	}
	return ""
}
