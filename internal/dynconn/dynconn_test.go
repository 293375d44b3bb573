package dynconn

import (
	"testing"

	"parcc/internal/graph"
	"parcc/internal/par"
)

// seqExec is the minimal Exec for tests: run the body sequentially.
type seqExec struct{}

func (seqExec) Run(n int, body func(int)) {
	for i := 0; i < n; i++ {
		body(i)
	}
}

func (seqExec) Procs() int { return 1 }

// buildTracker attaches a tracker to g with a flat parent array, the way
// the session's attach path does.
func buildTracker(t *testing.T, g *graph.Graph) (*Tracker, []int32) {
	t.Helper()
	tr := New()
	p := make([]int32, g.N)
	for v := range p {
		p[v] = int32(v)
	}
	par.UniteBatchMark(seqExec{}, p, g.Edges, tr.Marks(g.M()))
	tr.Init(g)
	par.Compress(seqExec{}, p)
	if err := tr.Check(g, p); err != nil {
		t.Fatalf("fresh tracker fails its own invariant: %v", err)
	}
	return tr, p
}

func TestTrackerDeleteKinds(t *testing.T) {
	// Triangle {0,1,2} plus pendant 3 on a bridge and a self-loop at 0:
	// one triangle edge is non-forest, the bridge is forest with no
	// replacement, the loop is free.
	g := graph.FromPairs(4, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {0, 0}})
	tr, p := buildTracker(t, g)
	fa, fb := par.NewFrontier(nil, g.N), par.NewFrontier(nil, g.N)
	clean := func(int32) bool { return false }

	// The self-loop: always non-forest.
	if dr := tr.Delete(p, graph.Edge{U: 0, V: 0}, fa, fb, clean); dr.Kind != DeleteNonForest {
		t.Fatalf("self-loop delete kind = %v, want DeleteNonForest", dr.Kind)
	}
	// Some triangle edge is the cycle-closer; deleting each triangle edge
	// in turn yields one non-forest delete and then replacements/splits
	// consistent with the oracle partition.  Delete {0,1}: either it was
	// non-forest (free) or the other two triangle edges reconnect it.
	if dr := tr.Delete(p, graph.Edge{U: 0, V: 1}, fa, fb, clean); dr.Kind != DeleteNonForest && dr.Kind != DeleteReplaced {
		t.Fatalf("triangle delete kind = %v, want non-forest or replaced", dr.Kind)
	}
	if err := tr.Check(g, p); err != nil {
		t.Fatalf("after triangle delete: %v", err)
	}
	// The bridge: a true split moving exactly the pendant.
	dr := tr.Delete(p, graph.Edge{U: 2, V: 3}, fa, fb, clean)
	if dr.Kind != DeleteSplit || dr.Moved != 1 {
		t.Fatalf("bridge delete = kind %v moved %d, want split moving 1", dr.Kind, dr.Moved)
	}
	if p[3] == p[0] {
		t.Fatal("split did not relabel the pendant side")
	}
	if err := tr.Check(g, p); err != nil {
		t.Fatalf("after split: %v", err)
	}

	// Dirty short-circuit: with the component reported dirty, a forest
	// delete must not search or mutate labels.
	g2 := graph.FromPairs(2, [][2]int{{0, 1}})
	tr2, p2 := buildTracker(t, g2)
	dr = tr2.Delete(p2, graph.Edge{U: 0, V: 1}, fa, fb, func(int32) bool { return true })
	if dr.Kind != DeleteDirty || dr.Scanned != 0 {
		t.Fatalf("dirty delete = kind %v scanned %d, want DeleteDirty with no scan", dr.Kind, dr.Scanned)
	}
	if p2[0] != p2[1] {
		t.Fatal("dirty delete must leave labels to the scoped fallback")
	}
}

func TestTrackerBudgetAndRebuildRegion(t *testing.T) {
	defer func(old int64) { BudgetFloor = old }(BudgetFloor)
	BudgetFloor = 1 // cycle budget m/4 = 16: the far cut below needs ~100 scans

	// Cycle of 64: the sequential build makes the closing edge {63,0} the
	// one non-forest edge, so cutting {32,33} cannot find it in budget.
	n := 64
	pairs := make([][2]int, n)
	for i := 0; i < n; i++ {
		pairs[i] = [2]int{i, (i + 1) % n}
	}
	g := graph.FromPairs(n, pairs)
	tr, p := buildTracker(t, g)
	fa, fb := par.NewFrontier(nil, g.N), par.NewFrontier(nil, g.N)
	dr := tr.Delete(p, graph.Edge{U: 32, V: 33}, fa, fb, func(int32) bool { return false })
	if dr.Kind != DeleteBudget {
		t.Fatalf("far cut kind = %v, want DeleteBudget (budget %d)", dr.Kind, tr.Budget())
	}

	// The session's fallback: re-solve the region (trivially: it is still
	// one component via {63,0}) and rebuild the flags.  Emulate it with
	// the whole vertex set as the region, all in one sub-component.
	verts := make([]int32, n)
	vmap := make([]int32, n)
	for i := range verts {
		verts[i] = int32(i)
		vmap[i] = int32(i) + 1
	}
	uf := make([]int32, n)
	tr.RebuildRegion(verts, vmap, uf)
	for i := range p {
		p[i] = 0 // the scoped labels: still one component
	}
	if err := tr.Check(g, p); err != nil {
		t.Fatalf("rebuilt region fails the invariant: %v", err)
	}
}

func TestTrackerInsertPath(t *testing.T) {
	// AddEdges shape: unite-with-marks, then Insert each edge with its
	// outcome.  A duplicate and a loop must come out non-forest.
	g := graph.FromPairs(3, [][2]int{{0, 1}})
	tr, p := buildTracker(t, g)
	batch := []graph.Edge{{U: 1, V: 2}, {U: 1, V: 2}, {U: 2, V: 2}}
	marks := tr.Marks(len(batch))
	if merges := par.UniteBatchMark(seqExec{}, p, batch, marks); merges != 1 {
		t.Fatalf("merges = %d, want 1", merges)
	}
	for i, ed := range batch {
		tr.DF.Insert(ed, marks[i])
	}
	par.Compress(seqExec{}, p)
	if err := tr.Check(g, p); err != nil {
		t.Fatalf("after insert batch: %v", err)
	}
	if !marks[0] || marks[1] || marks[2] {
		t.Fatalf("marks = %v, want [true false false]", marks)
	}
}
