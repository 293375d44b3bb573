// Package dynconn is the spanning-forest dynamic connectivity layer of
// the live incremental session: it grows the static forest representation
// of internal/graph.Certificate into a mutable, session-owned structure
// that lets deletions avoid the scoped re-solve in the common case.
//
// The session maintains, per component, a spanning forest over the live
// multiset: every edge is flagged forest (it united two components when
// it arrived) or non-forest (it closed a cycle).  Deleting a non-forest
// edge cannot change the partition — O(1), no graph traversal at all.
// Deleting a forest edge runs a replacement-edge search
// (par.ReplacementSearch): a smaller-side BFS over the broken tree's two
// halves that either promotes a crossing non-forest edge into the forest
// (partition unchanged) or proves the split and relabels the smaller
// side.  Only when the search's scan budget blows does the session fall
// back to the scoped re-solve, after which RebuildRegion restores
// the forest flags of the re-solved region.
//
// The structure is exactly a certificate kept incrementally: acyclic,
// spanning each component, forest edges ⊆ live edges — Check asserts all
// three, and the randomized session tests run it after every batch.
package dynconn

import (
	"fmt"

	"parcc/internal/graph"
	"parcc/internal/par"
)

// BudgetFloor is the minimum adjacency-scan budget of a replacement
// search, below the m/4 proportional term.  A variable so tests can force
// the budget-blow fallback on small graphs.
var BudgetFloor int64 = 1024

// Tracker owns the session's forest state: the DynForest edge store over
// the live graph and a reusable per-batch mark buffer.  Orchestrator-owned
// (the Solver's session lock), like everything it wraps.
type Tracker struct {
	DF    *graph.DynForest
	marks []bool
}

// New returns an empty Tracker; call Marks + Init to bind it to a graph.
func New() *Tracker { return &Tracker{} }

// Marks returns the tracker's mark buffer resized to n — the target of a
// par.UniteBatchMark whose outcome Init or the insert path consumes.
func (t *Tracker) Marks(n int) []bool {
	if cap(t.marks) < n {
		t.marks = make([]bool, n)
	}
	t.marks = t.marks[:n]
	return t.marks
}

// Init indexes g and hands the current mark buffer to the store as its
// forest flags (marks[i] applies to edge position i — the attach path
// fills it with a UniteBatchMark pass over g.Edges).  The store keeps the
// buffer; the next Marks call allocates a fresh one.
func (t *Tracker) Init(g *graph.Graph) {
	t.DF = graph.NewDynForest(g, t.marks)
	t.marks = nil
}

// DeleteKind classifies one deletion's handling.
type DeleteKind uint8

const (
	// DeleteNonForest: the removed occurrence was a non-forest edge (or a
	// self-loop) — the partition is untouched, O(1).
	DeleteNonForest DeleteKind = iota
	// DeleteReplaced: a forest edge fell but a replacement crossing edge
	// was promoted — the partition is untouched.
	DeleteReplaced
	// DeleteSplit: the component truly split; the smaller side was
	// relabeled to Result.NewRoot in place.
	DeleteSplit
	// DeleteBudget: the replacement search blew its budget; the caller
	// must mark the component dirty and fall back to the scoped re-solve.
	DeleteBudget
	// DeleteDirty: the edge lived in a component already marked dirty this
	// batch — only the occurrence was removed (its forest state is pending
	// the region rebuild, so no search is sound there).
	DeleteDirty
)

// DeleteResult reports one Delete.
type DeleteResult struct {
	Kind    DeleteKind
	Root    int32 // the edge's component root before the delete
	NewRoot int32 // new root of the relabeled side (DeleteSplit)
	Moved   int   // vertices relabeled (DeleteSplit)
	Scanned int64 // replacement-search adjacency entries inspected
}

// Delete removes one occurrence of ed (either orientation; the caller has
// validated existence) and repairs the forest.  p must be flat for the
// affected component; fa/fb are the session's empty frontier pair (left
// empty).  dirty reports whether a component root is already awaiting the
// scoped fallback — deletes there skip all forest reasoning.
func (t *Tracker) Delete(p []int32, ed graph.Edge, fa, fb *par.Frontier, dirty func(root int32) bool) DeleteResult {
	return t.DeleteCollect(p, ed, fa, fb, dirty, nil)
}

// DeleteCollect is Delete additionally collecting the relabeled side's
// membership on a DeleteSplit: when moved is non-nil, the vertices that
// took Result.NewRoot are appended to *moved (reset first) — the feed of
// the copy-on-write snapshot mirror's member lists.  Untouched on every
// other outcome.
func (t *Tracker) DeleteCollect(p []int32, ed graph.Edge, fa, fb *par.Frontier, dirty func(root int32) bool, moved *[]int32) DeleteResult {
	df := t.DF
	h := df.PickRemovable(ed.CanonKey())
	u, v := df.U(h), df.V(h)
	wasForest := df.IsForest(h)
	df.Remove(h)
	res := DeleteResult{Root: p[u]}
	if u == v || !wasForest {
		res.Kind = DeleteNonForest
		return res
	}
	if dirty(res.Root) {
		res.Kind = DeleteDirty
		return res
	}
	sr := par.ReplacementSearchCollect(df, p, u, v, fa, fb, t.Budget(), moved)
	res.Scanned = sr.Scanned
	switch sr.Outcome {
	case par.ReplaceFound:
		df.SetForest(sr.Handle, true)
		res.Kind = DeleteReplaced
	case par.ReplaceSplit:
		res.Kind = DeleteSplit
		res.NewRoot = sr.NewRoot
		res.Moved = sr.Moved
	default:
		res.Kind = DeleteBudget
	}
	return res
}

// Budget is the replacement search's adjacency-scan allowance: a quarter
// of the live edge count, floored by BudgetFloor.  Proportional so a
// search never costs more than the O(m) order of the fallback it guards.
func (t *Tracker) Budget() int64 {
	b := int64(t.DF.M()) / 4
	if b < BudgetFloor {
		b = BudgetFloor
	}
	return b
}

// RebuildRegion recomputes the forest flags of a re-solved region after a
// scoped fallback: verts are the region's vertices, vmap the compact map
// used for the induced solve (vmap[v] = compact id + 1, 0 outside), and
// uf a scratch array of len ≥ len(verts).  A sequential union-find pass
// over the region's edges re-derives the flags — every edge incident to a
// region vertex has both endpoints in the region (dirty components are
// closed under adjacency), and iterating side-0 handles only visits each
// exactly once.  O(region vertices + region edges · α).
func (t *Tracker) RebuildRegion(verts, vmap, uf []int32) {
	df := t.DF
	for i := range verts {
		uf[i] = int32(i)
	}
	for _, gv := range verts {
		for h := df.First(gv); h >= 0; h = df.NextIncident(gv, h) {
			if df.U(h) != gv {
				continue // side-1 visit; counted from the u endpoint
			}
			cu, cv := vmap[df.U(h)]-1, vmap[df.V(h)]-1
			df.SetForest(h, cu != cv && seqUnite(uf, cu, cv))
		}
	}
}

// Check asserts the store indexes exactly the live graph and that the
// maintained forest is a valid spanning forest of it whose partition is
// labels: forest edges are loop-free and acyclic, and the partition they
// induce equals labels exactly — together with forest ⊆ live (structural:
// flags live on positions) this is the certificate invariant.  Test-only;
// O(n + m·α).
func (t *Tracker) Check(g *graph.Graph, labels []int32) error {
	df := t.DF
	if df.M() != len(g.Edges) {
		return fmt.Errorf("dynconn: store tracks %d edges, graph holds %d", df.M(), len(g.Edges))
	}
	if err := checkIndex(df, g); err != nil {
		return err
	}
	uf := make([]int32, g.N)
	for i := range uf {
		uf[i] = int32(i)
	}
	for h, ed := range g.Edges {
		if !df.IsForest(int32(h)) {
			continue
		}
		if ed.U == ed.V {
			return fmt.Errorf("dynconn: self-loop {%d,%d} flagged as forest edge", ed.U, ed.V)
		}
		if !seqUnite(uf, ed.U, ed.V) {
			return fmt.Errorf("dynconn: forest edge {%d,%d} closes a cycle", ed.U, ed.V)
		}
	}
	forestLabels := make([]int32, g.N)
	for v := range forestLabels {
		forestLabels[v] = seqFind(uf, int32(v))
	}
	if !graph.SamePartition(forestLabels, labels) {
		return fmt.Errorf("dynconn: forest partition disagrees with live labels (forest under- or over-spans)")
	}
	return nil
}

// checkIndex asserts the store's two indexes cover g.Edges exactly: every
// position sits in its endpoints' incidence lists (no entry twice, 2m −
// loops entries in total), and every position sits in exactly one key
// chain, reached from the table under its own key.
func checkIndex(df *graph.DynForest, g *graph.Graph) error {
	m := len(g.Edges)
	seen := make([]uint8, m) // bit 1: listed at U (side 0), bit 2: at V
	want, total := 2*m, 0
	for x := int32(0); int(x) < g.N; x++ {
		for h := df.First(x); h >= 0; h = df.NextIncident(x, h) {
			if int(h) >= m {
				return fmt.Errorf("dynconn: vertex %d lists handle %d, m = %d", x, h, m)
			}
			e, bit := g.Edges[h], uint8(1)
			if e.U != x {
				bit = 2
			}
			if e.U != x && e.V != x || seen[h]&bit != 0 {
				return fmt.Errorf("dynconn: vertex %d lists position %d {%d,%d} wrongly or twice", x, h, e.U, e.V)
			}
			seen[h] |= bit
			total++
		}
	}
	for _, e := range g.Edges {
		if e.U == e.V {
			want--
		}
	}
	if total != want {
		return fmt.Errorf("dynconn: incidence lists hold %d entries, want 2m − loops = %d", total, want)
	}
	chained := make([]bool, m)
	count := 0
	for _, e := range g.Edges {
		k := e.CanonKey()
		head := df.KeyFirst(k)
		if head < 0 {
			return fmt.Errorf("dynconn: key of {%d,%d} unreachable from the table", e.U, e.V)
		}
		if chained[head] {
			continue // this key's chain was walked already
		}
		for h := head; h >= 0; h = df.KeyNext(h) {
			if int(h) >= m || chained[h] || g.Edges[h].CanonKey() != k {
				return fmt.Errorf("dynconn: key chain of {%d,%d} reaches handle %d out of place", e.U, e.V, h)
			}
			chained[h] = true
			count++
		}
	}
	if count != m {
		return fmt.Errorf("dynconn: key chains hold %d positions, want %d", count, m)
	}
	return nil
}

// seqFind / seqUnite are the sequential union-find helpers of the rebuild
// and checker paths (path halving; union by minimum is unnecessary here).
func seqFind(p []int32, v int32) int32 {
	for p[v] != v {
		p[v] = p[p[v]]
		v = p[v]
	}
	return v
}

func seqUnite(p []int32, a, b int32) bool {
	ra, rb := seqFind(p, a), seqFind(p, b)
	if ra == rb {
		return false
	}
	if ra < rb {
		p[rb] = ra
	} else {
		p[ra] = rb
	}
	return true
}
