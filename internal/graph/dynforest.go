package graph

import (
	"fmt"
	"slices"
)

// DynForest is the mutable edge store behind the spanning-forest dynamic
// connectivity of the live session (the parcc Solver's AddEdges and
// RemoveEdges): the adjacency, multiset, and forest-flag views of a Graph
// whose edge list the incremental API mutates in place.  It holds each
// edge once — a handle is a position in g.Edges, which also supplies the
// endpoints — and keeps one index besides positional identity: per-vertex
// incident-edge iteration (First/NextIncident), the walk the
// replacement-edge search runs — a doubly-linked handle list per
// endpoint, so Remove unlinks in O(1).
//
// Multiset lookup by canonical key (CountKey/PickRemovable), the deletion
// contract's "one occurrence per batch entry, either orientation", walks
// the lists of the key's two endpoints in lockstep: every copy of {u,v}
// sits on both lists, so when the shorter one ends the walk has seen them
// all, after at most 2·min(deg u, deg v) + 1 entries, with no hashed
// state to keep.
//
// Remove swap-removes: the last edge moves into the hole and takes over
// its handle, so a handle is valid only until the next Remove — callers
// resolve and use handles within one operation.  The permuted edge order
// matters to nothing downstream (the session drops its cached plan on
// every removal).  m < 2^31, like the rest of the int32-indexed stack.
// Orchestrator-owned (the Solver's session lock): not safe for concurrent
// use.
type DynForest struct {
	g    *Graph
	head []int32 // per-vertex adjacency head handle, -1 when empty

	// Per handle: links on side 0 (the list at U) and side 1 (at V; a
	// self-loop uses side 0 only), the forest flag.
	next, prev [][2]int32
	forest     []bool
}

// NewDynForest indexes g's edge list and takes it over (mutate it only
// through Insert/Remove afterwards).  forest holds the initial flags by
// position (nil: all false) and is taken over too, not copied.
func NewDynForest(g *Graph, forest []bool) *DynForest {
	m := len(g.Edges)
	if forest == nil {
		forest = make([]bool, m)
	}
	df := &DynForest{
		g:      g,
		head:   slices.Repeat([]int32{-1}, g.N),
		next:   make([][2]int32, m),
		prev:   make([][2]int32, m),
		forest: forest[:m],
	}
	for h := range g.Edges {
		df.link(int32(h))
	}
	return df
}

// M returns the number of live edges.
func (df *DynForest) M() int { return len(df.g.Edges) }

// U, V, IsForest, SetForest read handle h's endpoints and read or write
// its forest flag.
func (df *DynForest) U(h int32) int32           { return df.g.Edges[h].U }
func (df *DynForest) V(h int32) int32           { return df.g.Edges[h].V }
func (df *DynForest) IsForest(h int32) bool     { return df.forest[h] }
func (df *DynForest) SetForest(h int32, b bool) { df.forest[h] = b }

// Other returns the endpoint of h opposite x (x itself for a self-loop);
// x is one of the two, so the xor cancels it.
func (df *DynForest) Other(h, x int32) int32 { return df.g.Edges[h].U ^ df.g.Edges[h].V ^ x }

// First returns the first incident handle of x and NextIncident the one
// after h in x's list (-1 at the end; h must be incident to x).
func (df *DynForest) First(x int32) int32           { return df.head[x] }
func (df *DynForest) NextIncident(x, h int32) int32 { return df.next[h][df.sideOf(h, x)] }

// CountKey returns the number of live occurrences of the canonical key k,
// counting at most max (the validation pass only needs "enough").  Each
// endpoint's list holds every copy, so a list's count is exact once it
// ends, and either count reaching max settles it.
func (df *DynForest) CountKey(k int64, max int) int {
	var c [2]int
	df.walkKey(k, func(side int, _ int32) bool {
		c[side]++
		return c[side] < max
	})
	if c[1] > c[0] {
		c[0] = c[1]
	}
	return min(c[0], max)
}

// PickRemovable returns a live handle with canonical key k, preferring a
// non-forest occurrence — removing a parallel copy must never disturb the
// forest, and the acyclicity invariant (at most one forest copy per key)
// makes any non-forest pick safe.  Returns -1 when the key is absent.
func (df *DynForest) PickRemovable(k int64) int32 {
	pick := int32(-1)
	df.walkKey(k, func(_ int, h int32) bool {
		if pick < 0 || !df.forest[h] {
			pick = h
		}
		return df.forest[h]
	})
	return pick
}

// walkKey visits the copies of key k = {u,v}: it steps through u's list
// (side 0) and v's list (side 1) one entry each in turn, until visit
// returns false or either list ends.  Every copy sits on both lists, so
// the end of the shorter one means all were seen, after at most
// 2·min(deg u, deg v) + 1 entries.  A self-loop key walks its one list
// on both sides.
func (df *DynForest) walkKey(k int64, visit func(side int, h int32) bool) {
	ends := [2]int32{int32(k >> 32), int32(uint32(k))}
	at := [2]int32{df.head[ends[0]], df.head[ends[1]]}
	for {
		for side, x := range ends {
			h := at[side]
			if h < 0 {
				return
			}
			if df.Other(h, x) == ends[1-side] && !visit(side, h) {
				return
			}
			at[side] = df.NextIncident(x, h)
		}
	}
}

// Insert appends e to g.Edges and registers it, returning its handle.
func (df *DynForest) Insert(e Edge, forest bool) int32 {
	h := int32(len(df.g.Edges))
	df.g.Edges = append(df.g.Edges, e)
	df.next, df.prev = append(df.next, [2]int32{}), append(df.prev, [2]int32{})
	df.forest = append(df.forest, forest)
	df.link(h)
	return h
}

// Remove deletes handle h, then moves the last edge into position h and
// re-points its list neighbours (or vertex heads) there.
func (df *DynForest) Remove(h int32) {
	df.relink(h, df.g.Edges[h], -1)
	last := int32(len(df.g.Edges) - 1)
	if h != last {
		me := df.g.Edges[last]
		df.relink(last, me, h)
		df.g.Edges[h] = me
		df.next[h], df.prev[h], df.forest[h] = df.next[last], df.prev[last], df.forest[last]
	}
	df.g.Edges = df.g.Edges[:last]
	df.next, df.prev, df.forest = df.next[:last], df.prev[:last], df.forest[:last]
}

// sideOf is h's side anchored at x: 0 iff x is h's U (so loops use 0).
func (df *DynForest) sideOf(h, x int32) int {
	if df.g.Edges[h].U == x {
		return 0
	}
	return 1
}

// link pushes h onto the front of its endpoints' lists.
func (df *DynForest) link(h int32) {
	e := df.g.Edges[h]
	nv := int32(-1)
	if e.V != e.U {
		nv = df.head[e.V]
	}
	df.next[h], df.prev[h] = [2]int32{df.head[e.U], nv}, [2]int32{-1, -1}
	df.relink(h, e, h)
}

// relink re-points the list neighbours of h (which holds e) at both
// endpoints — each predecessor's next (or the vertex head) and each
// successor's prev — at position to, or past h when to < 0 (unlinking
// it).  link uses it to push h at the heads, Remove to unlink and move.
func (df *DynForest) relink(h int32, e Edge, to int32) {
	for side, x := range [2]int32{e.U, e.V} {
		if side == 1 && x == e.U {
			break // a self-loop lives on side 0 only
		}
		nh, ph := df.next[h][side], df.prev[h][side]
		pn, sp := to, to
		if to < 0 {
			pn, sp = nh, ph
		}
		if ph >= 0 {
			df.next[ph][df.sideOf(ph, x)] = pn
		} else {
			df.head[x] = pn
		}
		if nh >= 0 {
			df.prev[nh][df.sideOf(nh, x)] = sp
		}
	}
}

// Check asserts the store indexes exactly the live graph g and that the
// maintained forest is a valid spanning forest of it whose partition is
// labels: the forest-flagged edges, handed to VerifyCertificate, must be
// acyclic (a flagged self-loop closes a cycle) and induce exactly the
// partition labels — together with forest ⊆ live (structural: flags live
// on positions) this is the certificate invariant.  Verification code for
// tests; O(n + m·α).
func (df *DynForest) Check(g *Graph, labels []int32) error {
	if df.g != g {
		return fmt.Errorf("dynforest: store indexes a different graph than the one checked")
	}
	if err := df.checkIndex(); err != nil {
		return err
	}
	c := &Certificate{Labels: labels}
	for h, ed := range g.Edges {
		if df.forest[h] {
			c.Forest = append(c.Forest, ed)
		}
	}
	if err := VerifyCertificate(g, c); err != nil {
		return fmt.Errorf("dynforest: %w", err)
	}
	return nil
}

// checkIndex asserts the incidence lists cover g.Edges exactly: every
// position sits in its endpoints' lists, no entry twice, 2m − loops
// entries in total.
func (df *DynForest) checkIndex() error {
	g := df.g
	m := len(g.Edges)
	seen := make([]uint8, m) // bit 1: listed at U (side 0), bit 2: at V
	want, total := 2*m, 0
	for x := int32(0); int(x) < g.N; x++ {
		for h := df.First(x); h >= 0; h = df.NextIncident(x, h) {
			if int(h) >= m {
				return fmt.Errorf("dynforest: vertex %d lists handle %d, m = %d", x, h, m)
			}
			e, bit := g.Edges[h], uint8(1)
			if e.U != x {
				bit = 2
			}
			if e.U != x && e.V != x || seen[h]&bit != 0 {
				return fmt.Errorf("dynforest: vertex %d lists position %d {%d,%d} wrongly or twice", x, h, e.U, e.V)
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
		return fmt.Errorf("dynforest: incidence lists hold %d entries, want 2m − loops = %d", total, want)
	}
	return nil
}
