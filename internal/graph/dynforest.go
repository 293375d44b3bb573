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
// incidence lists, the walk the replacement-edge search runs.
//
// The lists link slots, not handles: slot 2h+0 is handle h's entry in
// its U's list and slot 2h+1 its entry in its V's list (a self-loop uses
// slot 2h only).  A slot names its side, so linking, unlinking and
// moving an entry touch only the link arrays and the vertex heads, never
// a neighbouring edge's endpoints, and a walk over x's list
// (Head/Next/Far) reads one edge per entry, the entry's own.  Lists are
// doubly linked, so Remove unlinks in O(1).
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
// every removal).  m < 2^30, so slots fit the int32-indexed stack.
// Orchestrator-owned (the Solver's session lock): not safe for concurrent
// use.
type DynForest struct {
	g    *Graph
	head []int32 // per-vertex first slot, -1 when empty

	// Per slot: the next and previous slot of the same list (-1 at the
	// ends).  Per handle: the forest flag.
	next, prev []int32
	forest     []bool
}

// NewDynForest indexes g's edge list and takes it over (mutate it only
// through Insert/Remove afterwards).  forest holds the initial flags by
// position (nil: all false); it is copied, not kept.
func NewDynForest(g *Graph, forest []bool) *DynForest {
	df := BeginDynForest(g)
	copy(df.forest, forest)
	for h, e := range g.Edges {
		df.Link(int32(h), e)
	}
	return df
}

// BeginDynForest returns a store over g sized for g's edges with none of
// them indexed yet and every forest flag false: the caller must Link
// every position in ascending order before any other call.  NewDynForest
// does so in one pass, and par.AttachForest does so fused with its union
// pass, setting each flag from the edge's union as it goes.
func BeginDynForest(g *Graph) *DynForest {
	m := len(g.Edges)
	return &DynForest{
		g:      g,
		head:   slices.Repeat([]int32{-1}, g.N),
		next:   make([]int32, 2*m),
		prev:   make([]int32, 2*m),
		forest: make([]bool, m),
	}
}

// Link indexes handle h, which holds e: it pushes h's slots onto the
// fronts of e's endpoints' lists.  The one indexing step of every
// constructor and of Insert.
func (df *DynForest) Link(h int32, e Edge) {
	df.push(e.U, 2*h)
	if e.V != e.U {
		df.push(e.V, 2*h+1)
	}
}

// push puts slot s at the front of x's list.
func (df *DynForest) push(x, s int32) {
	o := df.head[x]
	df.next[s], df.prev[s] = o, -1
	if o >= 0 {
		df.prev[o] = s
	}
	df.head[x] = s
}

// M returns the number of live edges.
func (df *DynForest) M() int { return len(df.g.Edges) }

// U, V, IsForest, SetForest read handle h's endpoints and read or write
// its forest flag.
func (df *DynForest) U(h int32) int32           { return df.g.Edges[h].U }
func (df *DynForest) V(h int32) int32           { return df.g.Edges[h].V }
func (df *DynForest) IsForest(h int32) bool     { return df.forest[h] }
func (df *DynForest) SetForest(h int32, b bool) { df.forest[h] = b }

// Head returns the first slot of x's list and Next the slot after s on
// the same list (-1 at the end).  Handle maps a slot to its edge's
// handle, and Far returns the endpoint across slot s's edge from the
// list's own vertex (that vertex again for a self-loop).
func (df *DynForest) Head(x int32) int32 { return df.head[x] }
func (df *DynForest) Next(s int32) int32 { return df.next[s] }
func Handle(s int32) int32               { return s >> 1 }
func (df *DynForest) Far(s int32) int32 {
	e := df.g.Edges[s>>1]
	if s&1 == 0 {
		return e.V
	}
	return e.U
}

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
		for side := range ends {
			s := at[side]
			if s < 0 {
				return
			}
			if df.Far(s) == ends[1-side] && !visit(side, s>>1) {
				return
			}
			at[side] = df.next[s]
		}
	}
}

// Insert appends e to g.Edges and registers it, returning its handle.
func (df *DynForest) Insert(e Edge, forest bool) int32 {
	h := int32(len(df.g.Edges))
	df.g.Edges = append(df.g.Edges, e)
	df.next, df.prev = append(df.next, 0, 0), append(df.prev, 0, 0)
	df.forest = append(df.forest, forest)
	df.Link(h, e)
	return h
}

// Remove deletes handle h, then moves the last edge into position h: its
// slots' list neighbours (or vertex heads) are re-pointed at h's slots.
func (df *DynForest) Remove(h int32) {
	e := df.g.Edges[h]
	df.unlink(e.U, 2*h)
	if e.V != e.U {
		df.unlink(e.V, 2*h+1)
	}
	last := int32(len(df.g.Edges) - 1)
	if h != last {
		me := df.g.Edges[last]
		df.move(me.U, 2*last, 2*h)
		if me.V != me.U {
			df.move(me.V, 2*last+1, 2*h+1)
		}
		df.g.Edges[h] = me
		df.forest[h] = df.forest[last]
	}
	df.g.Edges = df.g.Edges[:last]
	df.next, df.prev, df.forest = df.next[:2*last], df.prev[:2*last], df.forest[:last]
}

// unlink takes slot s out of x's list.
func (df *DynForest) unlink(x, s int32) {
	n, p := df.next[s], df.prev[s]
	if p >= 0 {
		df.next[p] = n
	} else {
		df.head[x] = n
	}
	if n >= 0 {
		df.prev[n] = p
	}
}

// move re-homes slot from of x's list at slot to, which is unlinked.
func (df *DynForest) move(x, from, to int32) {
	n, p := df.next[from], df.prev[from]
	df.next[to], df.prev[to] = n, p
	if p >= 0 {
		df.next[p] = to
	} else {
		df.head[x] = to
	}
	if n >= 0 {
		df.prev[n] = to
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
// slot sits in its own endpoint's list with its back link intact, no
// slot twice, a self-loop's second slot nowhere, 2m − loops entries in
// total.
func (df *DynForest) checkIndex() error {
	g := df.g
	m := len(g.Edges)
	seen := make([]bool, 2*m)
	want, total := 2*m, 0
	for x := int32(0); int(x) < g.N; x++ {
		prev := int32(-1)
		for s := df.head[x]; s >= 0; s = df.next[s] {
			if int(s) >= 2*m {
				return fmt.Errorf("dynforest: vertex %d lists slot %d, m = %d", x, s, m)
			}
			e := g.Edges[s>>1]
			at := e.U
			if s&1 == 1 {
				at = e.V
			}
			if at != x || s&1 == 1 && e.U == e.V || seen[s] || df.prev[s] != prev {
				return fmt.Errorf("dynforest: vertex %d lists slot %d of {%d,%d} wrongly or twice", x, s, e.U, e.V)
			}
			seen[s] = true
			prev = s
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
