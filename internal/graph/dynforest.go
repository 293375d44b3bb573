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
// endpoints — and offers two O(1) (amortized) access paths besides
// positional identity:
//
//   - per-vertex incident-edge iteration (First/NextIncident), the walk
//     the replacement-edge search runs — a doubly-linked handle list per
//     endpoint, so Remove unlinks in O(1);
//   - multiset lookup by canonical key (CountKey/PickRemovable and
//     KeyFirst/KeyNext), the deletion contract's "one occurrence per batch
//     entry, either orientation" without an O(m) sweep — a singly linked
//     chain per CanonKey, its head in a flat open-addressing table
//     (power-of-two size, linear probing, load ≤ 1/2, backward-shift
//     deletion).  Slots hold handles; keys are recomputed from g.Edges.
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
	// self-loop uses side 0 only), the key-chain link, the forest flag.
	next, prev [][2]int32
	keyNext    []int32
	forest     []bool

	table []int32 // chain head per distinct key, -1 when the slot is empty
	shift uint    // 64 − log2(len(table)): Fibonacci-hash shift
	keys  int     // occupied slots
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
		g:       g,
		head:    slices.Repeat([]int32{-1}, g.N),
		next:    make([][2]int32, m),
		prev:    make([][2]int32, m),
		keyNext: make([]int32, m),
		forest:  forest[:m],
	}
	df.resize(2 * m)
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

// KeyFirst returns the first live handle with canonical key k (-1 when
// the key is absent); KeyNext continues that key's chain.
func (df *DynForest) KeyFirst(k int64) int32 { return df.table[df.slot(k)] }
func (df *DynForest) KeyNext(h int32) int32  { return df.keyNext[h] }

// CountKey returns the number of live occurrences of the canonical key k,
// counting at most max (the validation pass only needs "enough").
func (df *DynForest) CountKey(k int64, max int) int {
	c := 0
	for h := df.KeyFirst(k); h >= 0 && c < max; h = df.keyNext[h] {
		c++
	}
	return c
}

// PickRemovable returns a live handle with canonical key k, preferring a
// non-forest occurrence — removing a parallel copy must never disturb the
// forest, and the acyclicity invariant (at most one forest copy per key)
// makes any non-forest pick safe.  Returns -1 when the key is absent.
func (df *DynForest) PickRemovable(k int64) int32 {
	first := df.KeyFirst(k)
	for h := first; h >= 0; h = df.keyNext[h] {
		if !df.forest[h] {
			return h
		}
	}
	return first
}

// Insert appends e to g.Edges and registers it, returning its handle.
func (df *DynForest) Insert(e Edge, forest bool) int32 {
	h := int32(len(df.g.Edges))
	df.g.Edges = append(df.g.Edges, e)
	df.next, df.prev = append(df.next, [2]int32{}), append(df.prev, [2]int32{})
	df.keyNext, df.forest = append(df.keyNext, -1), append(df.forest, forest)
	df.link(h)
	return h
}

// Remove deletes handle h, then moves the last edge into position h and
// re-points its list neighbours (or vertex heads) and its key-chain link
// (or table slot) there.
func (df *DynForest) Remove(h int32) {
	e := df.g.Edges[h]
	df.relink(h, e, -1)
	df.rekey(e.CanonKey(), h, df.keyNext[h])
	last := int32(len(df.g.Edges) - 1)
	if h != last {
		me := df.g.Edges[last]
		df.relink(last, me, h)
		df.rekey(me.CanonKey(), last, h)
		df.g.Edges[h] = me
		df.next[h], df.prev[h] = df.next[last], df.prev[last]
		df.keyNext[h], df.forest[h] = df.keyNext[last], df.forest[last]
	}
	df.g.Edges = df.g.Edges[:last]
	df.next, df.prev = df.next[:last], df.prev[:last]
	df.keyNext, df.forest = df.keyNext[:last], df.forest[:last]
}

// sideOf is h's side anchored at x: 0 iff x is h's U (so loops use 0).
func (df *DynForest) sideOf(h, x int32) int {
	if df.g.Edges[h].U == x {
		return 0
	}
	return 1
}

// link pushes h onto the front of its endpoints' lists and its key's
// chain, doubling the table first if a new key could exceed load 1/2.
func (df *DynForest) link(h int32) {
	e := df.g.Edges[h]
	nv := int32(-1)
	if e.V != e.U {
		nv = df.head[e.V]
	}
	df.next[h], df.prev[h] = [2]int32{df.head[e.U], nv}, [2]int32{-1, -1}
	df.relink(h, e, h)
	if 2*(df.keys+1) > len(df.table) {
		df.resize(2 * len(df.table))
	}
	i := df.slot(e.CanonKey())
	if df.table[i] < 0 {
		df.keys++
	}
	df.keyNext[h], df.table[i] = df.table[i], h
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

// rekey redirects the reference to h on key k's chain — its table slot
// or its predecessor's link — to `to`, clearing the slot when the chain
// empties.
func (df *DynForest) rekey(k int64, h, to int32) {
	i := df.slot(k)
	if cur := df.table[i]; cur != h {
		for df.keyNext[cur] != h {
			cur = df.keyNext[cur]
		}
		df.keyNext[cur] = to
	} else if df.table[i] = to; to < 0 {
		df.clearSlot(i)
	}
}

// home is k's preferred table slot (Fibonacci hashing on the folded key).
func (df *DynForest) home(k int64) int {
	x := uint64(k)
	return int((x ^ x>>32) * 0x9e3779b97f4a7c15 >> df.shift)
}

// slot returns the table index holding k's chain head, or the empty slot
// where it would go.
func (df *DynForest) slot(k int64) int {
	mask := len(df.table) - 1
	for i := df.home(k); ; i = (i + 1) & mask {
		if h := df.table[i]; h < 0 || df.g.Edges[h].CanonKey() == k {
			return i
		}
	}
}

// clearSlot empties table slot i by backward shift: each later entry of
// the probe run whose home does not lie cyclically in (i, j] moves into
// the hole, so lookups never need tombstones.
func (df *DynForest) clearSlot(i int) {
	mask := len(df.table) - 1
	for j := (i + 1) & mask; df.table[j] >= 0; j = (j + 1) & mask {
		if home := df.home(df.g.Edges[df.table[j]].CanonKey()); (j-home)&mask >= (j-i)&mask {
			df.table[i] = df.table[j]
			i = j
		}
	}
	df.table[i] = -1
	df.keys--
}

// resize rebuilds the table at the smallest power-of-two size ≥ want (at
// least 8), re-placing every chain head.
func (df *DynForest) resize(want int) {
	size, shift := 8, uint(61)
	for size < want {
		size, shift = size*2, shift-1
	}
	old := df.table
	df.table, df.shift = slices.Repeat([]int32{-1}, size), shift
	for _, h := range old {
		if h >= 0 {
			df.table[df.slot(df.g.Edges[h].CanonKey())] = h
		}
	}
}

// RebuildRegion recomputes the forest flags of a re-solved region after
// the session's scoped fallback: verts are the region's vertices, vmap
// the compact map used for the induced solve (vmap[v] = compact id + 1, 0
// outside), and uf a scratch array of len ≥ len(verts).  A sequential
// union-find pass over the region's edges re-derives the flags — every
// edge incident to a region vertex has both endpoints in the region
// (dirty components are closed under adjacency), and iterating side-0
// handles only visits each exactly once.  O(region vertices + region
// edges · α).
func (df *DynForest) RebuildRegion(verts, vmap, uf []int32) {
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

// Check asserts the store indexes exactly the live graph g and that the
// maintained forest is a valid spanning forest of it whose partition is
// labels: forest edges are loop-free and acyclic, and the partition they
// induce equals labels exactly — together with forest ⊆ live (structural:
// flags live on positions) this is the certificate invariant.
// Verification code for tests; O(n + m·α).
func (df *DynForest) Check(g *Graph, labels []int32) error {
	if df.g != g {
		return fmt.Errorf("dynforest: store indexes a different graph than the one checked")
	}
	if err := df.checkIndex(); err != nil {
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
			return fmt.Errorf("dynforest: self-loop {%d,%d} flagged as forest edge", ed.U, ed.V)
		}
		if !seqUnite(uf, ed.U, ed.V) {
			return fmt.Errorf("dynforest: forest edge {%d,%d} closes a cycle", ed.U, ed.V)
		}
	}
	forestLabels := make([]int32, g.N)
	for v := range forestLabels {
		forestLabels[v] = seqFind(uf, int32(v))
	}
	if !SamePartition(forestLabels, labels) {
		return fmt.Errorf("dynforest: forest partition disagrees with live labels (forest under- or over-spans)")
	}
	return nil
}

// checkIndex asserts the store's two indexes cover g.Edges exactly: every
// position sits in its endpoints' incidence lists (no entry twice, 2m −
// loops entries in total), and every position sits in exactly one key
// chain, reached from the table under its own key.
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
	chained := make([]bool, m)
	count := 0
	for _, e := range g.Edges {
		k := e.CanonKey()
		head := df.KeyFirst(k)
		if head < 0 {
			return fmt.Errorf("dynforest: key of {%d,%d} unreachable from the table", e.U, e.V)
		}
		if chained[head] {
			continue // this key's chain was walked already
		}
		for h := head; h >= 0; h = df.KeyNext(h) {
			if int(h) >= m || chained[h] || g.Edges[h].CanonKey() != k {
				return fmt.Errorf("dynforest: key chain of {%d,%d} reaches handle %d out of place", e.U, e.V, h)
			}
			chained[h] = true
			count++
		}
	}
	if count != m {
		return fmt.Errorf("dynforest: key chains hold %d positions, want %d", count, m)
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
