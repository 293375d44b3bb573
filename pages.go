package parcc

import (
	"parcc/internal/par"
)

// This file is the copy-on-write paged mirror behind O(delta) snapshot
// publishing.  Attach pays one O(n) build (newPageStore): one sequential
// pass over the flat parent array fills the label pages, tallies sizes
// with plain adds and links each vertex into its root's member circle.
// Every publish shares the previous snapshot's label and size pages and
// clones only the pages the intervening write groups touched — a group
// touching k vertices republishes in O(k + ⌈k/pageSize⌉) work instead of
// O(n).
//
// The mirror holds exact flattened labels (not a lazy view over the
// union-find forest: a historical root can migrate to the split-off side
// of a deletion, so chase-on-read against old pages would be unsound).
// Exactness is restored at every flush point from two delta feeds:
//
//   - AddEdges reports each merge's LOSING root (par.UniteBatch).
//     The size transfer is applied eagerly — O(1) per merge — and the
//     member relabel is deferred: the loser goes on a pending list, and
//     flush walks its member circle once, however many batches queued it.
//   - RemoveEdges reports each split's moved side (the moved list of
//     par.ReplacementSearch) and each scoped repair's region vertex
//     set; both relabel through the mirror directly, so the mirror is
//     exact again at batch exit.
//
// The flush is also the live forest's only flattening: it stores each
// relabeled vertex's final root into the parent array beside its label.
// That is enough because AddEdges' unions run on one worker: there, a
// par.UniteRem call moves x's pointer only when the same call hooks x's
// tree root, so every vertex whose pointer changed since the last flush
// point lies in the circle of a pending loser.  Splits and scoped
// repairs write flat labels themselves, so the parent array is flat at
// every flush point — the entry of RemoveEdges, ComponentsInto and
// PublishSnapshot.
//
// Membership is tracked with one circular doubly-linked list per
// component (next/prev), giving O(|component|) member walks and O(1)
// pending-merge records with zero per-edge overhead.  flush walks every
// pending loser's ORIGINAL circle first and splices all circles after all
// walks — a merge chain a←b←c therefore walks each vertex exactly once
// (the circles are disjoint pre-splice), keeping flush O(total moved).
//
// Everything here runs under the Solver's session lock.  Readers never
// see the mirror: PublishSnapshot hands out copies of the page-header
// slices and marks every page shared; the next mutation that lands on a
// shared page clones it first (pageStore.setLabel/setSize), so published
// pages are immutable and the lock-free read contract of Snapshot holds.
const (
	pageShift = 10
	pageSize  = 1 << pageShift // vertices per label/size page
	pageMask  = pageSize - 1
)

// pageStore is the mirror's state.  labels[v>>pageShift][v&pageMask] is
// v's exact flattened label as of the last flush point; sizes holds the
// per-component tallies at the root's slot (zero elsewhere) — the layout
// newPageStore writes, so a delta-maintained mirror and a fresh build are
// byte-comparable.
type pageStore struct {
	n      int
	labels [][]int32
	sizes  [][]int32
	// sharedL/sharedS flag pages referenced by a published snapshot; a
	// write to a flagged page clones it first (copy-on-write).
	sharedL []bool
	sharedS []bool
	// next/prev are the per-component circular member lists.
	next []int32
	prev []int32
	// pending holds the losing roots of merges whose member walks are
	// deferred to the next flush.  Duplicate-free: a root loses at most
	// once between flushes (the winning CAS retires it from roothood, and
	// only RemoveEdges — which flushes at entry — can mint new roots).
	pending []int32
	cloned  int     // pages cloned since the last publish
	losers  []int32 // scratch for par.UniteBatch
}

func numPages(n int) int { return (n + pageSize - 1) / pageSize }

// newPageStore builds the mirror from the flat live forest (parent[v] is
// v's root) in one sequential pass, O(n).  Every circle starts as a
// self-loop and each non-root joins its root's circle when the pass
// reaches it, so the build holds whether or not roots are their
// components' minima (after a deletion split they need not be).
func newPageStore(parent []int32) *pageStore {
	n := len(parent)
	np := numPages(n)
	st := &pageStore{
		n:       n,
		labels:  make([][]int32, np),
		sizes:   make([][]int32, np),
		sharedL: make([]bool, np),
		sharedS: make([]bool, np),
		next:    make([]int32, n),
		prev:    make([]int32, n),
	}
	for pg := range np {
		st.labels[pg] = make([]int32, pageSize)
		st.sizes[pg] = make([]int32, pageSize)
	}
	for v := range int32(n) {
		st.next[v], st.prev[v] = v, v
	}
	for pg, lp := range st.labels {
		base := pg << pageShift
		for i, r := range parent[base:min(base+pageSize, n)] {
			lp[i] = r
			st.sizes[r>>pageShift][r&pageMask]++
			if v := int32(base + i); r != v {
				st.linkAfter(r, v)
			}
		}
	}
	return st
}

func (st *pageStore) label(v int32) int32 { return st.labels[v>>pageShift][v&pageMask] }
func (st *pageStore) size(v int32) int32  { return st.sizes[v>>pageShift][v&pageMask] }

func (st *pageStore) setLabel(v, x int32) {
	pg := v >> pageShift
	if st.sharedL[pg] {
		st.labels[pg] = clonePage(st.labels[pg])
		st.sharedL[pg] = false
		st.cloned++
	}
	st.labels[pg][v&pageMask] = x
}

func (st *pageStore) setSize(v, x int32) {
	pg := v >> pageShift
	if st.sharedS[pg] {
		st.sizes[pg] = clonePage(st.sizes[pg])
		st.sharedS[pg] = false
		st.cloned++
	}
	st.sizes[pg][v&pageMask] = x
}

func clonePage(p []int32) []int32 {
	q := make([]int32, len(p))
	copy(q, p)
	return q
}

// linkAfter inserts x into r's circle, right after r.
func (st *pageStore) linkAfter(r, x int32) {
	st.next[x] = st.next[r]
	st.prev[st.next[r]] = x
	st.next[r] = x
	st.prev[x] = r
}

// loserBuf returns the scratch slice UniteBatch fills with losing roots,
// sized to k.
func (st *pageStore) loserBuf(k int) []int32 {
	if cap(st.losers) < k {
		st.losers = make([]int32, k)
	}
	st.losers = st.losers[:k]
	return st.losers
}

// noteMerge records one merge's losing root ru: the size transfer to the
// current winner is applied now (order-independent within and across
// batches — every pre-batch size entry is zeroed exactly once, into the
// final root par.Find resolves), the member relabel is deferred to flush.
func (st *pageStore) noteMerge(parent []int32, ru int32) {
	f := par.Find(parent, ru)
	st.setSize(f, st.size(f)+st.size(ru))
	st.setSize(ru, 0)
	st.pending = append(st.pending, ru)
}

// flush applies the deferred merge relabels, making labels exact and
// parent flat again.  Phase 1 walks each pending loser's ORIGINAL circle,
// writing the final root as both label and parent (the circles are
// disjoint until phase 2, so each moved vertex is written once even
// across merge chains).  Phase 2 splices each loser's circle into its
// winner's.  O(total vertices that changed root).
func (st *pageStore) flush(parent []int32) {
	if len(st.pending) == 0 {
		return
	}
	for _, ru := range st.pending {
		f := par.Find(parent, ru)
		x := ru
		for {
			parent[x] = f
			st.setLabel(x, f)
			x = st.next[x]
			if x == ru {
				break
			}
		}
	}
	for _, ru := range st.pending {
		f := par.Find(parent, ru)
		tf, tr := st.prev[f], st.prev[ru]
		st.next[tf] = ru
		st.prev[ru] = tf
		st.next[tr] = f
		st.prev[f] = tr
	}
	st.pending = st.pending[:0]
}

// split moves the relabeled side of a deletion split out of oldRoot's
// component: moved (which contains newRoot, never oldRoot — the search
// relabels the side NOT holding the union-find root) is unlinked from the
// old circle, relinked as its own circle, relabeled, and the two size
// entries adjusted.  O(|moved|).  Caller must have flushed first (split
// circles must be current).
func (st *pageStore) split(moved []int32, oldRoot, newRoot int32) {
	for _, x := range moved {
		st.next[st.prev[x]] = st.next[x]
		st.prev[st.next[x]] = st.prev[x]
	}
	k := int32(len(moved))
	for i, x := range moved {
		st.next[x] = moved[(i+1)%len(moved)]
		st.prev[x] = moved[(i-1+len(moved))%len(moved)]
		st.setLabel(x, newRoot)
	}
	st.setSize(oldRoot, st.size(oldRoot)-k)
	st.setSize(newRoot, k)
}

// rebuildRegion re-derives the mirror for a scoped repair's region after
// par.RebuildRegion wrote its flat labels into parent: labels
// copy straight from parent, sizes are zeroed and recounted, circles are
// rebuilt in two passes.  Regions are whole components (dirty sets are
// closed under adjacency, and mid-batch splits keep circles
// component-exact), so no circle links cross the region boundary.
// O(|verts|).
func (st *pageStore) rebuildRegion(parent []int32, verts []int32) {
	for _, v := range verts {
		st.setSize(v, 0)
	}
	for _, v := range verts {
		r := parent[v]
		st.setLabel(v, r)
		st.setSize(r, st.size(r)+1)
	}
	for _, v := range verts {
		if parent[v] == v {
			st.next[v], st.prev[v] = v, v
		}
	}
	for _, v := range verts {
		if r := parent[v]; r != v {
			st.linkAfter(r, v)
		}
	}
}

// share marks every page as referenced by a published snapshot and resets
// the clone counter — called by PublishSnapshot after copying the page
// headers into the new Snapshot.
func (st *pageStore) share() {
	for pg := range st.sharedL {
		st.sharedL[pg] = true
		st.sharedS[pg] = true
	}
	st.cloned = 0
}
