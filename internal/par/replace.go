package par

import (
	"parcc/internal/graph"
)

// Replacement-edge search: the deletion kernel of the spanning-forest
// dynamic connectivity layer.  When a forest edge {u,v} is deleted, its
// tree falls into two subtrees Tu ∋ u and Tv ∋ v; the component stays
// connected iff some live non-forest edge crosses between them.  The
// kernel finds such a replacement — or proves the split — while touching
// work proportional to the SMALLER side, the classic trick that keeps
// delete-heavy workloads from paying the component size per deletion:
//
//   - Two tree BFSes, one from each endpoint, expand over FOREST edges
//     only, interleaved in small quanta so whichever side is smaller
//     exhausts first.  Each side keeps a visited bitmap and a queue of
//     the vertices it visited, walked by cursor.
//   - Any non-forest edge scanned whose far endpoint is already visited by
//     the OTHER side is a replacement — found without either side being
//     fully enumerated.
//   - When a side's tree BFS exhausts, its queue is exactly that
//     subtree's vertex set.  A crossing scan over it then decides: an
//     incident edge whose far endpoint is outside the side must reach the
//     other subtree (edges never leave a component), so it is a
//     replacement; if no edge leaves the set, the split is proven and the
//     queue is the side to relabel.  The interleaved phase alone cannot
//     prove a split — the other side's visited set is still partial —
//     which is why the scan, not exhaustion, is the certificate.
//
// Everything is bounded by `budget` adjacency entries (replacement searches
// must not regress to the scoped repair they replace); on overrun the
// kernel backs out having mutated nothing and the caller falls back.
type ReplaceOutcome uint8

const (
	// ReplaceFound: a crossing edge was found; the caller promotes
	// Result.Handle to a forest edge.  Labels untouched.
	ReplaceFound ReplaceOutcome = iota
	// ReplaceSplit: the component truly split; the smaller side was
	// relabeled to Result.NewRoot (Result.Moved vertices).
	ReplaceSplit
	// ReplaceBudget: the scan budget blew before a verdict; nothing was
	// mutated.  The caller falls back to the scoped repair.
	ReplaceBudget
)

// ReplaceResult reports one replacement search.
type ReplaceResult struct {
	Outcome ReplaceOutcome
	Handle  int32 // replacement edge (ReplaceFound)
	NewRoot int32 // new root of the relabeled side (ReplaceSplit)
	Moved   int   // vertices relabeled (ReplaceSplit)
	Scanned int64 // adjacency entries inspected
}

// replaceQuota is the interleaving quantum: adjacency entries one side
// scans before yielding to the other.  Small enough that the smaller
// side's exhaustion is detected within ~2× its own size, large enough to
// amortize the switch.
const replaceQuota = 32

// ReplaceSets is the replacement search's reusable scratch: per side, a
// visited bitmap over the vertices and a queue of the visited vertices
// that grows by append with the search.  A session owns one; it is empty
// between searches, and the zero value is ready: the first search sizes
// the bitmaps to the vertex count, and later ones allocate only when a
// queue outgrows every earlier search.  Sequential, like the search:
// plain loads and stores.
type ReplaceSets struct {
	seen  [2][]uint64
	queue [2][]int32
}

// replaceSide is one side's resumable BFS state.
type replaceSide struct {
	seen  []uint64
	queue []int32
	qi    int   // queue cursor
	x     int32 // vertex mid-scan
	s     int32 // next slot of x's list, -1 when between vertices
}

func (r *replaceSide) has(y int32) bool { return r.seen[y>>6]&(1<<(y&63)) != 0 }

// visit adds y to the side unless it is already there.
func (r *replaceSide) visit(y int32) {
	if w, b := y>>6, uint64(1)<<(y&63); r.seen[w]&b == 0 {
		r.seen[w] |= b
		r.queue = append(r.queue, y)
	}
}

// ReplacementSearch decides the fate of deleting forest edge {u,v} (the
// edge itself already removed from df).  p must be flat for the affected
// component (every member's parent is the root directly) — the relabel on
// a split writes a flat result back, so flatness is preserved across a
// whole deletion batch.  sets must be empty, as every call leaves it.
// When the outcome is ReplaceSplit, the vertices that received the new
// root are appended to *moved (reset to its empty prefix first) — the
// delta the copy-on-write snapshot mirror needs to update its member
// lists without scanning the component; nothing is appended on the other
// outcomes.  Sequential, orchestrator-owned (the
// session lock), like the DynForest it walks.
func ReplacementSearch(df *graph.DynForest, p []int32, u, v int32, sets *ReplaceSets, budget int64, moved *[]int32) ReplaceResult {
	root := p[u]
	words := (len(p) + 63) >> 6
	var side [2]replaceSide
	for i := range side {
		if len(sets.seen[i]) < words {
			sets.seen[i] = make([]uint64, words)
		}
		side[i] = replaceSide{seen: sets.seen[i], queue: sets.queue[i][:0], s: -1}
	}
	a, b := &side[0], &side[1]
	a.visit(u)
	b.visit(v)
	defer func() {
		for i := range side {
			for _, x := range side[i].queue {
				side[i].seen[x>>6] = 0
			}
			sets.queue[i] = side[i].queue[:0]
		}
	}()
	var scanned int64

	// advance runs up to quota adjacency entries of r's tree BFS.  A
	// non-forest edge into the other side's visited set short-circuits as
	// a replacement; exhaustion means r's queue is its full subtree.
	advance := func(r, o *replaceSide, quota int64) (found int32, exhausted bool) {
		for quota > 0 {
			if r.s < 0 {
				if r.qi >= len(r.queue) {
					return -1, true
				}
				r.x = r.queue[r.qi]
				r.qi++
				r.s = df.Head(r.x)
			}
			for r.s >= 0 && quota > 0 {
				s := r.s
				r.s = df.Next(s)
				scanned++
				quota--
				h, y := graph.Handle(s), df.Far(s)
				if df.IsForest(h) {
					r.visit(y) // the bitmap dedups the BFS parent
				} else if y != r.x && o.has(y) {
					return h, false
				}
			}
		}
		return -1, false
	}

	// crossingScan decides an exhausted side: the first incident edge
	// leaving the visited set is a replacement (its far end is in the
	// other subtree); none means a true split.
	crossingScan := func(r *replaceSide) (found int32, overBudget bool) {
		for _, x := range r.queue {
			for s := df.Head(x); s >= 0; s = df.Next(s) {
				scanned++
				if scanned > budget {
					return -1, true
				}
				if !r.has(df.Far(s)) {
					return graph.Handle(s), false
				}
			}
		}
		return -1, false
	}

	// finish resolves an exhausted side r (o is the other): replacement,
	// or split with the side not holding the union-find root relabeled
	// (relabeling the root's own side would orphan the complement, whose
	// parents point at the root).  Enumerating the other side when needed
	// is bounded by its subtree — never worse than the component, i.e.
	// than the fallback.
	finish := func(r, o *replaceSide) ReplaceResult {
		h, over := crossingScan(r)
		if over {
			return ReplaceResult{Outcome: ReplaceBudget, Scanned: scanned}
		}
		if h >= 0 {
			return ReplaceResult{Outcome: ReplaceFound, Handle: h, Scanned: scanned}
		}
		target := r
		if r.has(root) {
			for {
				oh, exhausted := advance(o, r, 1<<30)
				if exhausted {
					break
				}
				if oh >= 0 {
					// Unreachable once r's crossing scan came up empty (no
					// edge leaves r's subtree), but a found edge is always a
					// safe answer.
					return ReplaceResult{Outcome: ReplaceFound, Handle: oh, Scanned: scanned}
				}
			}
			target = o
		}
		seed := target.queue[0]
		for _, x := range target.queue {
			p[x] = seed
		}
		*moved = append((*moved)[:0], target.queue...)
		return ReplaceResult{Outcome: ReplaceSplit, NewRoot: seed, Moved: len(target.queue), Scanned: scanned}
	}

	for {
		if scanned > budget {
			return ReplaceResult{Outcome: ReplaceBudget, Scanned: scanned}
		}
		if h, exhausted := advance(a, b, replaceQuota); h >= 0 {
			return ReplaceResult{Outcome: ReplaceFound, Handle: h, Scanned: scanned}
		} else if exhausted {
			return finish(a, b)
		}
		if h, exhausted := advance(b, a, replaceQuota); h >= 0 {
			return ReplaceResult{Outcome: ReplaceFound, Handle: h, Scanned: scanned}
		} else if exhausted {
			return finish(b, a)
		}
	}
}

// RebuildRegion is the scoped repair's in-place relabel: it relabels a
// region of whole components from scratch in the live union-find array p
// and re-derives the region's forest flags in df in the same pass.  verts
// are the region's vertices in ascending order, and in[v] != 0 exactly
// for them.  It resets the region's vertices to singletons, then makes
// one pass over df's edges and runs UniteBatch's one-worker UniteRem on
// each region edge — one whose U is in the region; regions are closed
// under adjacency, so its V is too — an edge being a forest edge exactly
// when its call hooked.  Last it flattens in ascending order, which one
// pass completes because the region restarted from singletons, where
// parents stay ≤ their vertex.  Each component of the region comes out
// labeled by its minimum vertex, the label the concurrent kernels agree
// on.  Returns the region's component and edge counts.
// O(|verts| + m + region edges·α), sequential and orchestrator-owned like
// ReplacementSearch.
func RebuildRegion(df *graph.DynForest, p, verts, in []int32) (comps, edges int) {
	for _, v := range verts {
		p[v] = v
	}
	for h := range int32(df.M()) {
		u := df.U(h)
		if in[u] != 0 {
			edges++
			df.SetForest(h, UniteRem(p, u, df.V(h), true) >= 0)
		}
	}
	for _, v := range verts {
		p[v] = p[p[v]]
		if p[v] == v {
			comps++
		}
	}
	return comps, edges
}
