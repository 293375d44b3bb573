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
//     exhausts first.  Each side's frontier doubles as queue (the sparse
//     list, walked by cursor) and visited set (the bitmap, probed by Has).
//   - Any non-forest edge scanned whose far endpoint is already visited by
//     the OTHER side is a replacement — found without either side being
//     fully enumerated.
//   - When a side's tree BFS exhausts, its list is exactly that subtree's
//     vertex set.  A crossing scan over it then decides: an incident edge
//     whose far endpoint is outside the side must reach the other subtree
//     (edges never leave a component), so it is a replacement; if no edge
//     leaves the set, the split is proven and the list is the side to
//     relabel.  The interleaved phase alone cannot prove a split — the
//     other side's visited set is still partial — which is why the scan,
//     not exhaustion, is the certificate.
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

// replaceSide is one side's resumable BFS state over a frontier used as
// queue + visited set.
type replaceSide struct {
	f     *Frontier
	other *Frontier
	qi    int   // queue cursor into f's sparse list
	curX  int32 // vertex mid-scan, -1 when between vertices
	curH  int32 // next incident handle of curX
}

// ReplacementSearch decides the fate of deleting forest edge {u,v} (the
// edge itself already removed from df).  p must be flat for the affected
// component (every member's parent is the root directly) — the relabel on
// a split writes a flat result back, so flatness is preserved across a
// whole deletion batch.  fu and fv must be empty Frontiers sized to the
// graph; both are left empty on every path.  When moved is non-nil and
// the outcome is ReplaceSplit, the vertices that received the new root
// are appended to *moved (reset to its empty prefix first) — the delta
// the copy-on-write snapshot mirror needs to update its member lists
// without scanning the component; nothing is appended on the other
// outcomes.  Sequential, orchestrator-owned (the session lock), like the
// DynForest it walks.
func ReplacementSearch(df *graph.DynForest, p []int32, u, v int32, fu, fv *Frontier, budget int64, moved *[]int32) ReplaceResult {
	root := p[u]
	fu.BeginCollect(true)
	fu.Add(u)
	fv.BeginCollect(true)
	fv.Add(v)
	defer func() {
		fu.Clear()
		fv.Clear()
	}()
	a := &replaceSide{f: fu, other: fv, curX: -1, curH: -1}
	b := &replaceSide{f: fv, other: fu, curX: -1, curH: -1}
	var scanned int64

	// advance runs up to quota adjacency entries of s's tree BFS.  A
	// non-forest edge into the other side's visited set short-circuits as
	// a replacement; exhaustion means s's list is its full subtree.
	advance := func(s *replaceSide, quota int64) (found int32, exhausted bool) {
		for quota > 0 {
			if s.curX < 0 {
				if s.qi >= s.f.Len() {
					return -1, true
				}
				s.curX = s.f.At(s.qi)
				s.qi++
				s.curH = df.First(s.curX)
			}
			for s.curH >= 0 && quota > 0 {
				h := s.curH
				s.curH = df.NextIncident(s.curX, h)
				scanned++
				quota--
				y := df.Other(h, s.curX)
				if df.IsForest(h) {
					s.f.Add(y) // bitmap dedups the BFS parent
				} else if y != s.curX && s.other.Has(y) {
					return h, false
				}
			}
			if s.curH < 0 {
				s.curX = -1
			}
		}
		return -1, false
	}

	// crossingScan decides an exhausted side: the first incident edge
	// leaving the visited set is a replacement (its far end is in the
	// other subtree); none means a true split.
	crossingScan := func(s *replaceSide) (found int32, overBudget bool) {
		for i := 0; i < s.f.Len(); i++ {
			x := s.f.At(i)
			for h := df.First(x); h >= 0; h = df.NextIncident(x, h) {
				scanned++
				if scanned > budget {
					return -1, true
				}
				y := df.Other(h, x)
				if !s.f.Has(y) {
					return h, false
				}
			}
		}
		return -1, false
	}

	// finish resolves an exhausted side s: replacement, or split with the
	// side not holding the union-find root relabeled (relabeling the
	// root's own side would orphan the complement, whose parents point at
	// the root).  Enumerating the other side when needed is bounded by its
	// subtree — never worse than the component, i.e. than the fallback.
	finish := func(s *replaceSide) ReplaceResult {
		h, over := crossingScan(s)
		if over {
			return ReplaceResult{Outcome: ReplaceBudget, Scanned: scanned}
		}
		if h >= 0 {
			return ReplaceResult{Outcome: ReplaceFound, Handle: h, Scanned: scanned}
		}
		target := s
		if s.f.Has(root) {
			o := a
			if s == a {
				o = b
			}
			for {
				oh, exhausted := advance(o, 1<<30)
				if exhausted {
					break
				}
				if oh >= 0 {
					// Unreachable once s's crossing scan came up empty (no
					// edge leaves s's subtree), but a found edge is always a
					// safe answer.
					return ReplaceResult{Outcome: ReplaceFound, Handle: oh, Scanned: scanned}
				}
			}
			target = o
		}
		seed := target.f.At(0)
		if moved != nil {
			*moved = (*moved)[:0]
		}
		for i := 0; i < target.f.Len(); i++ {
			x := target.f.At(i)
			p[x] = seed
			if moved != nil {
				*moved = append(*moved, x)
			}
		}
		return ReplaceResult{Outcome: ReplaceSplit, NewRoot: seed, Moved: target.f.Len(), Scanned: scanned}
	}

	for {
		if scanned > budget {
			return ReplaceResult{Outcome: ReplaceBudget, Scanned: scanned}
		}
		if h, exhausted := advance(a, replaceQuota); h >= 0 {
			return ReplaceResult{Outcome: ReplaceFound, Handle: h, Scanned: scanned}
		} else if exhausted {
			return finish(a)
		}
		if h, exhausted := advance(b, replaceQuota); h >= 0 {
			return ReplaceResult{Outcome: ReplaceFound, Handle: h, Scanned: scanned}
		} else if exhausted {
			return finish(b)
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
