package stage2

import (
	"parcc/internal/graph"
	"parcc/internal/pram"
	"parcc/internal/prim"
	"parcc/internal/solve"
)

// Aux is the auxiliary array of §7.4.1: the edges of G′ (both orientations)
// padded-sorted by first endpoint, with per-vertex ranges (v.l, v.s), built
// once at the end of Stage 1 and stored for the rest of CONNECTIVITY.  The
// doubling "awaken" procedure of Lemmas 7.13/7.16 then extracts all edges
// whose first endpoint satisfies a predicate in O(output) work instead of
// rescanning all of E(G′) every phase.
type Aux struct {
	edges []graph.Edge // grouped by U; both orientations of every edge
	start []int64      // start[v] = v.l; -1 when v has no edges
	count []int64      // count[v] = number of entries (v.s)
	verts []int32      // vertices with at least one entry, ascending
}

// BuildAux runs BUILDAUXILIARY(G′) (§7.4.1): padded sort (Lemma 7.9 charge:
// O(log log m) time, O(m) work) plus the range-delimiting passes.  The
// array storage is drawn from the solve context's arena; pair with Free.
//
// The sort is a counting sort on the first endpoint, O(m+n) on the
// orchestrator: count each vertex's entries, take the exclusive prefix
// into start, then scatter e and its reversal in input order with start
// as the write cursor and rewind it.  A run therefore keeps input order
// (a loop is entered once), and that order reaches MATCHING through
// Gather, so it is part of the labels TestFLSChargedCostGolden pins.
func BuildAux(cx *solve.Ctx, n int, E []graph.Edge) *Aux {
	m := cx.M
	a := &Aux{
		edges: cx.GrabEdgesCap(2 * len(E)),
		start: cx.Grab64(n),
		count: cx.Grab64(n),
	}
	m.Contract(prim.LogLog(2*len(E)+4)+2, int64(2*len(E))+int64(n), func() {
		for _, e := range E {
			a.count[e.U]++
			if e.U != e.V {
				a.count[e.V]++
			}
		}
		var off int64
		for v, c := range a.count {
			if c == 0 {
				a.start[v] = -1
				continue
			}
			a.start[v] = off
			a.verts = append(a.verts, int32(v))
			off += c
		}
		a.edges = a.edges[:off]
		for _, e := range E {
			a.edges[a.start[e.U]] = e
			a.start[e.U]++
			if e.U != e.V {
				a.edges[a.start[e.V]] = graph.Edge{U: e.V, V: e.U}
				a.start[e.V]++
			}
		}
		for _, v := range a.verts {
			a.start[v] -= a.count[v]
		}
	})
	return a
}

// Free returns the auxiliary array's storage to the context's arena.
func (a *Aux) Free(cx *solve.Ctx) {
	cx.ReleaseEdges(a.edges)
	cx.Release64(a.start)
	cx.Release64(a.count)
	a.edges, a.start, a.count = nil, nil, nil
}

// Gather returns the original-G′ edges (u,v) for which pred(u) holds, using
// the awaken-doubling procedure: charged O(log max-degree) time and
// O(#awakened + #checked vertices) work (Lemmas 7.13/7.16).  The returned
// slice is freshly allocated; callers ALTER it to current parents.
func (a *Aux) Gather(m *pram.Machine, pred func(u int32) bool) []graph.Edge {
	var out []graph.Edge
	var awakened int64
	var maxDeg int64 = 1
	m.Contract(1, int64(len(a.verts)), func() {
		for _, u := range a.verts {
			if !pred(u) {
				continue
			}
			lo := a.start[u]
			c := a.count[u]
			if c > maxDeg {
				maxDeg = c
			}
			awakened += c
			out = append(out, a.edges[lo:lo+c]...)
		}
	})
	m.ChargeTime(prim.Log2Ceil(int(maxDeg)) + 1)
	m.ChargeWork(awakened)
	return out
}

// EdgesNotIn returns the original edges of G′ (single orientation) whose
// index is not flagged in mask — the E_remain = E(G′) \ E(H₁) set REMAIN
// needs (§7.1).  mask[i] corresponds to the i-th edge passed to BuildAux.
// The result is drawn from the context's arena; the caller releases it.
func EdgesNotIn(cx *solve.Ctx, E []graph.Edge, mask []bool) []graph.Edge {
	out := cx.GrabEdgesCap(len(E))
	cx.M.Contract(1, int64(len(E)), func() {
		for i, e := range E {
			if !mask[i] {
				out = append(out, e)
			}
		}
	})
	return out
}
