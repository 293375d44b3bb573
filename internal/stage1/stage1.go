// Package stage1 implements §4 of the paper: contracting the graph to
// n/poly(log n) vertices in O(log log n) time and linear work.
//
//   - MATCHING(E): the constant-shrink algorithm (§4.1, Lemma 4.3/4.4) —
//     finds a large matching among roots and contracts it, reducing the
//     number of roots by a constant factor w.h.p. in O(1) time;
//   - FILTER(E,k): k rounds of MATCHING + ALTER + random edge deletion,
//     followed by the reverse-order pointer unwinding (§4.2);
//   - EXTRACT(E,k): the log log n-shrink algorithm (§4.2);
//   - REDUCE(V,E,k): the poly(log n)-shrink algorithm (§4.3).
//
// MATCHING is O(1) time and O(|E|) work per call.  To honor the work bound,
// the per-vertex scratch cells it needs are stamped (a value is valid only
// if its stamp matches the current use), so no O(n) clearing ever happens;
// this mirrors the paper's per-edge processors writing into indexed cells.
// Every parent update is recorded per round so the unwinding steps of
// FILTER and EXTRACT execute exactly as written ("if a vertex v updated
// v.p in round j then v.p = v.p.p").
//
// MATCHING charges its eighteen per-arc steps one by one but executes them
// in nine chunked passes (pram.ForRange): consecutive steps share a pass
// whenever the later one reads only its own arc's state or cells written
// before the last barrier (the rule in the pram package comment).
package stage1

import (
	"parcc/internal/graph"
	"parcc/internal/labeled"
	"parcc/internal/pram"
	"parcc/internal/prim"
	"parcc/internal/solve"
)

// Params carries the Stage-1 round counts and probabilities.  Paper values
// in comments; DefaultParams returns the practical profile.
type Params struct {
	// DeleteP64 is the per-round FILTER edge deletion probability
	// (paper: 10^-4; Step 1 of FILTER).
	DeleteP64 uint64
	// FilterK is k in FILTER(E,k) inside EXTRACT
	// (paper: Θ(log log log n)).
	FilterK int
	// ExtractK is k in EXTRACT(E,k) (paper: 1000·log log log n).
	ExtractK int
	// ReduceK is k in REDUCE(V,E,k) (paper: 10^6·log log n).
	ReduceK int
	// Seed drives MATCHING's coin flips and FILTER's deletions.
	Seed uint64
}

// DefaultParams returns practical Stage-1 parameters for an n-vertex graph:
// the paper's Θ(·) round counts with constant 1 instead of 10^6.
func DefaultParams(n int) Params {
	return Params{
		DeleteP64: pram.P64(1e-4),
		FilterK:   int(prim.LogLogLog(n + 4)),
		ExtractK:  int(prim.LogLogLog(n + 4)),
		ReduceK:   int(prim.LogLog(n + 4)),
		Seed:      0x5eed57a6e1,
	}
}

// Runner executes Stage-1 subroutines against a shared machine and forest.
type Runner struct {
	M   *pram.Machine
	F   *labeled.Forest
	Prm Params

	cx    *solve.Ctx
	calls int64
	// sc is MATCHING's stamped per-vertex scratch: four arrays shared by
	// the nine per-vertex cells of one call, each cell living in an array
	// no other live cell uses (see Matching for the tenancy).
	sc [4][]int64
}

// NewRunner draws per-vertex scratch for the forest's vertex count from
// the solve context's arena; release it with Free when the solve is done.
func NewRunner(cx *solve.Ctx, f *labeled.Forest, prm Params) *Runner {
	r := &Runner{M: cx.M, F: f, Prm: prm, cx: cx}
	for i := range r.sc {
		r.sc[i] = cx.Grab64(f.Len())
	}
	return r
}

// Free returns the runner's scratch to its context's arena.  The runner
// must not be used afterwards.
func (r *Runner) Free() {
	for i, a := range r.sc {
		r.cx.Release64(a)
		r.sc[i] = nil
	}
}

// cell is one stamped per-vertex cell array: a stored value is visible
// only under the stamp it was written with, so a new tenant of the same
// array starts out all-zero without any clearing.
type cell struct {
	a     []int64
	stamp int64
}

// set writes x into vertex v's cell.  A cell already holding the value is
// left alone — the same state as rewriting it, without the locked store.
func (c cell) set(v int32, x int32) {
	w := c.stamp<<32 | int64(uint32(x))
	if pram.Load64(c.a, int(v)) != w {
		pram.Store64(c.a, int(v), w)
	}
}

func (c cell) get(v int32) int32 {
	w := pram.Load64(c.a, int(v))
	if w>>32 != c.stamp {
		return 0
	}
	return int32(uint32(w))
}

// jump is one pointer-jumping step v.p = v.p.p, skipping the store when
// it would not change v.p.
func jump(p []int32, v int32) {
	pv := pram.Load32(p, int(v))
	if gp := pram.Load32(p, int(pv)); gp != pv {
		pram.Store32(p, int(v), gp)
	}
}

// Matching runs MATCHING(E) (§4.1) on a copy of E (pass-by-value) and
// returns the vertices whose parent it updated, for the caller's round log.
// One call is O(1) time and O(|E|) work.
func (r *Runner) Matching(E []graph.Edge) (updated []int32) {
	m, p := r.M, r.F.P
	r.calls++
	seed := r.Prm.Seed ^ uint64(r.calls)*0x9e3779b97f4a7c15

	// Cell tenancy.  Each per-vertex cell is written in one pass and last
	// read a few passes later (4+ and 7+: by the record scan after that
	// pass); cells whose pass intervals do not overlap share an array
	// under distinct stamps (four stamps per call):
	//   sc[0]: out [1,2]  cand [3,4+]  deleted [6,7+]  marked [8,9]
	//   sc[1]: arc [1,3]  in₂ [4,5]    slot [7,8]
	//   sc[2]: in₁ [2,3]  multiIn₂ [5,6]
	//   sc[3]: multiIn₁ [3,4]
	// arc is Step 4's hadArc/hasArc pair in one cell: 1 = had an arc
	// before Step 3, 2 = still has one after.  in/multiIn are counted
	// twice (Steps 5 and 6); the subscript is the count.
	st, sc := 4*r.calls, r.sc
	out, cand, deleted, marked := cell{sc[0], st}, cell{sc[0], st + 1}, cell{sc[0], st + 2}, cell{sc[0], st + 3}
	arc, in2, slot := cell{sc[1], st}, cell{sc[1], st + 1}, cell{sc[1], st + 2}
	in1, multiIn2 := cell{sc[2], st}, cell{sc[2], st + 1}
	multiIn1 := cell{sc[3], st}

	// Step 1: keep only non-loop edges between two roots.  Step 2 (orient
	// from the large end to the small end: arc (u,v), u > v) touches only
	// the arc itself, so it is executed in the same copy; it is charged
	// with pass 1 below.
	D := r.cx.GrabEdgesCap(len(E))
	m.Contract(1, int64(len(E)), func() {
		for _, e := range E {
			if e.U != e.V && p[e.U] == e.U && p[e.V] == e.V {
				if e.U < e.V {
					e.U, e.V = e.V, e.U
				}
				D = append(D, e)
			}
		}
	})
	nd := len(D)
	// live[i]: arc i is still in play.  rec[i]: arc i is where Step 4, 6
	// or 8 (the tag) may record an update; the flags are set by parallel
	// passes so each sequential record scan reads only this array, not
	// the random cells behind every arc.
	live, rec := r.cx.Grab32(nd), r.cx.Grab32(nd)

	// Pass 1 — Step 2; Step 3a: each tail bids for its one kept outgoing
	// arc; Step 4a: heads note they had an arc before Step 3.  The span is
	// scanned downwards and a tail's first bid stands, so a tail costs one
	// locked store, not one per arc.  On one span (the sequential and
	// procs-1 machines) the winner is the tail's highest-index arc, the
	// last writer of a forward pass; at procs ≥ 2 it is any one of the
	// tail's arcs (an arbitrary CRCW write).  Tails need no hadArc note:
	// every tail keeps exactly one arc, so pass 2 sets its arc cell to 2,
	// and pass 3 reads the cell only at heads.
	m.ForRange(nd, 3, func(lo, hi, _ int) {
		for i := hi - 1; i >= lo; i-- {
			if out.get(D[i].U) == 0 {
				out.set(D[i].U, int32(i)+1)
			}
			arc.set(D[i].V, 1)
		}
	})
	// Pass 2 — Step 3b: the bid winner keeps its arc; Step 4b: both ends
	// of a kept arc still have one (for a tail, its only arc-cell write);
	// Step 5a: kept arcs bid at their head.
	m.ForRange(nd, 3, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			if out.get(D[i].U) != int32(i)+1 {
				continue
			}
			live[i] = 1
			arc.set(D[i].U, 2)
			arc.set(D[i].V, 2)
			in1.set(D[i].V, int32(i)+1)
		}
	})
	// Pass 3 — Step 4c: a singleton (had an arc, has none) picks the tail
	// of an arbitrary incoming pre-Step-3 arc; Step 5b: a head whose bid
	// some other kept arc lost has more than one incoming arc.
	m.ForRange(nd, 2, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			v := D[i].V
			if arc.get(v) == 1 {
				cand.set(v, D[i].U+1)
			}
			if live[i] == 1 && in1.get(v) != int32(i)+1 {
				multiIn1.set(v, 1)
			}
		}
	})
	// Pass 4 — Step 4d: singletons adopt their candidate; Step 5c: a root
	// with >1 incoming arcs drops all its outgoing arcs; Step 6a: the
	// surviving arcs bid at their head again.  Every v in D is a root
	// until 4d, and all of v's arcs write the same candidate, so after
	// this pass p[v] = cand(v)-1 wherever cand(v) ≠ 0: the arc is flagged
	// for Step 4e's record without reading p again.
	m.ForRange(nd, 3, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			v := D[i].V
			if c := cand.get(v); c != 0 {
				if pram.Load32(p, int(v)) == v {
					pram.Store32(p, int(v), c-1)
				}
				rec[i] = 4
			}
			if live[i] == 1 && multiIn1.get(D[i].U) != 0 {
				live[i] = 0
			}
			if live[i] == 1 {
				in2.set(v, int32(i)+1)
			}
		}
	})
	// Step 4e: record each singleton once, at its first flagged arc.
	m.Contract(1, int64(nd), func() {
		for i := range D {
			if v := D[i].V; rec[i] == 4 && cand.get(v) != 0 {
				updated = append(updated, v)
				cand.set(v, 0)
			}
		}
	})

	// Step 6: heads with >1 incoming surviving arcs adopt all their tails
	// — pass 5 (6b) counts the bids, pass 6 (6c) adopts.
	m.ForRange(nd, 1, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			if live[i] == 1 && in2.get(D[i].V) != int32(i)+1 {
				multiIn2.set(D[i].V, 1)
			}
		}
	})
	m.ForRange(nd, 1, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			if live[i] == 1 && multiIn2.get(D[i].V) != 0 {
				u := D[i].U
				pram.Store32(p, int(u), D[i].V)
				deleted.set(u, 1)
			}
		}
	})

	// Pass 7 — flag the arcs from an adopted tail to its new parent (for
	// Step 6d's record); Step 6e: arcs touching an adopted tail die;
	// Step 7: each remaining arc dies with probability 1/2; Step 8a: the
	// survivors write their id at both ends.
	m.ForRange(nd, 3, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			u, v := D[i].U, D[i].V
			du := deleted.get(u)
			if du == 1 && p[u] == v {
				rec[i] = 6
			}
			if live[i] != 1 {
				continue
			}
			if du != 0 || deleted.get(v) != 0 || pram.SplitMix64(seed^uint64(i))&1 == 1 {
				live[i] = 0
				continue
			}
			slot.set(u, int32(i)+1)
			slot.set(v, int32(i)+1)
		}
	})
	// Step 6d: record each adopted tail once, at its first flagged arc.
	m.Contract(1, int64(nd), func() {
		for i := range D {
			if u := D[i].U; rec[i] == 6 && deleted.get(u) == 1 {
				updated = append(updated, u)
				deleted.set(u, 2)
			}
		}
	})
	// Step 8: isolated arcs contract head onto tail — pass 8 (8b) marks
	// ends shared with another arc, pass 9 (8c) contracts the unmarked
	// (proof of Lemma 4.3).
	// An unmarked end belongs to no other live arc, so each contracted
	// head is written, and flagged for 8d's record, by exactly one arc.
	m.ForRange(nd, 1, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			if live[i] != 1 {
				continue
			}
			id := int32(i) + 1
			if slot.get(D[i].U) != id || slot.get(D[i].V) != id {
				marked.set(D[i].U, 1)
				marked.set(D[i].V, 1)
			}
		}
	})
	m.ForRange(nd, 1, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			if live[i] == 1 && marked.get(D[i].U) == 0 && marked.get(D[i].V) == 0 {
				pram.Store32(p, int(D[i].V), D[i].U)
				rec[i] = 8
			}
		}
	})
	m.Contract(1, int64(nd), func() {
		for i := range D {
			if rec[i] == 8 {
				updated = append(updated, D[i].V)
			}
		}
	})

	// Step 9: pointer-jump the ends of the original edge set.
	m.ForRange(len(E), 1, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			jump(p, E[i].U)
			jump(p, E[i].V)
		}
	})
	r.cx.Release32(live)
	r.cx.Release32(rec)
	r.cx.ReleaseEdges(D)
	return updated
}

// Filter runs FILTER(E,k) (§4.2): k+1 rounds of MATCHING/ALTER/deletion on a
// copy of E, then the reverse-order unwinding.  It returns V(E) — vertices
// still adjacent to a surviving edge — and the union of vertices whose
// parents were updated (needed by EXTRACT's own unwinding).
func (r *Runner) Filter(E []graph.Edge, k int, seed uint64) (VE []int32, updatedUnion []int32) {
	m := r.M
	cur := r.cx.CopyEdges(E)
	rounds := make([][]int32, 0, k+1)
	for j := 0; j <= k; j++ {
		upd := r.Matching(cur)
		rounds = append(rounds, upd)
		cur = labeled.Alter(m, r.F, cur)
		cur = prim.DeleteEdges(m, cur, r.Prm.DeleteP64, seed^0xf117e4^uint64(j)<<17)
	}
	r.unwind(rounds)
	for _, u := range rounds {
		updatedUnion = append(updatedUnion, u...)
	}
	VE = solve.VertexSet(r.cx, r.F.Len(), cur)
	r.cx.ReleaseEdges(cur)
	return VE, updatedUnion
}

// unwind performs "for iteration j from k to 0: if v updated v.p in round j
// then v.p = v.p.p".
func (r *Runner) unwind(rounds [][]int32) {
	p := r.F.P
	for j := len(rounds) - 1; j >= 0; j-- {
		vs := rounds[j]
		r.M.ForRange(len(vs), 1, func(lo, hi, _ int) {
			for _, v := range vs[lo:hi] {
				jump(p, v)
			}
		})
	}
}

// Extract runs EXTRACT(E,k) (§4.2): repeated FILTER rounds that peel off the
// high-degree part, then unwinding and REVERSE.  E is altered in place
// (pass-by-reference); the surviving edge set is returned.
func (r *Runner) Extract(E []graph.Edge, k int) []graph.Edge {
	m := r.M
	n := r.F.Len()
	inVp := r.cx.Grab32(n) // membership flags for V' (single grab)
	var Vp []int32
	// Step 1: E' = non-loops of E.
	Ep := r.cx.GrabEdgesCap(len(E))
	m.Contract(1, int64(len(E)), func() {
		for _, e := range E {
			if e.U != e.V {
				Ep = append(Ep, e)
			}
		}
	})
	rounds := make([][]int32, 0, k+1)
	for i := 0; i <= k; i++ {
		Vi, upd := r.Filter(Ep, r.Prm.FilterK, r.Prm.Seed^uint64(i)*0x51ab)
		rounds = append(rounds, upd)
		setFlags(m, inVp, Vi)
		Vp = append(Vp, Vi...)
		Ep = labeled.Alter(m, r.F, Ep)
		Ep = removeBothIn(m, Ep, inVp)
	}
	r.unwind(rounds)
	r.cx.ReleaseEdges(Ep)
	Vp = dedupVerts(Vp, inVp)
	r.cx.Release32(inVp)
	Reverse(m, r.F, Vp, E)
	return labeled.Alter(m, r.F, E)
}

func removeBothIn(m *pram.Machine, E []graph.Edge, in []int32) []graph.Edge {
	out := E[:0]
	m.Contract(1, int64(len(E)), func() {
		for _, e := range E {
			if in[e.U] != 0 && in[e.V] != 0 {
				continue
			}
			out = append(out, e)
		}
	})
	return out
}

// dedupVerts keeps the first occurrence of every vertex of vs, in order.
// flag must be set for exactly the vertices of vs; it is cleared as they
// are kept.
func dedupVerts(vs []int32, flag []int32) []int32 {
	out := vs[:0]
	for _, v := range vs {
		if flag[v] != 0 {
			flag[v] = 0
			out = append(out, v)
		}
	}
	return out
}

// setFlags sets flag[v] for every v in vs as one charged step.
func setFlags(m *pram.Machine, flag []int32, vs []int32) {
	m.ForRange(len(vs), 1, func(lo, hi, _ int) {
		for _, v := range vs[lo:hi] {
			pram.SetFlag(flag, int(v))
		}
	})
}

// Reverse runs REVERSE(V',E) (§4.2): within each flat tree containing a
// vertex of V', promote an arbitrary V'-child to be the root, then shortcut
// and ALTER.  Precondition (as at its call sites): trees are flat.
func Reverse(m *pram.Machine, f *labeled.Forest, Vp []int32, E []graph.Edge) {
	p := f.P
	// Step 1a: each non-root v ∈ V' competes to become its root's parent.
	m.ForRange(len(Vp), 1, func(lo, hi, _ int) {
		for _, v := range Vp[lo:hi] {
			if pv := pram.Load32(p, int(v)); pv != v {
				pram.Store32(p, int(pv), v)
			}
		}
	})
	// Step 1b: v.p = v.p.p for the same vertices (the winner becomes a root).
	m.ForRange(len(Vp), 1, func(lo, hi, _ int) {
		for _, v := range Vp[lo:hi] {
			jump(p, v)
		}
	})
	// Step 2: global shortcut.
	labeled.ShortcutAll(m, f)
	// Step 3: ALTER(E) — in place; loop removal is the caller's choice.
	labeled.AlterKeep(m, f, E)
}

// Result reports what REDUCE produced: the contracted current graph.
// Edges is drawn from the runner's context arena (when it has one):
// ownership passes to the caller, who releases it when the run is done.
type Result struct {
	Edges []graph.Edge // altered edge set of the current graph (no loops)
	Roots []int32      // all roots of the labeled digraph
}

// Reduce runs REDUCE(V,E,k) (§4.3) on the whole graph: EXTRACT, a FILTER
// pass, matching rounds on the low-degree remainder, and a final REVERSE.
// It contracts the current graph to n/poly(log n) vertices (Lemma 4.25)
// w.h.p. in O(log log n) time and O(m)+O(n) expected work.
func (r *Runner) Reduce(g *graph.Graph) Result {
	m, f := r.M, r.F
	n := f.Len()
	E := r.cx.CopyEdges(g.Edges)

	// Step 1: EXTRACT(E, Θ(log log log n)).
	E = r.Extract(E, r.Prm.ExtractK)

	// Step 2: V' = FILTER(E, k).
	k := r.Prm.ReduceK
	Vp, _ := r.Filter(E, k, r.Prm.Seed^0xabcdef)

	// Step 3: shortcut everyone; ALTER(E).
	labeled.ShortcutAll(m, f)
	E = labeled.Alter(m, f, E)

	// Step 4: E' = edges with an end outside V'.
	inVp := r.cx.Grab32(n)
	setFlags(m, inVp, Vp)
	Ep := r.cx.GrabEdgesCap(len(E))
	m.Contract(1, int64(len(E)), func() {
		for _, e := range E {
			if inVp[e.U] == 0 || inVp[e.V] == 0 {
				Ep = append(Ep, e)
			}
		}
	})
	r.cx.Release32(inVp)

	// Step 5: k rounds of MATCHING on E' with global shortcuts.
	for i := 0; i <= k; i++ {
		r.Matching(Ep)
		labeled.ShortcutAll(m, f)
		Ep = labeled.Alter(m, f, Ep)
		if len(Ep) == 0 {
			break
		}
	}
	r.cx.ReleaseEdges(Ep)

	// Step 6: REVERSE(V', E).
	Reverse(m, f, Vp, E)
	E = labeled.Alter(m, f, E)

	roots := prim.CompactIndices(m, n, func(v int) bool { return f.P[v] == int32(v) })
	return Result{Edges: E, Roots: roots}
}
