package par

import "parcc/internal/graph"

// Components labels the connected components of g with a barrier-free
// concurrent union-find: one UniteRem pass over the edges, then a
// flatten.  This is the cas-unite algorithm of the public API — the
// wall-clock-oriented companion to the charged PRAM algorithms, in the
// spirit of the Liu–Tarjan CAS formulations — and, run with a nil
// runtime, its sequential union-find.  The result is deterministic for
// any procs and schedule: every vertex is labeled by the minimum vertex
// of its component.  The labels are written into dst when it has the
// capacity, the zero-allocation serving path for session reuse.  It also
// returns the component count, n minus the pass's hooks (UniteRem's
// hooks total exactly the merges), so callers need no counting pass.
//
// The pass is also the edge-range check: an edge with an endpoint outside
// [0, g.N) is never united, and Components reports it with ok == false
// (the labels and count are then meaningless), so a caller needs no
// separate validation sweep over the edges.  The pool form compares each
// edge's endpoints against n; the one-worker form relies on the bounds
// check of its label loads (uniteOneWorker).  g.N itself must lie in
// [0, MaxInt32].
//
// A nil or one-proc runtime runs the one-worker form: an identity loop,
// one UniteRem pass with plain stores, and one ascending flatten, which
// is complete because parents stay ≤ their vertex (a vertex's parent is
// flattened before the vertex is).  Otherwise the edge pass runs in
// grain-sized spans on the pool, so the per-edge work is the union
// alone, not a closure call, and Compress flattens.
func Components(rt *Runtime, g *graph.Graph, dst []int32) (labels []int32, comps int, ok bool) {
	p := dst
	if cap(p) < g.N {
		p = make([]int32, g.N)
	}
	p = p[:g.N]
	edges := g.Edges
	if rt.Procs() == 1 {
		for v := range p {
			p[v] = int32(v)
		}
		hooks, inRange := uniteOneWorker(p, g)
		if !inRange {
			return p, 0, false
		}
		for v, pv := range p {
			p[v] = p[pv]
		}
		return p, g.N - hooks, true
	}
	rt.Run(g.N, func(v int) { p[v] = int32(v) })
	rt.hooks.Store(0)
	rt.badEdge.Store(false)
	rt.ForSpans(len(edges), func(lo, hi, _ int) {
		n := uint32(len(p))
		h := int64(0)
		for _, ed := range edges[lo:hi] {
			if uint32(ed.U) >= n || uint32(ed.V) >= n {
				rt.badEdge.Store(true)
				break
			}
			if UniteRem(p, ed.U, ed.V, false) >= 0 {
				h++
			}
		}
		rt.hooks.Add(h)
	})
	if rt.badEdge.Load() {
		return p, 0, false
	}
	Compress(rt, p)
	return p, g.N - int(rt.hooks.Load()), true
}

// uniteOneWorker is the one-worker form's UniteRem pass over g's edges,
// returning its hooks.  Its range check is the bounds check Go already
// makes on every label load: an endpoint outside [0, len(p)) panics at
// its edge's first load, before the edge stores anything, and the
// recovered panic reports ok == false.  An explicit compare per edge
// slowed this pass by some 10–15% on a 2^15 hypercube and GNM(2^15,
// 2^19).  A panic while every edge is in range is a bug, and is re-raised.
// The pool form cannot do the same: a worker's panic is not recoverable
// by the caller.
func uniteOneWorker(p []int32, g *graph.Graph) (hooks int, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if g.Validate() == nil {
				panic(r)
			}
			ok = false
		}
	}()
	for _, ed := range g.Edges {
		if UniteRem(p, ed.U, ed.V, true) >= 0 {
			hooks++
		}
	}
	return hooks, true
}
