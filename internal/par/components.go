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
// A nil or one-proc runtime runs the one-worker form: an identity loop,
// one UniteRem pass with plain stores, and one ascending flatten, which
// is complete because parents stay ≤ their vertex (a vertex's parent is
// flattened before the vertex is).  Otherwise the edge pass runs in
// grain-sized spans on the pool, so the per-edge work is the union
// alone, not a closure call, and Compress flattens.
func Components(rt *Runtime, g *graph.Graph, dst []int32) ([]int32, int) {
	p := dst
	if cap(p) < g.N {
		p = make([]int32, g.N)
	}
	p = p[:g.N]
	edges := g.Edges
	if rt == nil || rt.Procs() == 1 {
		for v := range p {
			p[v] = int32(v)
		}
		hooks := 0
		for _, ed := range edges {
			if UniteRem(p, ed.U, ed.V, true) >= 0 {
				hooks++
			}
		}
		for v, pv := range p {
			p[v] = p[pv]
		}
		return p, g.N - hooks
	}
	rt.Run(g.N, func(v int) { p[v] = int32(v) })
	rt.hooks.Store(0)
	rt.ForSpans(len(edges), func(lo, hi, _ int) {
		h := int64(0)
		for _, ed := range edges[lo:hi] {
			if UniteRem(p, ed.U, ed.V, false) >= 0 {
				h++
			}
		}
		rt.hooks.Add(h)
	})
	Compress(rt, p)
	return p, g.N - int(rt.hooks.Load())
}
