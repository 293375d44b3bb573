package par

import "parcc/internal/graph"

// Components labels the connected components of g with a barrier-free
// concurrent union-find: one parallel UniteRem pass over the edges, then a
// Compress.  This is the cas-unite algorithm of the public API — the
// wall-clock-oriented companion to the charged PRAM algorithms, in the
// spirit of the Liu–Tarjan CAS formulations.  The result is deterministic
// for any procs and schedule: every vertex is labeled by the minimum vertex
// of its component.  The labels are written into dst when it has the
// capacity, the zero-allocation serving path for session reuse.  The edge
// pass runs in grain-sized spans, so the per-edge work is the union alone,
// not a closure call.
func Components(rt *Runtime, g *graph.Graph, dst []int32) []int32 {
	p := dst
	if cap(p) < g.N {
		p = make([]int32, g.N)
	}
	p = p[:g.N]
	rt.Run(g.N, func(v int) { p[v] = int32(v) })
	edges := g.Edges
	rt.ForSpans(len(edges), func(lo, hi, _ int) {
		for _, ed := range edges[lo:hi] {
			UniteRem(p, ed.U, ed.V)
		}
	})
	Compress(rt, p)
	return p
}
