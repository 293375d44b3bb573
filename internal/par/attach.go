package par

import "parcc/internal/graph"

// Live-session build kernel: the one pass of Solver.Attach.  An
// uncharged serving helper (no PRAM cost is booked).

// AttachForest builds a live session's state over g in one pass over its
// edges: each edge runs one one-worker UniteRem on an identity forest,
// whose hook is the edge's spanning-forest flag (the marks UniteBatch
// would report for the same edge order), and is then linked into the
// edge store's incidence lists.  One ascending flatten completes the
// forest, because from identity every parent stays ≤ its vertex (a
// vertex's parent is flattened before the vertex is): each vertex comes
// out labeled by its component minimum.  Returns the flat parent array,
// the store (which takes g's edge list over) and the number of merges.
// O(n + m·α), sequential.
func AttachForest(g *graph.Graph) ([]int32, *graph.DynForest, int) {
	p := make([]int32, g.N)
	for v := range p {
		p[v] = int32(v)
	}
	df := graph.BeginDynForest(g)
	merges := 0
	for h, ed := range g.Edges {
		if UniteRem(p, ed.U, ed.V, true) >= 0 {
			df.SetForest(int32(h), true)
			merges++
		}
		df.Link(int32(h), ed)
	}
	for v, pv := range p {
		p[v] = p[pv]
	}
	return p, df, merges
}
