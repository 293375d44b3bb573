package graph

// Plan is the cached per-graph solve plan: the CSR adjacency, built once
// and shared by every consumer (baseline BFS,
// spectral estimators, repeated Solver.Solve calls).  A Plan is immutable
// after construction and safe for concurrent readers.
type Plan struct {
	G      *Graph
	CSR    *CSR
	builtN int    // G.N at build time: the CSR's vertex count
	builtM int    // len(G.Edges) at build time
	fp     uint64 // content fingerprint of G.Edges[:builtM] at build time
}

// edgeFingerprint is an order-sensitive content hash of an edge list (an
// FNV-style fold).  Validating a cached plan against it costs one cheap
// pass over the edges — negligible next to any solve, which is Ω(m) — and
// catches in-place mutation, which a length check alone would miss.
// Uncharged helper; single-threaded.
func edgeFingerprint(edges []Edge) uint64 {
	h := uint64(0xcbf29ce484222325) // FNV offset basis
	for _, e := range edges {
		h = (h ^ (uint64(uint32(e.U))<<32 | uint64(uint32(e.V)))) * 0x100000001b3
	}
	return h
}

// NewPlan builds g's plan: the CSR by BuildCSR's sequential counting
// sort, and the vertex count and fingerprint Valid checks against.
func NewPlan(g *Graph) *Plan {
	return &Plan{G: g, CSR: BuildCSR(g), builtN: g.N, builtM: len(g.Edges), fp: edgeFingerprint(g.Edges)}
}

// Valid reports whether the plan still describes its graph: a changed
// vertex count, appends, and in-place edge mutations after the build all
// make the cached adjacency stale.  Costs one O(m) fingerprint pass.
func (p *Plan) Valid() bool {
	return p.ValidQuick() && p.fp == edgeFingerprint(p.G.Edges)
}

// ValidQuick is the O(1) structural check behind Options.TrustGraph: it
// catches a changed vertex count and appends and removals (the edge count
// changed) but trusts the caller not to have mutated existing edges in
// place, skipping Valid's O(m) fingerprint pass.  Steady-state serving on
// an unchanging graph uses it to make plan-cache validation free.
func (p *Plan) ValidQuick() bool { return p.builtN == p.G.N && p.builtM == len(p.G.Edges) }
