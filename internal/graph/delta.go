package graph

// Delta-aware plan maintenance for the incremental serving path: a live
// graph only ever grows by appended edges between rebuilds (removals force
// a full rebuild), so the cached CSR can be extended by merging the old
// adjacency with the appended endpoints instead of re-sorting the whole
// edge list.  Extension is one O(n) offset pass, one O(m) straight memcpy
// of the old neighbor block, and O(batch) scatter of the new entries —
// no counting sort, no full edge rescan.

// ExtendPlanOn returns a plan covering all of g's edges, reusing prev's
// adjacency for the prefix it was built from.  prev must be a plan for g
// whose build prefix is a strict prefix of the current edge list; when it
// is not (different graph, edges removed, or nothing appended), ExtendPlanOn
// returns nil and the caller falls back to a full BuildPlanOn.
//
// The extended layout is byte-identical to BuildCSR(g): appended edges come
// after the prefix in the edge scan, so each vertex's new neighbors land
// after its old ones, in append order.  The fingerprint is carried forward
// by continuing the fold over the appended edges only — the caller is
// trusted not to have mutated the prefix in place; run Valid on the result
// to verify that when the graph is not session-owned.
//
// Uncharged helper (plan builds are serving infrastructure, not PRAM
// steps).  Not safe to call while readers use prev concurrently with a
// mutation of g; the Solver serializes it under the session lock.
func ExtendPlanOn(e Exec, prev *Plan, g *Graph) *Plan {
	if prev == nil || prev.G != g || prev.builtM >= len(g.Edges) {
		return nil
	}
	added := g.Edges[prev.builtM:]
	n := g.N
	old := prev.CSR

	// Per-vertex appended degree (self-loops count once, §2.1).
	addDeg := make([]int64, n)
	for _, ed := range added {
		addDeg[ed.U]++
		if ed.U != ed.V {
			addDeg[ed.V]++
		}
	}
	off := make([]int64, n+1)
	var shift int64
	for v := 0; v < n; v++ {
		off[v] = old.Off[v] + shift
		shift += addDeg[v]
		off[v+1] = old.Off[v+1] + shift // overwritten next iteration except at v = n-1
	}
	nbr := make([]int32, off[n])

	// Move the old adjacency blocks to their shifted positions.  Each
	// vertex's block is a contiguous copy; parallelize over vertices when a
	// runtime is available (blocks are disjoint, no atomics needed).
	copyOld := func(v int) {
		lo, hi := old.Off[v], old.Off[v+1]
		if lo < hi {
			copy(nbr[off[v]:off[v]+(hi-lo)], old.Nbr[lo:hi])
		}
	}
	if e != nil && e.Procs() > 1 && len(old.Nbr) >= planParallelCutoff {
		e.Run(n, copyOld)
	} else {
		for v := 0; v < n; v++ {
			copyOld(v)
		}
	}

	// Scatter the appended endpoints after each vertex's old block, in
	// append order — the order BuildCSR would have produced.
	pos := addDeg // reuse: pos[v] = next free slot for v's new entries
	for v := 0; v < n; v++ {
		pos[v] = off[v] + (old.Off[v+1] - old.Off[v])
	}
	for _, ed := range added {
		nbr[pos[ed.U]] = ed.V
		pos[ed.U]++
		if ed.U != ed.V {
			nbr[pos[ed.V]] = ed.U
			pos[ed.V]++
		}
	}

	return &Plan{
		G:      g,
		CSR:    &CSR{Off: off, Nbr: nbr},
		builtM: len(g.Edges),
		fp:     edgeFold(prev.fp, added),
	}
}

// InducedInto is the serving-path sibling of InducedSubgraph: extraction
// through a caller-owned dense vertex map instead of a freshly allocated
// hash map, with a reusable output graph.  It extracts the subgraph of g
// induced by the vertices v with vmap[v] != 0, relabeled to the compact
// ids vmap[v]-1 (the +1 convention lets callers hand in a zeroed arena
// buffer with 0 meaning "absent").
// Edges are kept when their first endpoint is selected — the incremental
// path guarantees endpoints of one edge are always in the same component,
// so selection is component-closed; nVerts is the number of selected
// vertices.  The result reuses out's edge backing when provided (pass nil
// for a fresh graph), which makes repeated dirty-region extractions
// allocation-free once warm.
//
// Uncharged helper: one sequential O(m) edge scan (the scoped re-solve it
// feeds is the expensive part).  Not safe for concurrent use with writers
// of g or vmap.
func InducedInto(g *Graph, vmap []int32, nVerts int, out *Graph) *Graph {
	if out == nil {
		out = New(nVerts)
	}
	out.N = nVerts
	out.Edges = out.Edges[:0]
	for _, ed := range g.Edges {
		su := vmap[ed.U]
		if su == 0 {
			continue
		}
		out.Edges = append(out.Edges, Edge{U: su - 1, V: vmap[ed.V] - 1})
	}
	return out
}
