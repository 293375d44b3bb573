package graph

import "sync/atomic"

// Exec is the minimal parallel-executor surface the graph layer uses to
// build plans on a runtime.  It is structurally identical to pram.Executor
// and par.Exec (this package imports neither), so a Machine's installed
// executor or a par.Runtime can be passed straight in.
type Exec interface {
	// Run executes body(i) for every i in [0,n), returning when all calls
	// have completed.
	Run(n int, body func(i int))
	// Procs reports the parallelism degree.
	Procs() int
}

// coarseExec is the optional chunk-size-1 dispatch par.Runtime provides;
// the scatter pass prefers it so a handful of coarse range tasks still
// spread across the pool.
type coarseExec interface {
	RunCoarse(n int, body func(i int))
}

// Plan is the cached per-graph solve plan: the CSR adjacency, built once
// and shared by every consumer (baseline BFS,
// spectral estimators, repeated Solver.Solve calls).  A Plan is immutable
// after construction and safe for concurrent readers.
type Plan struct {
	G      *Graph
	CSR    *CSR
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

// NewPlan builds a plan single-threaded.
func NewPlan(g *Graph) *Plan { return BuildPlanOn(nil, g) }

// BuildPlanOn builds a plan with the CSR constructed in parallel on e via
// counting sort (a nil executor, or Procs()==1, falls back to the
// sequential build).  The resulting adjacency layout is identical to
// BuildCSR's for any executor and parallelism degree.
func BuildPlanOn(e Exec, g *Graph) *Plan {
	return &Plan{
		G: g, CSR: BuildCSROn(e, g),
		builtM: len(g.Edges), fp: edgeFingerprint(g.Edges),
	}
}

// Valid reports whether the plan still describes its graph: both appends
// and in-place edge mutations after the build make the cached adjacency
// stale.  Costs one O(m) fingerprint pass.
func (p *Plan) Valid() bool {
	return p.builtM == len(p.G.Edges) && p.fp == edgeFingerprint(p.G.Edges)
}

// ValidQuick is the O(1) structural check behind Options.TrustGraph: it
// catches appends and removals (the edge count changed) but trusts the
// caller not to have mutated existing edges in place, skipping Valid's
// O(m) fingerprint pass.  Steady-state serving on an unchanging graph
// uses it to make plan-cache validation free.
func (p *Plan) ValidQuick() bool { return p.builtM == len(p.G.Edges) }

// planParallelCutoff is the edge count below which the parallel CSR build
// isn't worth the extra scans.
const planParallelCutoff = 1 << 13

// BuildCSROn constructs adjacency lists for g on the executor, by parallel
// counting sort: atomic per-vertex counts, a prefix scan, and a scatter
// partitioned over degree-balanced vertex ranges.  Each range pass scans
// the edge list in input order and places only the endpoints it owns, so
// every adjacency list comes out in exactly the order the sequential
// BuildCSR produces — the layout is deterministic and backend-independent.
func BuildCSROn(e Exec, g *Graph) *CSR {
	if e == nil || e.Procs() <= 1 || len(g.Edges) < planParallelCutoff {
		return BuildCSR(g)
	}
	n := g.N
	edges := g.Edges
	cnt := make([]int64, n+1)
	e.Run(len(edges), func(i int) {
		ed := edges[i]
		atomic.AddInt64(&cnt[ed.U+1], 1)
		if ed.U != ed.V {
			atomic.AddInt64(&cnt[ed.V+1], 1)
		}
	})
	for i := 0; i < n; i++ {
		cnt[i+1] += cnt[i]
	}
	total := cnt[n]
	nbr := make([]int32, total)
	pos := make([]int64, n)
	e.Run(n, func(v int) { pos[v] = cnt[v] })

	// Degree-balanced vertex ranges: range k owns vertices [splits[k],
	// splits[k+1]).  Each range task replays the edge list and scatters
	// the endpoints it owns; ranges are disjoint, so pos needs no atomics
	// and the within-vertex neighbor order is the sequential one.  This
	// trades total work for determinism: k tasks read the edge list k
	// times, so k is capped — wall time is ~one edge scan on k cores for
	// k·m total traffic, which is the price of a layout byte-identical to
	// the sequential build.
	k := e.Procs()
	if k > 8 {
		k = 8
	}
	if k > n {
		k = n
	}
	splits := make([]int, k+1)
	splits[k] = n
	for j := 1; j < k; j++ {
		target := total * int64(j) / int64(k)
		lo, hi := splits[j-1], n
		for lo < hi {
			mid := (lo + hi) / 2
			if cnt[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		splits[j] = lo
	}
	scatter := func(t int) {
		lo32, hi32 := int32(splits[t]), int32(splits[t+1])
		if lo32 >= hi32 {
			return
		}
		for _, ed := range edges {
			if ed.U >= lo32 && ed.U < hi32 {
				nbr[pos[ed.U]] = ed.V
				pos[ed.U]++
			}
			if ed.U != ed.V && ed.V >= lo32 && ed.V < hi32 {
				nbr[pos[ed.V]] = ed.U
				pos[ed.V]++
			}
		}
	}
	if ce, ok := e.(coarseExec); ok {
		ce.RunCoarse(k, scatter)
	} else {
		e.Run(k, scatter)
	}
	return &CSR{Off: cnt, Nbr: nbr}
}
