// Afforest-style sampling kernels: the fast path that eliminates the bulk
// of union/hook work on real graphs before the edge list is ever walked in
// full.  Sutton–Ben-Nun–Barak (Adaptive Work-Efficient Connected Components
// on the GPU) observe that on most inputs the vast majority of edges are
// intra-component and never change a label; sampling a few neighbors per
// vertex settles those components almost entirely, after which the full
// edge pass only needs one cheap root comparison per edge and a Unite for
// the small surviving minority.  The kernels compose with the Liu–Tarjan
// CAS machinery in kernels.go: the same Unite/UniteRem/Find/Compress
// primitives do the hooking, so every intermediate state is a valid
// concurrent union-find forest and the final labels are the component
// minima, deterministic for any procs and schedule.
//
// The phase structure a caller (parcc's "sample" algorithm) composes:
//
//	SampleUnite   — k sampling rounds over the cached CSR: each vertex
//	                unites with a sampled neighbor (deterministic
//	                per-chunk RNG), collapsing most components early;
//	Compress      — flatten, so roots are one load away;
//	MajorityRoot  — approximate most-frequent root by sampled voting
//	                (Boyer–Moore), the Afforest signal for whether a
//	                dominant component exists;
//	SkipUnite     — the finish pass over the CSR: majority vertices skip
//	                their whole adjacency range unread; the rest settle
//	                neighbors against a register-cached root and unite
//	                only the surviving minority.  With no dominant root
//	                it runs direction-filtered, which still skips well on
//	                multi-community graphs whose every block collapsed.
package par

import (
	"sync/atomic"

	"parcc/internal/graph"
)

// sampleWindow is the adjacency prefix SampleUnite draws from: sixteen
// int32 neighbor ids — one 64-byte cache line.  Sampling an arbitrary
// index would cost a cache miss per vertex per round (the adjacency array
// is far larger than cache); confining the draw to the first line keeps
// the pass streaming — the first round warms the line, later rounds hit
// it — which is the same locality argument behind Afforest's "link first
// k neighbors" formulation.
const sampleWindow = 16

// SampleUnite runs `rounds` neighbor-sampling draws per vertex over the
// CSR in a single streaming pass: each vertex unites with `rounds` of its
// neighbors.  Vertices of degree at most `rounds` enumerate their
// adjacency deterministically (every edge covered exactly), so sparse
// regions — paths, cycles, tree fringes — settle completely; higher-degree
// vertices draw from the first cache line of their adjacency via the
// chunk's deterministic RNG stream, which collapses dense communities in
// O(1) draws without a random-access miss per draw.  The single pass
// visits each vertex's CSR metadata and sampling window once for all
// rounds — the pass is dominated by the ~n successful hooks (CAS each),
// which is the irreducible price of building the early forest.  The
// choice of sampled neighbors never affects the final partition a
// subsequent SkipUnite pass converges to — only how much of it is settled
// early.  O(rounds·n) work.  The unions go through Unite, not UniteRem:
// on this still-unflattened early forest Unite's path halving pays for
// itself, and the splicing union measured 4–7% slower on gnm-dense and
// random-regular at n = 2^16 (the finish pass, on a flattened forest, is
// where UniteRem wins).
//
// Returns the number of Unite attempts issued and the number that hooked
// (actually merged two sets).  The counts are kept in per-chunk locals and
// folded with one atomic add per chunk, so they cost nothing measurable;
// the tracer turns them into the CAS attempt/hook counters.
func SampleUnite(rt *Runtime, p []int32, csr *graph.CSR, rounds int) (attempts, hooks int64) {
	var att, hk atomic.Int64
	rt.ForChunks(len(p), func(lo, hi int, rng *RNG) {
		la, lh := int64(0), int64(0)
		for v := lo; v < hi; v++ {
			off := csr.Off[v]
			d := int(csr.Off[v+1] - off)
			if d == 0 {
				continue
			}
			if d <= rounds {
				for r := 0; r < d; r++ {
					if u := csr.Nbr[off+int64(r)]; u != int32(v) {
						la++
						if _, ok := Unite(p, int32(v), u); ok {
							lh++
						}
					}
				}
				continue
			}
			w := d
			if w > sampleWindow {
				w = sampleWindow
			}
			for r := 0; r < rounds; r++ {
				if u := csr.Nbr[off+int64(rng.Intn(w))]; u != int32(v) {
					la++
					if _, ok := Unite(p, int32(v), u); ok {
						lh++
					}
				}
			}
		}
		att.Add(la)
		hk.Add(lh)
	})
	return att.Load(), hk.Load()
}

// MajorityRoot estimates the most frequent root of the flattened forest by
// sampled voting: `probes` vertices are drawn from deterministic per-chunk
// RNG streams, their roots fed to a Boyer–Moore majority vote, and the
// candidate's frequency in the same sample reported as its coverage
// estimate.  The vote is exact whenever a true majority exists in the
// sample; the coverage estimate is within a few percent for probes in the
// hundreds.  Call after Compress for one-load roots (Find is used, so an
// unflattened forest is merely slower, not wrong).  scratch, when it has
// the capacity, backs the sampled roots — sessions pass arena scratch so
// warm solves stay allocation-free; nil allocates.  O(probes) work.
func MajorityRoot(rt *Runtime, p []int32, probes int, scratch []int32) (int32, float64) {
	n := len(p)
	if n == 0 {
		return -1, 0
	}
	if probes > n {
		probes = n
	}
	if probes < 1 {
		probes = 1
	}
	roots := scratch
	if cap(roots) < probes {
		roots = make([]int32, probes)
	}
	roots = roots[:probes]
	rt.ForChunks(probes, func(lo, hi int, rng *RNG) {
		for i := lo; i < hi; i++ {
			roots[i] = Find(p, int32(rng.Intn(n)))
		}
	})
	// Boyer–Moore vote, then an exact count of the winner over the sample.
	cand, bal := roots[0], 0
	for _, r := range roots {
		if bal == 0 {
			cand = r
		}
		if r == cand {
			bal++
		} else {
			bal--
		}
	}
	hits := 0
	for _, r := range roots {
		if r == cand {
			hits++
		}
	}
	return cand, float64(hits) / float64(probes)
}

// SkipUnite is the sampling fast path's finish pass, driven by the CSR so
// that settled regions are skipped wholesale instead of edge by edge.  Each
// vertex loads its flattened root once (one sequential, prefetcher-friendly
// scan of p); a vertex whose root is maj skips its entire adjacency range
// without reading it — the branch-free majority check of Afforest, applied
// at vertex granularity, which is what eliminates the memory traffic on the
// settled majority of the edge list rather than merely cheapening it.  The
// surviving vertices walk their neighbor lists with the cached root in a
// register: a neighbor sharing it is settled with a single random load, and
// only genuinely unsettled pairs go through UniteRem.
//
// maj ≥ 0 selects this majority mode; the skip is sound because an edge
// internal to the majority component is already settled, and an edge
// leaving it is revisited from its non-majority endpoint, which processes
// all of its neighbors.  maj < 0 (no dominant component — the
// multi-community regime) selects the direction-filtered mode instead:
// every vertex processes only neighbors u > v, so each undirected edge
// pays exactly one random root load instead of the two an edge-list pass
// would, and self-loops fall out of the filter.
//
// Stale reads are benign in both directions — an equal root proves the
// endpoints were already connected (parents only move within a set), and
// an unequal pair merely falls through to UniteRem, which walks on to the
// roots.  Returns the number of union attempts (the processed minority;
// the caller derives the skip ratio) and the number that hooked — counted
// in per-chunk locals, folded with one atomic add per chunk.  The final
// partition equals a plain union pass over all edges: component minima,
// deterministic for any procs and schedule.
//
// SkipUnite is the full-frontier instantiation of the shared finish
// kernel (finishSpan/finishVertex in frontier.go): the non-majority side
// is the same per-vertex body the frontier engine's hook pass drives from
// its residual bitmap, so the two passes cannot drift apart semantically.
func SkipUnite(rt *Runtime, p []int32, csr *graph.CSR, maj int32) (attempts, hooks int64) {
	var processed, hooked atomic.Int64
	rt.ForSpans(len(p), func(lo, hi, _ int) {
		a, h := finishSpan(p, csr, maj, lo, hi)
		processed.Add(a)
		hooked.Add(h)
	})
	return processed.Load(), hooked.Load()
}
