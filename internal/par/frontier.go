// Frontier is the active-vertex-set machinery of the frontier-driven solve
// engine: a set with three representations, in the style of Ligra's
// vertex_map/edge_map.  The engine built on it (FrontierPropagate) does
// work proportional to the frontier, not to rounds × m: it floods labels
// once over all of [0,n), which on id-local graphs leaves only the chunk
// boundaries active, then hooks that residual into a union-find forest
// in one more pass.  No round loop, so no diameter term — which is what
// wins the high-diameter mesh regime (grids, tori, paths) where every
// round-based algorithm pays Θ(diameter) rounds.
//
// Representation contract:
//
//   - full: every vertex in [0,n) is active.  No bitmap bits are set and
//     no list is built — iteration is a plain range scan with no bit
//     tests, so seeding all of [0,n) costs nothing.
//   - dense: activity lives in the bitmap only.  Iteration scans the words
//     (skipping zero words 64 vertices at a time) and zeroes each word as
//     it is consumed, so clearing is folded into the scan.
//   - sparse: adds also append to the compacted list through an atomic
//     reservation cursor, and iteration walks the list directly — work
//     exactly |F|, independent of n.
//
// The collector picks the representation when it begins collecting: the
// engine's residual is always a bitmap (the hook pass's word scan is n/64
// loads, noise beside the flood), while the replacement search and the
// label-propagation baseline collect sparse lists.  All storage is
// arena-backed: a session reuses one Frontier pair across solves and
// deletions, so the warm path allocates only the kernels' fixed closure
// set (pinned by TestFrontierAllocs).
//
// Concurrency: Add is safe from any number of loop-body goroutines (CAS on
// the bitmap word, atomic cursor reservation for the list); everything
// else — BeginCollect, Clear, iteration setup — is orchestration, owned by
// the single goroutine driving the runtime, like the Arena it draws from.
package par

import (
	"math/bits"
	"sync/atomic"

	"parcc/internal/graph"
)

// Frontier is one active-vertex set.  Construct with NewFrontier; a
// session keeps a pair — the engine's residual, and the two sides of a
// replacement search.
type Frontier struct {
	n     int
	words []int64 // bitmap, ceil(n/64) words, arena-backed
	list  []int32 // sparse compaction target, n entries, arena-backed
	tail  atomic.Int64
	cnt   atomic.Int64
	// collect marks sparse collection mode (adds also append to list);
	// full marks the all-of-[0,n) representation.
	collect bool
	full    bool
}

// NewFrontier returns an empty frontier over [0,n) with arena-backed
// storage (nil arena degrades to plain allocation, like every arena user).
// The struct itself is the only allocation a session pays; Resize within
// the grabbed capacity and all engine passes allocate nothing.
func NewFrontier(a *Arena, n int) *Frontier {
	f := &Frontier{n: n}
	f.words = a.Grab64((n + 63) / 64)
	// No zeroing needed: only slots written through the reservation
	// cursor since the last BeginCollect are ever read back.
	f.list = a.Grab32Cap(n)[:n]
	return f
}

// Free returns the frontier's storage to the arena.  The frontier must not
// be used afterwards.
func (f *Frontier) Free(a *Arena) {
	a.Release64(f.words)
	a.Release32(f.list)
	f.words, f.list = nil, nil
}

// Cap reports the vertex capacity Resize can grow to without new storage.
func (f *Frontier) Cap() int {
	c := cap(f.list)
	if w := 64 * cap(f.words); w < c {
		c = w
	}
	return c
}

// Resize re-views an empty frontier over [0,n); n must be within Cap().
// Emptiness is the standing invariant between uses (every consumer clears
// as it iterates), so no storage needs rezeroing.
func (f *Frontier) Resize(n int) {
	f.n = n
	f.words = f.words[:(n+63)/64]
	f.list = f.list[:n]
}

// Count returns the number of active vertices.
func (f *Frontier) Count() int64 { return f.cnt.Load() }

// Len returns the indexable length for At: n when full, the list length
// when sparse, 0 for a bitmap-only frontier (iterate via the engine
// kernels instead).
func (f *Frontier) Len() int {
	if f.full {
		return f.n
	}
	if f.collect {
		return int(f.tail.Load())
	}
	return 0
}

// At returns the i-th active vertex of a full or sparse frontier
// (i < Len()).  Sparse order is collection order — deterministic only for
// single-proc runs; consumers must not depend on it.
func (f *Frontier) At(i int) int32 {
	if f.full {
		return int32(i)
	}
	return f.list[i]
}

// Has reports whether v is active — the membership probe of the
// replacement-edge search, which uses a sparse-collected frontier as a
// combined BFS queue (the list, walked by index) and visited set (the
// bitmap).  The atomic load makes it safe alongside concurrent Adds.
func (f *Frontier) Has(v int32) bool {
	if f.full {
		return true
	}
	return atomic.LoadInt64(&f.words[v>>6])&(1<<uint(v&63)) != 0
}

// BeginCollect readies an empty frontier to receive Adds: sparse selects
// list collection (Len/At become valid), false bitmap-only.
func (f *Frontier) BeginCollect(sparse bool) {
	f.collect = sparse
	f.full = false
	f.tail.Store(0)
}

// SeedAll makes the frontier the full set [0,n) — label propagation's
// first round.  No bits are set: full-mode iteration needs none, and
// Clear is free.
func (f *Frontier) SeedAll() {
	f.full = true
	f.collect = false
	f.cnt.Store(int64(f.n))
}

// Add activates v.  Idempotent (the bitmap dedups) and safe from
// concurrent loop bodies; in sparse collection mode the deduplicated
// vertex is also appended to the list through the reservation cursor.
func (f *Frontier) Add(v int32) {
	if f.add(v, false) {
		f.cnt.Add(1)
	}
}

// add is Add without the occupancy bump, reporting whether v was newly
// activated — the engine bodies count activations in a chunk-local and
// fold them into cnt once per chunk, instead of paying an atomic add per
// activation.  seq selects plain bitmap stores for a single-proc runtime
// (the CAS loop's only job is racing other procs).  The list reservation
// cursor stays atomic either way: the flood collects bitmap-only, so
// appends come only through Add, where an uncontended add is nearly free.
func (f *Frontier) add(v int32, seq bool) bool {
	w, b := v>>6, uint(v&63)
	if seq {
		if f.words[w]&(1<<b) != 0 {
			return false
		}
		f.words[w] |= 1 << b
	} else {
		for {
			old := atomic.LoadInt64(&f.words[w])
			if old&(1<<b) != 0 {
				return false
			}
			if atomic.CompareAndSwapInt64(&f.words[w], old, old|(1<<b)) {
				break
			}
		}
	}
	if f.collect {
		f.list[f.tail.Add(1)-1] = v
	}
	return true
}

// Clear empties the frontier in O(active) — full mode drops the flag,
// sparse mode zeroes exactly the words its list entries touched, a
// bitmap-only frontier pays the word scan.  Orchestrator-only.
func (f *Frontier) Clear() {
	if f.full {
		f.full = false
	} else if f.collect {
		for _, v := range f.list[:f.tail.Load()] {
			f.words[v>>6] = 0
		}
		f.tail.Store(0)
	} else if f.cnt.Load() != 0 {
		clear(f.words)
	}
	f.collect = false
	f.cnt.Store(0)
}

// FrontierStats is the per-invocation accounting of FrontierPropagate:
// passes executed (Rounds — 1, or 2 when the flood leaves a residual),
// adjacency entries inspected across them (compare against 2m, one full
// read of the adjacency), and successful label writes (flood lowerings
// plus hook-pass links).
type FrontierStats struct {
	Rounds    int
	Inspected int64
	Lowered   int64
}

// FrontierPropagate labels every vertex with its component's minimum in
// at most two passes, hook-then-compress in the style of Liu–Tarjan's
// concurrent labeling and Afforest's finish pass:
//
//  1. Flood.  Every vertex of [0,n), ascending within each chunk,
//     compares labels across its incident edges: a larger neighbor label
//     is lowered to its own (push), a smaller one lowers the vertex
//     itself (pull).  New labels are visible immediately, so an id-local
//     chunk floods to its minimum in one in-order pass.  Only effects the
//     rest of the chunk's scan will not see activate a vertex in the
//     residual res, a bitmap which on meshes collapses to the chunk
//     boundaries.
//  2. Hook.  Labels only ever decrease and each is a vertex of the same
//     component with labels[v] ≤ v, so they form a valid union-find
//     forest; the flood leaves every unsettled edge incident to the
//     residual.  One hookResidual pass over it links each component's
//     trees and Compress flattens them to their roots, the component
//     minima.
//
// labels must enter as identity (or any such forest) and res empty, sized
// to len(labels).  The result is deterministic for any procs and
// schedule; the residual's size is schedule-dependent beyond one proc.
// Work is O(m·α(n)) on every shape, with no diameter term.  res is left
// empty.  onRound, when non-nil, observes each pass's occupancy before it
// runs — [n, residual] (the trace hook); pass nil on the tracing-off
// path.
func FrontierPropagate(rt *Runtime, labels []int32, csr *graph.CSR, res *Frontier, onRound func(occ int64)) FrontierStats {
	n := len(labels)
	st := FrontierStats{Rounds: 1}
	if onRound != nil {
		onRound(int64(n))
	}
	res.BeginCollect(false)
	st.Inspected, st.Lowered = flood(rt, labels, csr, n, res)
	if res.Count() == 0 {
		return st
	}
	st.Rounds++
	if onRound != nil {
		onRound(res.Count())
	}
	insp, hk := hookResidual(rt, labels, csr, res)
	st.Inspected += insp
	st.Lowered += hk
	Compress(rt, labels)
	return st
}

// flood is FrontierPropagate's first pass over all of [0,n), collecting
// the residual into dst; it returns the adjacency entries inspected and
// the lowerings made.  Re-activation is mostly elided: chunks iterate
// ascending, so a neighbor u with v < u < hi is provably visited later in
// this very chunk and will pull v's improvement itself — no frontier
// write needed.  Only out-of-chunk effects activate: pushes to
// already-passed or foreign-chunk vertices, and a re-announce of v when a
// pull left an already-scanned out-of-chunk neighbor (which keeps its
// label — maxOut tracks the largest such) above v's final label.  The
// pass is ~2m inspections — the engine's dominant cost — so the
// single-proc variant is the same loop rewritten over plain loads and
// stores: shaving the atomics off this inner loop is what keeps the
// engine within reach of the union-find kernels on mesh families at
// procs=1.  Exactly one of the two bodies is materialized.
func flood(rt *Runtime, labels []int32, csr *graph.CSR, n int, dst *Frontier) (inspected, lowered int64) {
	var insp, low atomic.Int64
	var body func(lo, hi, c int)
	if rt.Procs() == 1 {
		body = func(lo, hi, _ int) {
			var li, ll, act int64
			for v := int32(lo); v < int32(hi); v++ {
				lv := labels[v]
				off, end := csr.Off[v], csr.Off[v+1]
				li += end - off
				maxOut := int32(-1)
				for i := off; i < end; i++ {
					u := csr.Nbr[i]
					lu := labels[u]
					if lu == lv {
						if (u < v || int(u) >= hi) && lu > maxOut {
							maxOut = lu
						}
						continue
					}
					if lu > lv {
						labels[u] = lv
						ll++
						if u > v && int(u) < hi {
							continue // visited later in this chunk: it pulls from v
						}
						if dst.add(u, true) {
							act++
						}
						continue
					}
					labels[v] = lu
					lv = lu
					ll++
					if (u < v || int(u) >= hi) && lu > maxOut {
						maxOut = lu
					}
				}
				if maxOut > lv {
					if dst.add(v, true) {
						act++
					}
				}
			}
			insp.Add(li)
			low.Add(ll)
			if act > 0 {
				dst.cnt.Add(act)
			}
		}
	} else {
		body = func(lo, hi, _ int) {
			var li, ll, act int64
			for v := int32(lo); v < int32(hi); v++ {
				lv := atomic.LoadInt32(&labels[v])
				off, end := csr.Off[v], csr.Off[v+1]
				li += end - off
				maxOut := int32(-1)
				for i := off; i < end; i++ {
					u := csr.Nbr[i]
					lu := atomic.LoadInt32(&labels[u])
					if lu == lv {
						if (u < v || int(u) >= hi) && lu > maxOut {
							maxOut = lu
						}
						continue
					}
					if lu > lv {
						if lowerMin(labels, u, lv) {
							ll++
							if u > v && int(u) < hi {
								continue // visited later in this chunk: it pulls from v
							}
							if dst.add(u, false) {
								act++
							}
						}
						continue
					}
					if lowerMin(labels, v, lu) {
						ll++
					}
					if nl := atomic.LoadInt32(&labels[v]); nl < lv {
						lv = nl
					}
					if (u < v || int(u) >= hi) && lu > maxOut {
						maxOut = lu
					}
				}
				if maxOut > lv {
					if dst.add(v, false) {
						act++
					}
				}
			}
			insp.Add(li)
			low.Add(ll)
			if act > 0 {
				dst.cnt.Add(act)
			}
		}
	}
	rt.ForSpans(n, body)
	return insp.Load(), low.Load()
}

// finishVertex is the per-vertex body of the sampling finish pass, shared
// by SkipUnite (which drives it over the full vertex range) and
// FrontierPropagate's hook pass (which drives it from the residual
// bitmap): neighbors sharing the vertex's cached root pv are dismissed
// with one load, the rest go through UniteRem (both callers want labels
// only, which the splicing union provides).  filtered selects the
// direction-filtered mode (only u > v processed); otherwise every
// neighbor is processed (SkipUnite's majority mode, whose caller skips
// majority vertices before calling, and the hook pass).
func finishVertex(p []int32, csr *graph.CSR, filtered bool, v, pv int32) (att, hk int64) {
	off, end := csr.Off[v], csr.Off[v+1]
	if !filtered {
		for i := off; i < end; i++ {
			u := csr.Nbr[i]
			if u == v || atomic.LoadInt32(&p[u]) == pv {
				continue
			}
			att++
			if UniteRem(p, v, u) {
				hk++
			}
		}
	} else {
		for i := off; i < end; i++ {
			u := csr.Nbr[i]
			if u <= v || atomic.LoadInt32(&p[u]) == pv {
				continue
			}
			att++
			if UniteRem(p, v, u) {
				hk++
			}
		}
	}
	return att, hk
}

// finishSpan applies finishVertex to the vertex range [lo,hi), with the
// majority skip test inline (one sequential root load per vertex — the
// full-frontier mode of the finish kernel).
func finishSpan(p []int32, csr *graph.CSR, maj int32, lo, hi int) (att, hk int64) {
	for v := lo; v < hi; v++ {
		pv := atomic.LoadInt32(&p[v])
		if pv == maj {
			continue
		}
		a, h := finishVertex(p, csr, maj < 0, int32(v), pv)
		att += a
		hk += h
	}
	return att, hk
}

// hookResidual is FrontierPropagate's hook pass: exactly the residual
// bitmap's vertices run finishVertex over all their neighbors, so the
// work is Σ deg over the residual instead of n + Σ deg over everything.
// Sound because the flood leaves every unsettled edge incident to the
// residual; the fixpoint then equals a full union pass.  Each word is
// consumed (zeroed) as it is scanned, leaving f empty.  Returns the
// adjacency entries read and the hooks.  One body goes to ForSpans
// directly, so a call allocates only that closure and its totals — which
// keeps the engine inside the warm path's allocation budget.
func hookResidual(rt *Runtime, p []int32, csr *graph.CSR, f *Frontier) (inspected, hooks int64) {
	var tot [2]atomic.Int64
	ws := f.words
	rt.ForSpans(len(ws), func(lo, hi, _ int) {
		var insp, hk int64
		for w := lo; w < hi; w++ {
			x := ws[w]
			if x == 0 {
				continue
			}
			// Consume the word: each is owned by exactly one chunk and no
			// Adds run during the pass, so the plain store is race-free.
			ws[w] = 0
			base := int32(w << 6)
			for x != 0 {
				v := base + int32(bits.TrailingZeros64(uint64(x)))
				x &= x - 1
				_, h := finishVertex(p, csr, false, v, atomic.LoadInt32(&p[v]))
				insp += csr.Off[v+1] - csr.Off[v]
				hk += h
			}
		}
		tot[0].Add(insp)
		tot[1].Add(hk)
	})
	f.cnt.Store(0)
	return tot[0].Load(), tot[1].Load()
}
