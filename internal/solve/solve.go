// Package solve defines the solve context threaded from a parcc.Solver
// down through every algorithm layer: the PRAM machine doing the cost
// accounting, the scratch arena recycling working arrays across solves,
// and the trace recorder.  Each layer has one entry point, taking the
// context: a one-shot caller passes solve.New(m) (nil arena, so every
// Grab is a plain make), and a Solver passes its persistent context,
// turning the same code paths near-zero-alloc on repeat solves.
package solve

import (
	"slices"

	"parcc/internal/graph"
	"parcc/internal/obs"
	"parcc/internal/par"
	"parcc/internal/pram"
	"parcc/internal/prim"
)

// Ctx carries the borrowed per-solve state.  The machine is always
// non-nil; a nil Arena degrades every Grab to make (one-shot mode).  A
// Ctx is owned by the session's single orchestrating goroutine and must
// never be shared across concurrent solves — the same discipline as the
// arena and machine it wraps.  The Grab/Release accessors are uncharged (scratch management
// is serving infrastructure, not PRAM work); the charged helper
// (VertexSet, via Contract) says so explicitly.
type Ctx struct {
	M *pram.Machine
	A *par.Arena

	// Rec receives phase spans and counters from the algorithm layers.
	// Nil means tracing is off — obs.Recorder methods no-op on nil, so the
	// layers call it unconditionally (the nil-safety contract of
	// internal/obs).
	Rec *obs.Recorder
}

// New returns a bare one-shot context around m: no arena, no recorder.
func New(m *pram.Machine) *Ctx { return &Ctx{M: m} }

// WithArena installs a scratch arena and returns c.
func (c *Ctx) WithArena(a *par.Arena) *Ctx { c.A = a; return c }

// WithRecorder installs a trace recorder (nil keeps tracing off) and
// returns c.
func (c *Ctx) WithRecorder(r *obs.Recorder) *Ctx { c.Rec = r; return c }

// Grab32 returns a zeroed []int32 of length n from the arena (or make).
func (c *Ctx) Grab32(n int) []int32 { return c.A.Grab32(n) }

// Grab32Cap returns an empty []int32 with capacity ≥ n.
func (c *Ctx) Grab32Cap(n int) []int32 { return c.A.Grab32Cap(n) }

// Release32 returns a Grab32/Grab32Cap buffer to the arena.
func (c *Ctx) Release32(s []int32) { c.A.Release32(s) }

// Grab64 returns a zeroed []int64 of length n from the arena (or make).
func (c *Ctx) Grab64(n int) []int64 { return c.A.Grab64(n) }

// Grab64Cap returns an empty []int64 with capacity ≥ n (no zeroing).
func (c *Ctx) Grab64Cap(n int) []int64 { return c.A.Grab64Cap(n) }

// Release64 returns a Grab64 buffer to the arena.
func (c *Ctx) Release64(s []int64) { c.A.Release64(s) }

// GrabEdges returns a zeroed []graph.Edge of length n from the arena.
func (c *Ctx) GrabEdges(n int) []graph.Edge { return c.A.GrabEdges(n) }

// GrabEdgesCap returns an empty edge slice with capacity ≥ n.
func (c *Ctx) GrabEdgesCap(n int) []graph.Edge { return c.A.GrabEdgesCap(n) }

// ReleaseEdges returns a GrabEdges/GrabEdgesCap buffer to the arena.
func (c *Ctx) ReleaseEdges(s []graph.Edge) { c.A.ReleaseEdges(s) }

// CopyEdges returns an arena-backed copy of E (the pass-by-value edge-set
// convention used throughout the stages).
func (c *Ctx) CopyEdges(E []graph.Edge) []graph.Edge {
	out := c.GrabEdges(len(E))
	copy(out, E)
	return out
}

// VertexSet returns the distinct endpoints of E in increasing order — the
// one shared implementation of the V(E) primitive (previously duplicated,
// and map-ordered in stage1, which made sequential runs nondeterministic).
// The charged cost is the approximate-compaction contract over the edge
// set: O(log* n) time, O(|E|) work.  The actual work tracks the charge: a
// flag-array sweep runs only when the edge set is dense enough that O(n) =
// O(|E|); sparse edge sets take a sort-dedup of the 2|E| endpoints, whose
// log factor is uncharged like the other sort-backed contracts in
// internal/prim.  Both paths yield the same sorted list on every backend.
func VertexSet(c *Ctx, n int, E []graph.Edge) []int32 {
	m := c.M
	var out []int32
	m.Contract(prim.LogStar(n)+1, int64(len(E)), func() {
		if 16*len(E) >= n {
			flag := c.Grab32(n)
			rt := m.Runtime()
			rt.Run(len(E), func(i int) {
				pram.SetFlag(flag, int(E[i].U))
				pram.SetFlag(flag, int(E[i].V))
			})
			out = par.CompactIndices(rt, n, func(v int) bool { return flag[v] != 0 })
			c.Release32(flag)
			return
		}
		ends := c.Grab32Cap(2 * len(E))[:2*len(E)]
		for i, ed := range E {
			ends[2*i], ends[2*i+1] = ed.U, ed.V
		}
		slices.Sort(ends)
		for i, v := range ends {
			if i == 0 || ends[i-1] != v {
				out = append(out, v)
			}
		}
		c.Release32(ends)
	})
	return out
}
