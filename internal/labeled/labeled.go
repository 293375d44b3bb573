// Package labeled implements the labeled digraph of §2.1: the global parent
// field v.p over all vertices, plus the shared subroutines ALTER and
// SHORTCUT that every stage of the algorithm uses.  Arcs (v, v.p) form the
// forest; a vertex with v.p == v is a root; trees of height ≤ 1 are flat.
//
// The package also exposes the structural invariants the paper proves
// (heights, acyclicity, edges-on-roots) as checkable predicates so that
// tests can assert Lemmas 4.5–4.9/4.21/5.22 directly on running state.
package labeled

import (
	"fmt"

	"parcc/internal/graph"
	"parcc/internal/par"
	"parcc/internal/pram"
)

// Forest is the labeled digraph: P[v] is the parent of v.
type Forest struct {
	P     []int32
	tmp   []int32    // scratch for synchronous shortcuts
	spans []int64    // Alter's per-span (start, end of packed run) pairs
	ar    *par.Arena // optional arena backing P, tmp and spans (session solves)
}

// New returns the initial forest where every vertex is its own parent.
func New(n int) *Forest {
	return NewOn(nil, n)
}

// NewOn is New with the parent array (and shortcut scratch) drawn from an
// arena, for session solves; release with Free when the solve is done.  A
// nil arena is equivalent to New.
func NewOn(a *par.Arena, n int) *Forest {
	f := &Forest{P: a.Grab32(n), ar: a}
	for i := range f.P {
		f.P[i] = int32(i)
	}
	return f
}

// Free returns the forest's buffers to the arena it was built on (no-op
// for plain New forests).  The forest must not be used afterwards.
func (f *Forest) Free() {
	if f.ar == nil {
		return
	}
	f.ar.Release32(f.P)
	if f.tmp != nil {
		f.ar.Release32(f.tmp)
	}
	if f.spans != nil {
		f.ar.Release64(f.spans)
	}
	f.P, f.tmp, f.spans = nil, nil, nil
}

// Len returns the number of vertices.
func (f *Forest) Len() int { return len(f.P) }

// IsRoot reports whether v is a root.
func (f *Forest) IsRoot(v int32) bool { return f.P[v] == v }

// Root chases parent pointers from v to the root of its tree.
func (f *Forest) Root(v int32) int32 {
	for f.P[v] != v {
		v = f.P[v]
	}
	return v
}

// SnapshotOfInto copies the parents of the listed vertices into dst, a
// caller-owned buffer of len(vs) (the paper's revert copies pointers for
// v ∈ V(G′), Lemma 7.17).
func (f *Forest) SnapshotOfInto(vs, dst []int32) {
	for i, v := range vs {
		dst[i] = f.P[v]
	}
}

// RestoreOf undoes SnapshotOfInto.
func (f *Forest) RestoreOf(vs []int32, s []int32) {
	for i, v := range vs {
		f.P[v] = s[i]
	}
}

// Alter is ALTER(E) of §4.2: replace each edge (u,v) by (u.p, v.p) and
// remove loops.  The surviving edges are returned compacted, in their
// original order, in E's own backing (the paper keeps holes and compacts
// with Lemma 4.2 where needed; folding the filter into a second step
// charges the same O(|E|) work and O(1) time).  One pass rewrites each
// span's edges and packs its survivors to the span's front; the compaction
// step then moves the packed runs down in span order.  Nothing is
// allocated per call.
func Alter(m *pram.Machine, f *Forest, E []graph.Edge) []graph.Edge {
	p := f.P
	n := len(E)
	sp := f.spanScratch(2 * m.Spans(n))
	m.ForRange(n, 1, func(lo, hi, c int) {
		k := lo
		for i := lo; i < hi; i++ {
			if u, v := p[E[i].U], p[E[i].V]; u != v {
				E[k] = graph.Edge{U: u, V: v}
				k++
			}
		}
		sp[2*c], sp[2*c+1] = int64(lo), int64(k)
	})
	k := 0
	m.Contract(1, int64(n), func() {
		// Span c's run ends at or before span c+1 starts and never moves
		// up, so moving the runs in span order overwrites only runs
		// already moved.
		for c := 0; c < len(sp)/2; c++ {
			k += copy(E[k:], E[sp[2*c]:sp[2*c+1]])
		}
	})
	return E[:k]
}

// AlterKeep replaces endpoints by parents but keeps loops in place, for the
// call sites (Stage 2/3) where the paper explicitly retains loops.
func AlterKeep(m *pram.Machine, f *Forest, E []graph.Edge) {
	p := f.P
	m.ForRange(len(E), 1, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			E[i] = graph.Edge{U: p[E[i].U], V: p[E[i].V]}
		}
	})
}

// Shortcut is SHORTCUT(V): v.p = v.p.p for each listed vertex.  PRAM steps
// are synchronous — a step's reads see the previous step's state — so the
// grandparents are gathered into scratch before any cell is written; without
// this, intra-step cascades would compress paths faster than the model
// allows and corrupt the time accounting.  The gather and the write are two
// steps and two passes (the write must wait for every gather).
func Shortcut(m *pram.Machine, f *Forest, vs []int32) {
	p := f.P
	tmp := f.scratch(len(vs))
	m.ForRange(len(vs), 1, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			tmp[i] = p[p[vs[i]]]
		}
	})
	m.ForRange(len(vs), 1, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			if pram.Load32(p, int(vs[i])) != tmp[i] {
				pram.Store32(p, int(vs[i]), tmp[i])
			}
		}
	})
}

// ShortcutAll applies v.p = v.p.p to every vertex (synchronously; see
// Shortcut).
func ShortcutAll(m *pram.Machine, f *Forest) {
	p := f.P
	tmp := f.scratch(len(p))
	m.ForRange(len(p), 1, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			tmp[i] = p[p[i]]
		}
	})
	m.ForRange(len(p), 1, func(lo, hi, _ int) {
		copy(p[lo:hi], tmp[lo:hi])
	})
}

// FlattenAll shortcuts every vertex until all trees are flat, charging one
// round per iteration.  Rounds are O(log maxHeight).
func FlattenAll(m *pram.Machine, f *Forest) {
	p := f.P
	tmp := f.scratch(len(p))
	// The loop bodies are hoisted so the rounds share two closure values
	// instead of allocating fresh ones per iteration (they capture only
	// loop-invariant variables).
	flag := []int32{0}
	gather := func(lo, hi, _ int) {
		moved := false
		for i := lo; i < hi; i++ {
			pv := p[i]
			gp := p[pv]
			moved = moved || gp != pv
			tmp[i] = gp
		}
		if moved {
			pram.SetFlag(flag, 0)
		}
	}
	write := func(lo, hi, _ int) {
		copy(p[lo:hi], tmp[lo:hi])
	}
	for {
		flag[0] = 0
		m.ForRange(len(p), 1, gather)
		m.ForRange(len(p), 1, write)
		if flag[0] == 0 {
			return
		}
	}
}

// spanScratch returns Alter's reusable per-span buffer of k slots.
func (f *Forest) spanScratch(k int) []int64 {
	if cap(f.spans) < k {
		if f.ar != nil && f.spans != nil {
			f.ar.Release64(f.spans)
		}
		f.spans = f.ar.Grab64(k)
	}
	return f.spans[:k]
}

// scratch returns a reusable buffer of at least k parent slots.  Forest
// methods are orchestrated from a single goroutine, so one buffer suffices.
func (f *Forest) scratch(k int) []int32 {
	if cap(f.tmp) < k {
		if f.ar != nil && f.tmp != nil {
			f.ar.Release32(f.tmp)
		}
		f.tmp = f.ar.Grab32(k)
	}
	return f.tmp[:k]
}

// FlatLabelsInto hands off a flat forest (every parent a root, as
// FlattenAll leaves it) as the solve's result: it copies P into dst (a
// short dst is replaced by a fresh array) and counts the self-parented
// roots in the same pass, giving each vertex's component label and the
// number of components.  An uncharged output helper, like Labels, which
// also chases the roots of a forest that is not flat.
func (f *Forest) FlatLabelsInto(dst []int32) ([]int32, int) {
	out := dst
	if cap(out) < len(f.P) {
		out = make([]int32, len(f.P))
	}
	out = out[:len(f.P)]
	roots := 0
	for v, p := range f.P {
		out[v] = p
		if p == int32(v) {
			roots++
		}
	}
	return out, roots
}

// Labels returns the final component labels: the root of each vertex, on
// any forest, flat or not.  This is an output helper (memoized
// pointer-chase), not a charged PRAM step.  Scratch comes from the
// forest's arena when it has one.
func (f *Forest) Labels() []int32 {
	n := len(f.P)
	out := make([]int32, n)
	state := f.ar.Grab32(n) // 0 unvisited, 1 done, 2 on stack
	stack := make([]int32, 0, 64)
	for v := 0; v < n; v++ {
		if state[v] == 1 {
			continue
		}
		x := int32(v)
		stack = stack[:0]
		for state[x] == 0 && f.P[x] != x {
			stack = append(stack, x)
			state[x] = 2 // on stack
			x = f.P[x]
			if state[x] == 2 {
				// Defensive: a cycle among non-roots would be a bug in the
				// algorithms; treat the current vertex as the representative.
				break
			}
		}
		var root int32
		if state[x] == 1 {
			root = out[x]
		} else {
			root = x
			out[x] = x
			state[x] = 1
		}
		for _, y := range stack {
			out[y] = root
			state[y] = 1
		}
	}
	f.ar.Release32(state)
	return out
}

// MaxHeight returns the maximum tree height (0 for singleton trees, per the
// paper's definition).  Test helper; uncharged.
func (f *Forest) MaxHeight() int {
	depth := make([]int32, len(f.P))
	for i := range depth {
		depth[i] = -1
	}
	var h int
	var chase func(v int32) int32
	chase = func(v int32) int32 {
		if depth[v] >= 0 {
			return depth[v]
		}
		if f.P[v] == v {
			depth[v] = 0
			return 0
		}
		depth[v] = chase(f.P[v]) + 1
		return depth[v]
	}
	for v := range f.P {
		d := int(chase(int32(v)))
		if d > h {
			h = d
		}
	}
	return h
}

// CheckAcyclic verifies that the only cycles are self-loops at roots.
func (f *Forest) CheckAcyclic() error {
	n := len(f.P)
	state := make([]int8, n)
	for v := 0; v < n; v++ {
		x := int32(v)
		var path []int32
		for state[x] == 0 {
			if f.P[x] == x {
				break
			}
			state[x] = 2
			path = append(path, x)
			x = f.P[x]
			if state[x] == 2 {
				return fmt.Errorf("cycle through non-root vertex %d", x)
			}
		}
		for _, y := range path {
			state[y] = 1
		}
	}
	return nil
}

// CheckEdgesOnRoots verifies the Lemma 4.9/4.21 postcondition that both ends
// of every edge are roots.
func CheckEdgesOnRoots(f *Forest, E []graph.Edge) error {
	for i, e := range E {
		if !f.IsRoot(e.U) || !f.IsRoot(e.V) {
			return fmt.Errorf("edge %d=(%d,%d) has a non-root end (p=%d,%d)",
				i, e.U, e.V, f.P[e.U], f.P[e.V])
		}
	}
	return nil
}

// CheckSameComponent verifies contraction safety: every vertex's parent lies
// in the same ground-truth component.
func CheckSameComponent(f *Forest, truth []int32) error {
	for v, p := range f.P {
		if truth[v] != truth[p] {
			return fmt.Errorf("vertex %d (comp %d) points to parent %d (comp %d)",
				v, truth[v], p, truth[p])
		}
	}
	return nil
}

// Roots returns the current roots among the given vertices (or all vertices
// if vs is nil).  Uncharged helper for stage drivers and tests.
func (f *Forest) Roots(vs []int32) []int32 {
	var out []int32
	if vs == nil {
		for v := range f.P {
			if f.P[v] == int32(v) {
				out = append(out, int32(v))
			}
		}
		return out
	}
	for _, v := range vs {
		if f.P[v] == v {
			out = append(out, v)
		}
	}
	return out
}
