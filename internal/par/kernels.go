// Lock-free kernels for the paper's primitives on flat int32 arrays.  All of
// them tolerate arbitrary interleavings: hooking uses compare-and-swap with a
// monotone direction (roots only ever acquire strictly smaller parents), so
// the parent forest stays acyclic and converges to min-labeled components no
// matter which writer wins — the ARBITRARY CRCW obligation realized with
// hardware primitives.
package par

import (
	"sync/atomic"

	"parcc/internal/graph"
)

// Find returns the root of v in the parent array p, compressing the visited
// path by halving (each step CASes v's parent to its grandparent).  Safe
// under concurrent Find/Unite: parents only ever decrease, so chases
// terminate and failed CASes are benign.
func Find(p []int32, v int32) int32 {
	for {
		pv := atomic.LoadInt32(&p[v])
		if pv == v {
			return v
		}
		gp := atomic.LoadInt32(&p[pv])
		if gp == pv {
			return pv
		}
		// Path halving; a lost race just means someone else lowered it.
		atomic.CompareAndSwapInt32(&p[v], pv, gp)
		v = gp
	}
}

// Unite links the sets of u and v by hooking the larger root under the
// smaller (unite-by-min), retrying on contention.  It reports whether the
// two were in distinct sets and, if so, the root it hooked: the CAS that
// wins the merge installs p[ru] = rv with ru > rv, so ru is exactly the
// root that stopped being one.  Because roots only acquire strictly
// smaller parents, the forest is acyclic under any interleaving and every
// set's root is its minimum element — which makes the fixpoint of a Unite
// pass over an edge list deterministic: p[v] chases to the minimum vertex
// of v's component.
func Unite(p []int32, u, v int32) (int32, bool) {
	for {
		ru, rv := Find(p, u), Find(p, v)
		if ru == rv {
			return 0, false
		}
		if ru < rv {
			ru, rv = rv, ru
		}
		// ru > rv: hook ru under rv if ru is still a root.
		if atomic.CompareAndSwapInt32(&p[ru], ru, rv) {
			return ru, true
		}
	}
}

// UniteRem links the sets of x and y with Rem's interleaved walk and
// splicing, linking by index: the walk steps whichever side has the larger
// parent, and either hooks that side under the other's parent (when it is
// a root) or splices it there (lowering its parent to the other's) and
// climbs on from its old parent, until both sides share a parent.
// Parents only ever decrease and stay ≤ their vertex, so every tree's
// root is its minimum and a pass of UniteRem over an edge list followed
// by Compress labels each vertex with its component minimum under any
// schedule — the labels Unite's pass produces.  Intra-set edges on a
// flat forest cost two loads and no write: Unite's path halving issues a
// CAS on every step of both finds, UniteRem writes only where a pointer
// moves.  It reports whether this call hooked a root; a hook always joins
// two distinct trees, so over a pass the hooks total exactly the merges.
//
// It is labels-only.  A splice moves a subtree of x's tree into y's tree
// before the operation ends, so a concurrent union can find its endpoints
// already joined through the subtree in transit and hook elsewhere: the
// edges whose call hooked need not form a spanning forest, and the hooked
// root is not the root x's set lost.  UniteBatch, whose marks must be a
// spanning forest and whose loser roots must be exact, keeps Unite.
func UniteRem(p []int32, x, y int32) bool {
	for {
		px, py := atomic.LoadInt32(&p[x]), atomic.LoadInt32(&p[y])
		if px == py {
			return false
		}
		if px < py {
			x, y, px, py = y, x, py, px
		}
		// px > py: the smaller parent wins.
		if px == x {
			if atomic.CompareAndSwapInt32(&p[x], x, py) {
				return true
			}
			continue // x stopped being a root: re-read it
		}
		// Splice: one CAS attempt, since a lost race means another
		// operation already moved x's parent lower; either way the walk
		// climbs on from the parent x had.
		atomic.CompareAndSwapInt32(&p[x], px, py)
		x = px
	}
}

// Compress is full pointer jumping: after it returns, p[v] is the root of
// v's tree for every v.  It works on any acyclic parent forest (parent
// pointers need not decrease) because concurrent writes only replace a
// pointer with that vertex's root, which preserves root reachability and
// only shortens chases.
func Compress(e Exec, p []int32) {
	e.Run(len(p), func(v int) {
		// Two-try fast path: in the forests this runs on (post-Unite, or
		// re-flattening after an incremental batch) almost every vertex is
		// a root or points at one, so the common cases resolve from the
		// loads alone — a root needs no write, and a vertex whose parent
		// is a root is already flat.  Only depth ≥ 2 chains pay the chase
		// and the store.
		pv := atomic.LoadInt32(&p[v])
		if pv == int32(v) {
			return
		}
		gp := atomic.LoadInt32(&p[pv])
		if gp == pv {
			return
		}
		atomic.StoreInt32(&p[v], chase(p, gp))
	})
}

// chase follows parent pointers to the root without writing.
func chase(p []int32, v int32) int32 {
	for {
		pv := atomic.LoadInt32(&p[v])
		if pv == v {
			return v
		}
		v = pv
	}
}

// PropagateMin runs synchronous minimum-label propagation over the edge list
// to fixpoint: each round every edge CAS-lowers both endpoint labels to the
// other side's, until no label moves.  Labels must be initialized by the
// caller (identity for component labeling).  Returns the number of rounds —
// Θ(diameter) on a connected graph.  The fixpoint (per-component minimum of
// the initial labels) is deterministic.
func PropagateMin(e Exec, edges []graph.Edge, labels []int32) int {
	rounds := 0
	changed := int32(1)
	for changed != 0 {
		changed = 0
		rounds++
		e.Run(len(edges), func(i int) {
			ed := edges[i]
			a := lowerMin(labels, ed.U, atomic.LoadInt32(&labels[ed.V]))
			b := lowerMin(labels, ed.V, atomic.LoadInt32(&labels[ed.U]))
			if a || b {
				atomic.StoreInt32(&changed, 1)
			}
		})
	}
	return rounds
}

// lowerMin CAS-lowers labels[v] to x if x is smaller; reports whether it did.
func lowerMin(labels []int32, v int32, x int32) bool {
	for {
		cur := atomic.LoadInt32(&labels[v])
		if x >= cur {
			return false
		}
		if atomic.CompareAndSwapInt32(&labels[v], cur, x) {
			return true
		}
	}
}

// CompactIndices returns the indices i in [0,n) with keep(i), in increasing
// order — the parallel compaction primitive (count per block, exclusive
// scan, scatter), writing the indices directly (no materialized identity
// array).  Output is identical to the sequential filter for any procs.  The
// count and scatter passes go through runCoarse: each block is one
// schedulable task, so they actually spread across the pool (a plain Run
// over the handful of block indices would be folded into a single
// grain-sized chunk and silently serialize).
func CompactIndices(e Exec, n int, keep func(i int) bool) []int32 {
	block := 4096
	if e != nil {
		if b := (n + 8*e.Procs() - 1) / (8 * e.Procs()); b > block {
			block = b
		}
	}
	nblocks := (n + block - 1) / block
	if nblocks <= 1 || e == nil || e.Procs() == 1 {
		out := make([]int32, 0, 16)
		for i := 0; i < n; i++ {
			if keep(i) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	counts := make([]int64, nblocks)
	runCoarse(e, nblocks, func(c int) {
		lo, hi := c*block, min((c+1)*block, n)
		var k int64
		for i := lo; i < hi; i++ {
			if keep(i) {
				k++
			}
		}
		counts[c] = k
	})
	var total int64
	for c, k := range counts {
		counts[c] = total
		total += k
	}
	out := make([]int32, total)
	runCoarse(e, nblocks, func(c int) {
		lo, hi := c*block, min((c+1)*block, n)
		at := counts[c]
		for i := lo; i < hi; i++ {
			if keep(i) {
				out[at] = int32(i)
				at++
			}
		}
	})
	return out
}
