// Lock-free kernels for the paper's primitives on flat int32 arrays.  All of
// them tolerate arbitrary interleavings: hooking uses compare-and-swap with a
// monotone direction (roots only ever acquire strictly smaller parents), so
// the parent forest stays acyclic and converges to min-labeled components no
// matter which writer wins — the ARBITRARY CRCW obligation realized with
// hardware primitives.
package par

import "sync/atomic"

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
// climbs on from its old parent, until both sides share a parent.  It
// returns the root this call hooked, or −1 when it hooked none.  Intra-set
// edges on a flat forest cost two loads and no write: Unite's path
// halving issues a CAS on every step of both finds, UniteRem writes only
// where a pointer moves.
//
// Soundness needs less than "parents stay ≤ their vertex", which holds
// only on a fresh forest.  The live session's forest breaks it after a
// split: ReplacementSearch relabels the split-off side to its seed
// endpoint, so p[4] = 7 is possible.  The walk needs only this weaker
// invariant, which every writer of the live forest keeps: only roots and
// hooked vertices are ever named by a parent pointer, and their chains
// strictly decrease; leaves may point up.  A leaf's parent is read only
// as the walk's first step, every later pointer lies on a decreasing
// chain, and a hook or splice stores such a pointer below the vertex it
// moves, so no cycle forms.  From an identity forest, a pass of UniteRem
// over an edge list followed by Compress labels each vertex with its
// component minimum under any schedule — the labels Unite's pass
// produces.  A leaf that points up is why only a forest rebuilt from
// identity uses the one-pass ascending flatten (Components, AttachForest,
// RebuildRegion's region): it reads a leaf's parent before the parent is
// flat (with 4 → 7 → 2 → 0 it labels 4 with 2).  The live path needs no
// flatten pass at all: on one worker (below) a call moves x's pointer
// only when the same call hooks x's tree root, so the vertices whose
// root changed are exactly the members of the roots its batches hooked,
// and the snapshot mirror's flush rewrites those parents as it relabels
// them.
//
// seq selects the one-worker schedule: when no other worker can touch p,
// the hook and the splice are plain stores.  That schedule is one of the
// "any schedule" above, so the walk and its labels are unchanged; it only
// drops the locked CAS, which costs several plain stores.  Callers pass a
// constant, and the body inlines into their edge loops, so the other
// branch compiles away.  On one worker every hooking call joins two whole
// sets — a splice moves a subtree only until the same call's hook — so
// over a pass the calls that hooked are exactly a spanning forest of the
// edges and each returned root is exactly the root its set lost: the
// bookkeeping UniteBatch reports.
//
// Under concurrency the result is labels-only.  A splice moves a subtree
// of x's tree into y's tree before the operation ends, so a concurrent
// union can find its endpoints already joined through the subtree in
// transit and hook elsewhere: the hooks still total exactly the merges,
// but the edges whose call hooked need not form a spanning forest, and
// the hooked root is not the root x's set lost.
func UniteRem(p []int32, x, y int32, seq bool) int32 {
	for {
		px, py := atomic.LoadInt32(&p[x]), atomic.LoadInt32(&p[y])
		if px == py {
			return -1
		}
		if px < py {
			x, y, px, py = y, x, py, px
		}
		// px > py: x's parent drops to the smaller one — a hook when x
		// is a root, a splice otherwise.  A lost hook re-reads x; a
		// splice takes one attempt, since a lost race means another
		// operation already moved x's parent lower, and either way the
		// walk climbs on from the parent x had.
		ok := seq || atomic.CompareAndSwapInt32(&p[x], px, py)
		if seq {
			p[x] = py
		}
		if px != x {
			x = px
		} else if ok {
			return x
		}
	}
}

// Compress is full pointer jumping: after it returns, p[v] is the root of
// v's tree for every v.  It works on any acyclic parent forest (parent
// pointers need not decrease) because concurrent writes only replace a
// pointer with that vertex's root, which preserves root reachability and
// only shortens chases.
func Compress(rt *Runtime, p []int32) {
	rt.Run(len(p), func(v int) {
		// Two-try fast path: in the forests this runs on (a solve's
		// post-union forest) almost every vertex is a root or points at
		// one, so the common cases resolve from the loads alone — a root
		// needs no write, and a vertex whose parent is a root is already
		// flat.  Only depth ≥ 2 chains pay the chase and the store.
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
// array).  Output is identical to the sequential filter for any procs, and
// a one-proc or nil runtime runs that filter.  The count and scatter
// passes go through RunCoarse: each block is one schedulable task, so they
// actually spread across the pool (a plain Run over the handful of block
// indices would be folded into a single grain-sized chunk and silently
// serialize).
func CompactIndices(rt *Runtime, n int, keep func(i int) bool) []int32 {
	procs := rt.Procs()
	block := max(4096, (n+8*procs-1)/(8*procs))
	nblocks := (n + block - 1) / block
	if nblocks <= 1 || procs == 1 {
		out := make([]int32, 0, 16)
		for i := 0; i < n; i++ {
			if keep(i) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	counts := make([]int64, nblocks)
	rt.RunCoarse(nblocks, func(c int) {
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
	rt.RunCoarse(nblocks, func(c int) {
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
