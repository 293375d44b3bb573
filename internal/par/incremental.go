package par

import (
	"sync/atomic"

	"parcc/internal/graph"
)

// Incremental-connectivity kernel: the batched form of the CAS union-find
// used by Solver.AddEdges.  An uncharged serving helper (no PRAM cost is
// booked).

// UniteBatch unites the endpoints of every non-loop edge of batch on e and
// returns the number of unions that actually merged two distinct sets —
// the component-count delta the caller maintains.  O(|batch|·α) amortized
// work, parallel over the batch; the merge count is exact under any
// interleaving because each union reports success precisely for the
// winning CAS of its merge.  The resulting partition (and, at quiescence,
// every root, which is its component's minimum reachable representative)
// is deterministic for any procs and schedule; concurrent Find/Unite on
// the same forest is safe, concurrent readers that bypass Find are not.
//
// Per-edge outcomes are reported too: marks[i] is set true exactly when
// batch[i]'s union merged two distinct sets (false for loops, duplicates,
// and lost races — every slot is written, so a recycled buffer needs no
// clearing).  The marked subset is a valid spanning-forest extension
// under any interleaving: each winning union connected two components
// that were distinct at its linearization point, so the marked edges are
// acyclic and span exactly what the batch merged — the property the live
// session's DynForest builds its forest flags from.
//
// When losers is non-nil (capacity len(batch)), the hooked (losing) root
// of every merge is stored in its prefix, whose length is the return
// value.  The prefix is unordered (slots are reserved with an atomic
// cursor) and duplicate-free within the batch — a root can lose at most
// once, because the winning CAS retires it from roothood forever.  This is
// the bookkeeping feed of the copy-on-write snapshot mirror: the caller
// charges each losing root's member list against the winner without
// scanning the forest.
func UniteBatch(e Exec, p []int32, batch []graph.Edge, marks []bool, losers []int32) int {
	var merges atomic.Int64
	e.Run(len(batch), func(i int) {
		ed := batch[i]
		var ru int32
		ok := false
		if ed.U != ed.V {
			ru, ok = Unite(p, ed.U, ed.V)
		}
		marks[i] = ok
		if ok {
			k := merges.Add(1)
			if losers != nil {
				losers[k-1] = ru
			}
		}
	})
	return int(merges.Load())
}
