package par

import "parcc/internal/graph"

// Incremental-connectivity kernel: the batched union-find of
// Solver.AddEdges.  An uncharged serving helper (no PRAM cost is booked).

// UniteBatch unites the endpoints of every edge of batch in the forest p
// with one-worker UniteRem calls and returns the number of unions that
// merged two distinct sets — the component-count delta the caller
// maintains.  O(|batch|·α) amortized work on the calling goroutine, on
// either backend: the session lock already serializes every batch, and
// the plain-store walk beats the pooled CAS form at the widths served.
//
// Per-edge outcomes are reported too: marks[i] is set true exactly when
// batch[i]'s union merged two distinct sets (false for loops, duplicates
// and intra-set edges — every slot is written, so a recycled buffer needs
// no clearing).  On one worker every hook joins two whole sets, so the
// marked edges are exactly a spanning-forest extension: acyclic over the
// partition before the batch, and spanning what the batch merged — the
// property the live session's DynForest builds its forest flags from.
//
// The hooked (losing) root of every merge is stored in the prefix of
// losers (length at least len(batch)), whose length is the return value,
// in merge order.  Each was a root before the batch and a root
// loses at most once, so the prefix is duplicate-free.  This is the
// bookkeeping feed of the copy-on-write snapshot mirror: the caller
// charges each losing root's member list against the winner without
// scanning the forest.
func UniteBatch(p []int32, batch []graph.Edge, marks []bool, losers []int32) int {
	merges := 0
	for i, ed := range batch {
		ru := UniteRem(p, ed.U, ed.V, true)
		marks[i] = ru >= 0
		if ru >= 0 {
			losers[merges] = ru
			merges++
		}
	}
	return merges
}
