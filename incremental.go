package parcc

import (
	"fmt"
	"math"
	"time"

	"parcc/internal/graph"
	"parcc/internal/obs"
	"parcc/internal/par"
)

// This file is the incremental-update subsystem on top of solver sessions:
// a Solver can hold a live graph (Attach) and keep its component partition
// current across batched mutations.  Insertions never look at the rest of
// the graph — AddEdges runs the batch through par.UniteBatch, Rem's
// union-find walk with plain stores on one worker, O(|batch|·α) amortized
// work on either backend.  Deletions cannot be absorbed by a
// union-find, so RemoveEdges leans on the session's spanning forest — a
// graph.DynForest whose per-edge flags record which edges united two
// components when they arrived: a deleted non-forest edge is O(1) — the
// partition cannot change — and a deleted forest edge runs a bounded
// smaller-side replacement search (par.ReplacementSearch) that either
// promotes a crossing edge or relabels the split-off side in place.  Only
// when a search blows its scan budget does the session fall back to the
// scoped repair: mark the component dirty, then relabel the dirty
// components in place with one pass of the same one-worker union over
// their edges (par.RebuildRegion), which re-derives their forest flags in
// the same pass.
// Components/ComponentsInto re-query the live partition without solving
// anything.
//
// Liu–Tarjan's Simple Concurrent Connected Components Algorithms
// (arXiv:1812.06177) supplies the union-find machinery.  Nothing on the
// live path runs or charges the paper's FLS pipeline.

// incSession is the live state behind Attach/AddEdges/RemoveEdges: the
// session-owned graph, the union-find forest over it, the maintained
// component count, and the spanning forest.  Guarded by the Solver's
// mutex.
type incSession struct {
	g      *graph.Graph
	parent []int32
	ncomp  int
	// forest is the edge store over g with the per-edge spanning-forest
	// flags AddEdges maintains and RemoveEdges' replacement searches walk;
	// it indexes g.Edges and mutates them in place.
	forest *graph.DynForest
	// marks is AddEdges' reusable per-batch outcome buffer: the target
	// of its UniteBatch (every slot is overwritten, never cleared).
	marks []bool
	// dirty flags, per root, the components RemoveEdges hands to the
	// scoped repair, which widens the flags to every vertex of those
	// components and clears them after.  The flags are all zero between
	// batches, so a batch that never falls back costs O(|batch|), not
	// O(n).  Allocated on the first RemoveEdges.
	dirty []int32
	// scopedVerts is scopedRepair's reused backing for the dirty
	// vertices: a stream of budget fallbacks reuses one instead of
	// reallocating per batch; no invariants between calls.
	scopedVerts []int32
	// sets is the replacement searches' visited bitmaps and queues,
	// sized on the first forest delete and empty between searches.
	sets par.ReplaceSets
}

// replaceBudgetFloor is the minimum adjacency-scan budget of a
// replacement search, below the proportional m/replaceBudgetDiv term.  A
// variable so tests can force the budget-blow fallback on small graphs.
var replaceBudgetFloor int64 = 1024

// replaceBudgetDiv sets the replacement search's proportional budget,
// m/replaceBudgetDiv scans: the ratio of a search step's cost to the
// scoped repair's cost per live edge, so a search that blows its budget
// costs about as much as the repair that follows it, never more.
// Measured on the bridge graphs of TestBudgetFallbackCostNearAttach
// (sequential session, 2-vCPU host, medians of 9): a blown search step
// costs 72 ns on GNM 2×2^14 of degree 32, 46 ns on GNM 2×2^15 of degree
// 8, 14 ns on the 2×2^12 cycle and 12 ns on the 2×256² grid; the repair
// costs 8.9, 20.8, 8.0 and 7.0 ns per live edge.  The widest ratio,
// 72/8.9 ≈ 8 on the degree-32 GNM, sets the divisor.
const replaceBudgetDiv = 8

// replaceBudget is the replacement search's adjacency-scan allowance over
// a live graph of m edges: m/replaceBudgetDiv, floored by
// replaceBudgetFloor.  Proportional so a search that blows it stays
// within the O(m) order of the fallback it guards, and sized by
// replaceBudgetDiv so it stays within its constant too.
func replaceBudget(m int) int64 {
	return max(int64(m)/replaceBudgetDiv, replaceBudgetFloor)
}

// Attach binds the solver to a live graph and computes its initial
// partition, making the incremental API (AddEdges, RemoveEdges,
// Components) available.  The solver takes ownership of g: mutate it only
// through the incremental API afterwards (Live returns it for read-only
// use).  Attaching again replaces the previous live graph.  The initial
// solve is uncharged union-find work, not a charged PRAM run: one
// O(n + m·α) par.AttachForest pass on one worker, which unites each edge,
// takes its merge as its spanning-forest flag and links it into the edge
// store, then one ascending flatten; then one O(n) pass builds the
// snapshot page mirror (pages.go), which exists for as long as the graph
// is attached.  An edge with an endpoint outside [0, g.N) fails it with
// *EdgeRangeError, as it fails AddEdges.
func (s *Solver) Attach(g *Graph) error {
	if g == nil {
		return ErrNilGraph
	}
	if g.N < 0 || g.N > math.MaxInt32 {
		return fmt.Errorf("parcc: vertex count %d out of range [0,%d]", g.N, math.MaxInt32)
	}
	if err := checkEdges(g.Edges, g.N); err != nil {
		return err
	}
	var start time.Time
	if s.rec != nil {
		start = time.Now()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSolverClosed
	}
	rec := s.rec
	rec.Reset()
	rec.Add(obs.CtrBatchEdges, int64(g.M()))
	span := rec.Begin()
	p, df, merges := par.AttachForest(g)
	rec.Add(obs.CtrCASAttempts, int64(g.M()))
	rec.Add(obs.CtrCASHooks, int64(merges))
	span = rec.Lap(obs.PhaseUnite, span)
	s.inc = &incSession{g: g, parent: p, ncomp: g.N - merges, forest: df}
	s.pages = newPageStore(p)
	rec.End(obs.PhaseSplice, span)
	// Unpublish: a snapshot of the previous live graph must not answer for
	// the new one.  The version counter keeps running, so a reader that
	// kept the old pointer can still tell the views apart.
	s.snap.Store(nil)
	if rec != nil {
		s.lastTrace = incTraceFromRecorder(rec, "attach", time.Since(start))
	}
	return nil
}

// Live returns the solver's attached graph (nil when no session is
// active).  The graph is owned by the solver: treat it as read-only and
// mutate only through AddEdges/RemoveEdges — it is safe to pass to
// Solve/SolveInto or the spectral estimators, which never modify it.
func (s *Solver) Live() *Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inc == nil {
		return nil
	}
	return s.inc.g
}

// AddEdges appends a batch of edges to the live graph and folds them into
// the partition: O(|batch|·α) amortized work, one par.UniteBatch pass on
// one worker whatever the backend, independent of the size of the rest of
// the graph — the fast path of the incremental subsystem.  Self-loops and
// parallel edges are permitted (§2.1); endpoints must be in range.  On error the live state is
// unchanged.  Safe for concurrent callers (the session lock serializes all
// mutations and queries).
func (s *Solver) AddEdges(batch []Edge) error {
	var start time.Time
	if s.rec != nil {
		start = time.Now()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	inc, err := s.incReady()
	if err != nil {
		return err
	}
	if err := checkEdges(batch, inc.g.N); err != nil {
		return err
	}
	if len(batch) == 0 {
		return nil
	}
	rec := s.rec
	rec.Reset()
	rec.Add(obs.CtrBatchEdges, int64(len(batch)))
	// A cached plan of the live graph goes stale with the appended edges;
	// planFor rebuilds it on the next plan-consuming solve, so the insert
	// path stays O(|batch|).
	span := rec.Begin()
	// Unite first, then register each edge with its outcome: a merging
	// edge united two components and joins the spanning forest, the rest
	// (loops, duplicates, intra-component edges) are non-forest.
	st := s.pages
	if cap(inc.marks) < len(batch) {
		inc.marks = make([]bool, len(batch))
	}
	marks := inc.marks[:len(batch)]
	merges := par.UniteBatch(inc.parent, batch, marks, st.loserBuf(len(batch)))
	for i, ed := range batch {
		inc.forest.Insert(ed, marks[i])
	}
	// Feed the snapshot mirror: each losing root transfers its size to its
	// winner now (O(1)) and queues its member relabel, and the flatten of
	// its members' parents, for the next flush — the insert path stays
	// O(|batch|·α).
	for _, ru := range st.losers[:merges] {
		st.noteMerge(inc.parent, ru)
	}
	rec.End(obs.PhaseUnite, span)
	rec.Add(obs.CtrCASAttempts, int64(len(batch)))
	rec.Add(obs.CtrCASHooks, int64(merges))
	inc.ncomp -= merges
	if rec != nil {
		s.lastTrace = incTraceFromRecorder(rec, "add-edges", time.Since(start))
	}
	return nil
}

// RemoveEdges deletes one occurrence per batch entry from the live graph
// (either orientation of an undirected edge matches) and repairs the
// partition through the session's spanning forest.  Validation finds
// each key by walking its two endpoints' incidence lists in lockstep,
// O(min degree) per key; each deletion then removes one occurrence (a
// non-forest one when the key has any) and resolves through its forest
// flag: a non-forest occurrence or a self-loop costs
// O(1) — the partition provably cannot change — and a forest occurrence
// runs a budget-bounded smaller-side replacement search
// (par.ReplacementSearch) that either promotes a crossing edge into the
// forest or relabels the split-off side in place.  Only a search that
// blows its budget marks its component dirty for scopedRepair; later
// forest deletes in a dirty component skip the search, since the
// repair re-derives the region's flags.  A batch entry with
// no remaining occurrence is an error and leaves the live state
// unchanged.
func (s *Solver) RemoveEdges(batch []Edge) error {
	var start time.Time
	if s.rec != nil {
		start = time.Now()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	inc, err := s.incReady()
	if err != nil {
		return err
	}
	if len(batch) == 0 {
		return nil
	}
	n := inc.g.N
	df := inc.forest
	// Validation before any mutation: range check, then per-key occurrence
	// counts against the live multiset (CountKey answers "at least c
	// copies?" by the lockstep walk, O(min degree) per key).
	if err := checkEdges(batch, n); err != nil {
		return err
	}
	need := make(map[int64]int, len(batch))
	for _, e := range batch {
		need[e.CanonKey()]++
	}
	missing := 0
	for k, c := range need {
		if have := df.CountKey(k, c); have < c {
			missing += c - have
		}
	}
	if missing > 0 {
		return &MissingEdgeError{Count: missing}
	}

	rec := s.rec
	rec.Reset()
	rec.Add(obs.CtrBatchEdges, int64(len(batch)))
	span := rec.Begin()
	parent := inc.parent
	// Flat-parent invariant: the flush lands the deferred merges before any
	// split can reshape a pending loser's circle and leaves the forest
	// flat; the searches read roots directly and the split relabels write
	// flat sides, so the whole batch stays flat.  With the mirror current,
	// each split below reports its moved side and updates the mirror in
	// O(|moved|).
	st := s.pages
	st.flush(parent)
	var moved []int32
	if inc.dirty == nil {
		inc.dirty = make([]int32, n)
	}
	dirty, dirtied := inc.dirty, 0
	splits := 0
	span = rec.Lap(obs.PhaseExtract, span)
	for _, ed := range batch {
		h := df.PickRemovable(ed.CanonKey())
		u, v := df.U(h), df.V(h)
		wasForest := df.IsForest(h)
		df.Remove(h)
		if u == v || !wasForest {
			rec.Add(obs.CtrNonForestDeletes, 1)
			continue
		}
		rec.Add(obs.CtrForestDeletes, 1)
		root := parent[u]
		if dirty[root] != 0 {
			// The component is already awaiting the scoped repair, which
			// re-derives its flags; a search over the stale flags would be
			// unsound, so only the occurrence is removed.
			continue
		}
		sr := par.ReplacementSearch(df, parent, u, v, &inc.sets, replaceBudget(df.M()), &moved)
		rec.Add(obs.CtrReplaceScans, sr.Scanned)
		switch sr.Outcome {
		case par.ReplaceFound:
			df.SetForest(sr.Handle, true)
			rec.Add(obs.CtrReplacements, 1)
		case par.ReplaceSplit:
			rec.Add(obs.CtrSplits, 1)
			st.split(moved, root, sr.NewRoot)
			inc.ncomp++
			splits++
		case par.ReplaceBudget:
			rec.Add(obs.CtrBudgetFallbacks, 1)
			dirty[root] = 1
			dirtied++
		}
	}
	span = rec.Lap(obs.PhaseReplace, span)
	if s.plan != nil && s.plan.G == inc.g {
		s.plan = nil // removal rewrites edges in place, past TrustGraph's length check
	}
	rec.Add(obs.CtrDirtyComponents, int64(splits+dirtied))
	rec.End(obs.PhaseExtract, span)
	if dirtied > 0 {
		s.scopedRepair(dirty, dirtied)
	}
	if rec != nil {
		s.lastTrace = incTraceFromRecorder(rec, "remove-edges", time.Since(start))
	}
	return nil
}

// scopedRepair is RemoveEdges' budget fallback: it gathers the vertices of
// the dirty components (dirty[root] != 0 for dirtyCount roots of the flat
// live forest), widening dirty to a membership mask of that region as it
// goes, relabels the region in place — par.RebuildRegion resets it to
// singletons and unites its edges in one pass over the live edge
// array, which yields the region's flat minima labels and forest flags
// together — re-derives the region's snapshot mirror, and clears the
// mask.  Labels outside the region are untouched.  O(n) gather + O(m)
// edge pass + O(region·α) unions, sequential.  Callers hold s.mu.
func (s *Solver) scopedRepair(dirty []int32, dirtyCount int) {
	inc, rec := s.inc, s.rec
	parent := inc.parent
	span := rec.Begin()
	verts := inc.scopedVerts[:0]
	for v, r := range parent {
		// A member's flag never changes a root's: the region's roots are
		// already flagged, and the rest of the region are not roots.
		if dirty[r] != 0 {
			dirty[v] = 1
			verts = append(verts, int32(v))
		}
	}
	inc.scopedVerts = verts
	span = rec.Lap(obs.PhaseExtract, span)
	comps, edges := par.RebuildRegion(inc.forest, parent, verts, dirty)
	rec.Add(obs.CtrScopedVertices, int64(len(verts)))
	rec.Add(obs.CtrScopedEdges, int64(edges))
	span = rec.Lap(obs.PhaseScoped, span)
	s.pages.rebuildRegion(parent, verts)
	for _, v := range verts {
		dirty[v] = 0
	}
	rec.End(obs.PhaseSplice, span)
	inc.ncomp += comps - dirtyCount
}

// Components returns the live partition as a freshly allocated Result —
// the cheap re-query of the incremental session: no solve happens, only
// the mirror flush that flattens the vertices whose root changed since the
// last flush point, and an O(n) copy of the labels.  NumComponents
// is maintained exactly across batches.  Result.Algorithm echoes
// Incremental; Steps/Work are zero (every kernel of the live path,
// RemoveEdges' scoped repairs included, is an uncharged serving
// helper).  Use ComponentsInto to recycle the Result in a serving loop.
func (s *Solver) Components() (*Result, error) {
	res := &Result{}
	if err := s.ComponentsInto(res); err != nil {
		return nil, err
	}
	return res, nil
}

// ComponentsInto is Components writing into a caller-owned Result:
// res.Labels is reused when it has the capacity, making steady-state
// re-queries allocation-free.  All other fields are overwritten.
func (s *Solver) ComponentsInto(res *Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	inc, err := s.incReady()
	if err != nil {
		return err
	}
	n := inc.g.N
	s.pages.flush(inc.parent)
	dst := res.Labels
	if cap(dst) < n {
		dst = make([]int32, n)
	}
	dst = dst[:n]
	copy(dst, inc.parent)
	*res = Result{
		Labels:        dst,
		NumComponents: inc.ncomp,
		Algorithm:     Incremental,
		Backend:       s.opt.Backend,
		Procs:         s.procs,
		Breakdown:     res.Breakdown[:0],
	}
	return nil
}

// checkEdges reports the first edge of batch with an endpoint outside
// [0, n) as an *EdgeRangeError.
func checkEdges(batch []Edge, n int) error {
	for _, e := range batch {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return &EdgeRangeError{Edge: e, N: n}
		}
	}
	return nil
}

// incReady reports the live session, erroring when there is none or the
// solver is closed (callers hold s.mu).  The errors are the taxonomy's
// sentinels — ErrSolverClosed and ErrNotAttached — so every incremental
// entry point fails in a form callers can dispatch on with errors.Is.
func (s *Solver) incReady() (*incSession, error) {
	if s.closed {
		return nil, ErrSolverClosed
	}
	if s.inc == nil {
		return nil, ErrNotAttached
	}
	return s.inc, nil
}
