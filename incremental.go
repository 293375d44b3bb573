package parcc

import (
	"fmt"
	"time"

	"parcc/internal/core"
	"parcc/internal/dynconn"
	"parcc/internal/graph"
	"parcc/internal/obs"
	"parcc/internal/par"
)

// This file is the incremental-update subsystem on top of solver sessions:
// a Solver can hold a live graph (Attach) and keep its component partition
// current across batched mutations.  Insertions never look at the rest of
// the graph — AddEdges runs the batch through the lock-free CAS union-find
// (internal/par Unite), O(|batch|·α) amortized work, parallel over the
// batch on the session's runtime.  Deletions cannot be absorbed by a
// union-find, so RemoveEdges leans on the session's spanning forest
// (internal/dynconn): a deleted non-forest edge is O(1) — the partition
// cannot change — and a deleted forest edge runs a bounded smaller-side
// replacement search that either promotes a crossing edge or relabels the
// split-off side in place.  Only when a search blows its scan budget does
// the session fall back to the legacy scoped repair: mark the component
// dirty, re-solve the subgraph the dirty set induces with the paper's
// full CONNECTIVITY pipeline, and splice the scoped labels back
// (Options.NoForest forces this path for every deletion).
// Components/ComponentsInto re-query the live partition without solving
// anything.
//
// Liu–Tarjan's Simple Concurrent Connected Components Algorithms
// (arXiv:1812.06177) supplies the union-find machinery; the FLS pipeline
// remains the from-scratch engine the deletions fall back to.

// incSession is the live state behind Attach/AddEdges/RemoveEdges: the
// session-owned graph, the CAS union-find forest over it, and the
// maintained component count.  Guarded by the Solver's mutex.
type incSession struct {
	g      *graph.Graph
	parent []int32
	ncomp  int
	batch  uint64 // mutation-batch counter; perturbs scoped-solve seeds
	// needsCompress records whether successful unions may have left
	// non-root parent chains since the forest was last flattened, so a
	// read-heavy query stream pays the O(n) Compress once per mutation,
	// not once per query.
	needsCompress bool
	// forest is the spanning-forest dynamic connectivity state (nil when
	// Options.NoForest): the per-edge forest flags AddEdges maintains and
	// the replacement-search machinery RemoveEdges runs.
	forest *dynconn.Tracker
}

// Attach binds the solver to a live graph and computes its initial
// partition, making the incremental API (AddEdges, RemoveEdges,
// Components) available.  The solver takes ownership of g: mutate it only
// through the incremental API afterwards (Live returns it for read-only
// use).  Attaching again replaces the previous live graph.  The initial
// solve is uncharged CAS union-find work, parallel on the session's
// runtime — not a charged PRAM run: one O(m·α) Unite pass, or, for large
// dense graphs, the Afforest-style sampling fast path (sample a few
// neighbors per vertex, then skip the settled majority of the edge list).
func (s *Solver) Attach(g *Graph) error {
	if g == nil {
		return ErrNilGraph
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("parcc: %w", err)
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
	e := s.casExec()
	p := make([]int32, g.N)
	var ncomp int
	var fr *dynconn.Tracker
	if frontierWorthwhile(g) {
		// Mesh-like attach (low average degree, id-local edges): the
		// frontier engine's flood settles these shapes in one in-order
		// pass, leaving only chunk boundaries for its union-find hook
		// pass — cheaper than a Unite per edge and identical in output
		// (component minima).  Same engine as the "frontier" algorithm
		// and the scoped re-solve below: one machinery for cold solves
		// and incremental repair.
		span := rec.Begin()
		plan := s.planFor(g)
		rec.End(obs.PhasePlan, span)
		p, ncomp = s.frontierLabelsInto(e, g, plan.CSR, p)
	} else if sampleWorthwhile(g) {
		// Large dense attach: the Afforest-style sampling fast path
		// settles most components from a few sampled neighbors per vertex
		// and then skips the settled majority of the edge list, instead
		// of paying a full Unite per edge.  The CSR it samples from is
		// built through the session's plan cache, so the subsequent
		// Solve/AddEdges traffic on the live graph starts warm.  The
		// partition is identical to the UniteBatch path (component
		// minima); the count is taken exactly, from the flattened roots.
		span := rec.Begin()
		plan := s.planFor(g)
		rec.End(obs.PhasePlan, span)
		p, ncomp = s.sampleLabelsInto(e, g, plan.CSR, p)
	} else {
		span := rec.Begin()
		e.Run(g.N, func(v int) { p[v] = int32(v) })
		var merges int
		if s.opt.NoForest {
			merges = par.UniteBatch(e, p, g.Edges)
		} else {
			// The same Unite pass, but reporting per-edge outcomes: the
			// winning edges are exactly the initial spanning forest.
			fr = dynconn.New()
			merges = par.UniteBatchMark(e, p, g.Edges, fr.Marks(g.M()))
		}
		rec.Add(obs.CtrCASAttempts, int64(g.M()))
		rec.Add(obs.CtrCASHooks, int64(merges))
		span = rec.Lap(obs.PhaseUnite, span)
		par.Compress(e, p)
		rec.End(obs.PhaseCompress, span)
		ncomp = g.N - merges
	}
	if !s.opt.NoForest {
		// Index the live multiset and install the forest flags.  The fast
		// attach paths label through kernels that do not report per-edge
		// merge outcomes, so they derive the flags with a scratch
		// union-find pass of their own; the plain path already has them.
		span := rec.Begin()
		if fr == nil {
			fr = dynconn.New()
			scratch := s.cx.Grab32(g.N)
			fr.BuildScratch(e, g, scratch)
			s.cx.Release32(scratch)
		} else {
			fr.Init(g)
		}
		rec.End(obs.PhaseUnite, span)
	}
	s.inc = &incSession{g: g, parent: p, ncomp: ncomp, forest: fr}
	// Unpublish: a snapshot of the previous live graph must not answer for
	// the new one.  The version counter keeps running, so a reader that
	// kept the old pointer can still tell the views apart.  The page
	// mirror is dropped with the old partition — the next publish full-
	// builds it for the new graph.
	s.snap.Store(nil)
	s.pages = nil
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
// the partition: O(|batch|·α) amortized work on the session's runtime,
// independent of the size of the rest of the graph — the fast path of the
// incremental subsystem.  Self-loops and parallel edges are permitted
// (§2.1); endpoints must be in range.  On error the live state is
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
	n := inc.g.N
	for _, e := range batch {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return &EdgeRangeError{Edge: e, N: n}
		}
	}
	if len(batch) == 0 {
		return nil
	}
	rec := s.rec
	rec.Reset()
	rec.Add(obs.CtrBatchEdges, int64(len(batch)))
	// The cached plan (if it covers the live graph) is now a strict prefix;
	// planFor extends it by delta on the next plan-consuming solve rather
	// than rebuilding — nothing to do eagerly, and the insert path stays
	// O(|batch|).
	span := rec.Begin()
	var merges int
	st := s.pages
	if fr := inc.forest; fr != nil {
		// Unite first, then register each edge with its outcome: a winning
		// edge united two components and joins the spanning forest, the
		// rest (loops, duplicates, intra-component edges) are non-forest.
		marks := fr.Marks(len(batch))
		if st != nil {
			merges = par.UniteBatchTouch(s.casExec(), inc.parent, batch, marks, st.loserBuf(len(batch)))
		} else {
			merges = par.UniteBatchMark(s.casExec(), inc.parent, batch, marks)
		}
		for i, ed := range batch {
			fr.DF.Insert(ed, marks[i])
		}
	} else {
		inc.g.Edges = append(inc.g.Edges, batch...)
		if st != nil {
			merges = par.UniteBatchTouch(s.casExec(), inc.parent, batch, nil, st.loserBuf(len(batch)))
		} else {
			merges = par.UniteBatch(s.casExec(), inc.parent, batch)
		}
	}
	if st != nil {
		// Feed the snapshot mirror: each losing root transfers its size to
		// its winner now (O(1)) and queues its member relabel for the next
		// publish's flush — the insert path stays O(|batch|·α).
		for _, ru := range st.losers[:merges] {
			st.noteMerge(inc.parent, ru)
		}
	}
	inc.batch++
	rec.End(obs.PhaseUnite, span)
	rec.Add(obs.CtrCASAttempts, int64(len(batch)))
	rec.Add(obs.CtrCASHooks, int64(merges))
	if rec != nil {
		// Seed the batch's touched endpoints into the session frontier and
		// record them as the repair's initial frontier — the same pass
		// trace the frontier solves emit, so an insert stream's locality is
		// observable on one scale.  The flood itself stays with the
		// union-find above: propagating minima needs adjacency, and
		// extending the CSR costs O(n+m), which would break this path's
		// O(|batch|) contract — the union-find absorbs the merge in
		// O(|batch|·α) without ever looking at a neighbor list.
		cur, _ := s.frontierPair(n)
		cur.BeginCollect(true)
		for _, ed := range batch {
			cur.Add(ed.U)
			cur.Add(ed.V)
		}
		rec.RecordFrontierRound(cur.Count())
		cur.Clear()
	}
	if merges > 0 {
		inc.ncomp -= merges
		// Only a winning hook can leave a chain; failed unites and finds
		// at most shorten paths.
		inc.needsCompress = true
	}
	if rec != nil {
		s.lastTrace = incTraceFromRecorder(rec, "add-edges", time.Since(start))
	}
	return nil
}

// RemoveEdges deletes one occurrence per batch entry from the live graph
// (either orientation of an undirected edge matches) and repairs the
// partition.  With the spanning forest maintained (the default), each
// deletion resolves through the forest flags: a non-forest occurrence is
// removed in O(1) — the partition provably cannot change — and a forest
// occurrence runs a budget-bounded smaller-side replacement search
// (par.ReplacementSearch) that either promotes a crossing edge into the
// forest or relabels the split-off side in place.  Only a search that
// blows its budget falls back to the legacy scoped repair: the component
// is marked dirty, the subgraph the dirty set induces is re-solved with
// the paper's CONNECTIVITY pipeline (charged O(m'+n') on that subgraph)
// and spliced back, and the region's forest flags are re-derived.  With
// Options.NoForest every deletion takes the scoped path, paying one O(m)
// filter sweep plus the induced re-solve, as in the pre-forest sessions.
// A batch entry with no remaining occurrence is an error and leaves the
// live state unchanged.
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
	if inc.forest != nil {
		return s.removeEdgesForest(inc, batch, start)
	}
	n := inc.g.N
	need := make(map[int64]int, len(batch))
	for _, e := range batch {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return &EdgeRangeError{Edge: e, N: n}
		}
		need[e.CanonKey()]++
	}
	// Validation pass before any mutation: every batch entry must have an
	// occurrence left in the live multiset.
	remain := len(batch)
	for _, e := range inc.g.Edges {
		if k := e.CanonKey(); need[k] > 0 {
			need[k]--
			remain--
		}
	}
	if remain > 0 {
		return &MissingEdgeError{Count: remain}
	}
	for _, e := range batch {
		need[e.CanonKey()]++
	}

	// Removal sweep: filter the edge list in place, marking the root of
	// every removed non-loop edge dirty (both endpoints share a root — the
	// edge connected them until now).
	rec := s.rec
	rec.Reset()
	rec.Add(obs.CtrBatchEdges, int64(len(batch)))
	span := rec.Begin()
	e := s.casExec()
	cx := s.cx
	parent := inc.parent
	if s.pages != nil {
		// Deferred merge relabels must land before any deletion reshapes
		// components: the mirror's circles and labels are exact from here
		// through the batch (splits and region rebuilds keep them so).
		s.pages.flush(parent)
	}
	dirty := cx.Grab32(n)
	dirtyCount := 0
	kept := inc.g.Edges[:0]
	for _, ed := range inc.g.Edges {
		if k := ed.CanonKey(); need[k] > 0 {
			need[k]--
			if ed.U != ed.V {
				if r := par.Find(parent, ed.U); dirty[r] == 0 {
					dirty[r] = 1
					dirtyCount++
				}
			}
			continue
		}
		kept = append(kept, ed)
	}
	inc.g.Edges = kept
	inc.batch++
	if s.plan != nil && s.plan.G == inc.g {
		s.plan = nil // removal invalidates the delta chain; force a rebuild
	}
	rec.Add(obs.CtrDirtyComponents, int64(dirtyCount))
	if dirtyCount == 0 {
		cx.Release32(dirty)
		if rec != nil {
			rec.End(obs.PhaseExtract, span)
			s.lastTrace = incTraceFromRecorder(rec, "remove-edges", time.Since(start))
		}
		return nil
	}

	// Scoped re-solve: gather the vertices of the dirty components, build
	// the induced subgraph in compact ids, run CONNECTIVITY on it, and
	// splice the labels back.  Everything outside the dirty set is
	// untouched.
	par.Compress(e, parent)
	sc := cx.Inc()
	sc.Verts = sc.Verts[:0]
	vmap := cx.Grab32(n)
	for v := 0; v < n; v++ {
		if dirty[parent[v]] != 0 {
			vmap[v] = int32(len(sc.Verts)) + 1
			sc.Verts = append(sc.Verts, int32(v))
		}
	}
	sc.Sub = graph.InducedInto(inc.g, vmap, len(sc.Verts), sc.Sub)
	rec.Add(obs.CtrScopedVertices, int64(sc.Sub.N))
	rec.Add(obs.CtrScopedEdges, int64(sc.Sub.M()))
	span = rec.Lap(obs.PhaseExtract, span)
	var subLabels []int32
	var subComps int
	if frontierWorthwhile(sc.Sub) {
		// Mesh-like dirty region: the induced subgraph is exactly the set
		// of touched components, so seeding it (in full) into the frontier
		// engine is the scoped-repair instantiation of the frontier
		// machinery — one flood over the region plus a hook pass over
		// whatever it left unsettled, instead of the charged pipeline's
		// rounds over all of it.  The transient CSR is built uncached,
		// like the sampling branch's.
		csr := graph.BuildCSROn(e, sc.Sub)
		subLabels, subComps = s.frontierLabelsInto(e, sc.Sub, csr, sc.SubLabels)
	} else if sampleWorthwhile(sc.Sub) {
		// A large dense dirty region re-labels faster through the
		// sampling fast path than through the charged FLS pipeline: the
		// induced subgraph's CSR is built once (uncached — the subgraph
		// is transient scratch) and most of its edges are eliminated by
		// the skip test.  Sparse or small regions keep the paper's
		// pipeline, which their re-solve cost is dominated by anyway.
		csr := graph.BuildCSROn(e, sc.Sub)
		subLabels, subComps = s.sampleLabelsInto(e, sc.Sub, csr, sc.SubLabels)
	} else {
		s.m.Reset()
		r := core.ConnectivityScoped(cx, sc.Sub, s.seed^(inc.batch*0x9e3779b97f4a7c15), sc.SubLabels)
		subLabels, subComps = r.Labels, r.NumComponents
	}
	sc.SubLabels = subLabels
	// The re-solve recorded its own phases (the sampling kernels' or the
	// FLS pipeline's); the scoped span pools them into the headline number.
	span = rec.Lap(obs.PhaseScoped, span)
	par.SpliceLabels(e, parent, sc.Verts, subLabels)
	if s.pages != nil {
		s.pages.rebuildRegion(parent, sc.Verts)
	}
	rec.End(obs.PhaseSplice, span)
	inc.ncomp += subComps - dirtyCount
	// The Compress above flattened the whole forest and the splice wrote a
	// flat two-level region; queries need no further flatten.
	inc.needsCompress = false
	cx.Release32(vmap)
	cx.Release32(dirty)
	if rec != nil {
		s.lastTrace = incTraceFromRecorder(rec, "remove-edges", time.Since(start))
	}
	return nil
}

// removeEdgesForest is the deletion path with spanning-forest maintenance
// (inc.forest non-nil): validation is O(|batch|) through the DynForest key
// index instead of the legacy O(m) sweep, and each deletion is handled by
// dynconn.Tracker.Delete — O(1) for non-forest occurrences, a bounded
// replacement search for forest ones.  Components whose search blew the
// budget collect into the same scoped re-solve the legacy path runs,
// followed by a forest-flag rebuild of the re-solved region.
func (s *Solver) removeEdgesForest(inc *incSession, batch []Edge, start time.Time) error {
	n := inc.g.N
	fr := inc.forest
	// Validation before any mutation: range check, then per-key occurrence
	// counts against the live multiset (the key index answers "at least c
	// copies?" in O(c)).
	need := make(map[int64]int, len(batch))
	for _, e := range batch {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return &EdgeRangeError{Edge: e, N: n}
		}
		need[e.CanonKey()]++
	}
	missing := 0
	for k, c := range need {
		if have := fr.DF.CountKey(k, c); have < c {
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
	e := s.casExec()
	cx := s.cx
	parent := inc.parent
	if inc.needsCompress {
		// Flat-parent invariant: the searches read roots directly and the
		// split relabels write flat sides, so one flatten at entry (the one
		// the query path would pay anyway) keeps the whole batch flat.
		par.Compress(e, parent)
		inc.needsCompress = false
	}
	st := s.pages
	var moved []int32
	var movedPtr *[]int32
	if st != nil {
		// Deferred merge relabels land before any split can reshape a
		// pending loser's circle; with the mirror current, each split below
		// reports its moved side and updates the mirror in O(|moved|).
		st.flush(parent)
		movedPtr = &moved
	}
	dirty := cx.Grab32(n)
	dirtyCount := 0
	splits := 0
	fa, fb := s.frontierPair(n)
	span = rec.Lap(obs.PhaseExtract, span)
	for _, ed := range batch {
		dr := fr.DeleteCollect(parent, ed, fa, fb, func(root int32) bool { return dirty[root] != 0 }, movedPtr)
		rec.Add(obs.CtrReplaceScans, dr.Scanned)
		switch dr.Kind {
		case dynconn.DeleteNonForest:
			rec.Add(obs.CtrNonForestDeletes, 1)
		case dynconn.DeleteReplaced:
			rec.Add(obs.CtrForestDeletes, 1)
			rec.Add(obs.CtrReplacements, 1)
		case dynconn.DeleteSplit:
			rec.Add(obs.CtrForestDeletes, 1)
			rec.Add(obs.CtrSplits, 1)
			if st != nil {
				st.split(moved, dr.Root, dr.NewRoot)
			}
			inc.ncomp++
			splits++
		case dynconn.DeleteBudget:
			rec.Add(obs.CtrForestDeletes, 1)
			rec.Add(obs.CtrBudgetFallbacks, 1)
			if dirty[dr.Root] == 0 {
				dirty[dr.Root] = 1
				dirtyCount++
			}
		case dynconn.DeleteDirty:
			// The component is already awaiting the scoped re-solve; only
			// the occurrence was removed.
			rec.Add(obs.CtrForestDeletes, 1)
		}
	}
	span = rec.Lap(obs.PhaseReplace, span)
	inc.batch++
	if s.plan != nil && s.plan.G == inc.g {
		s.plan = nil // removal invalidates the delta chain; force a rebuild
	}
	rec.Add(obs.CtrDirtyComponents, int64(splits+dirtyCount))
	if dirtyCount == 0 {
		cx.Release32(dirty)
		if rec != nil {
			rec.End(obs.PhaseExtract, span)
			s.lastTrace = incTraceFromRecorder(rec, "remove-edges", time.Since(start))
		}
		return nil
	}

	// Budget-blown components: gather their vertices, re-solve the induced
	// subgraph, splice — the legacy scoped repair, scoped to exactly the
	// components the searches abandoned — then re-derive the region's
	// forest flags (the only state the scoped labels do not fix).
	sc := cx.Inc()
	sc.Verts = sc.Verts[:0]
	vmap := cx.Grab32(n)
	for v := 0; v < n; v++ {
		if dirty[parent[v]] != 0 {
			vmap[v] = int32(len(sc.Verts)) + 1
			sc.Verts = append(sc.Verts, int32(v))
		}
	}
	sc.Sub = graph.InducedInto(inc.g, vmap, len(sc.Verts), sc.Sub)
	rec.Add(obs.CtrScopedVertices, int64(sc.Sub.N))
	rec.Add(obs.CtrScopedEdges, int64(sc.Sub.M()))
	span = rec.Lap(obs.PhaseExtract, span)
	var subLabels []int32
	var subComps int
	if frontierWorthwhile(sc.Sub) {
		csr := graph.BuildCSROn(e, sc.Sub)
		subLabels, subComps = s.frontierLabelsInto(e, sc.Sub, csr, sc.SubLabels)
	} else if sampleWorthwhile(sc.Sub) {
		csr := graph.BuildCSROn(e, sc.Sub)
		subLabels, subComps = s.sampleLabelsInto(e, sc.Sub, csr, sc.SubLabels)
	} else {
		s.m.Reset()
		r := core.ConnectivityScoped(cx, sc.Sub, s.seed^(inc.batch*0x9e3779b97f4a7c15), sc.SubLabels)
		subLabels, subComps = r.Labels, r.NumComponents
	}
	sc.SubLabels = subLabels
	span = rec.Lap(obs.PhaseScoped, span)
	par.SpliceLabels(e, parent, sc.Verts, subLabels)
	if st != nil {
		st.rebuildRegion(parent, sc.Verts)
	}
	uf := cx.Grab32(len(sc.Verts))
	fr.RebuildRegion(sc.Verts, vmap, uf)
	cx.Release32(uf)
	rec.End(obs.PhaseSplice, span)
	inc.ncomp += subComps - dirtyCount
	// Entry Compress + flat splices/splits: queries need no further
	// flatten.
	inc.needsCompress = false
	cx.Release32(vmap)
	cx.Release32(dirty)
	if rec != nil {
		s.lastTrace = incTraceFromRecorder(rec, "remove-edges", time.Since(start))
	}
	return nil
}

// Components returns the live partition as a freshly allocated Result —
// the cheap re-query of the incremental session: no solve happens, only a
// flatten of the union-find forest (O(n) on the session's runtime, far
// below any from-scratch solve) and a copy of the labels.  NumComponents
// is maintained exactly across batches.  Result.Algorithm echoes
// Incremental; Steps/Work are zero (the kernels are uncharged serving
// helpers — charged costs accrue only inside RemoveEdges' scoped
// re-solves).  Use ComponentsInto to recycle the Result in a serving loop.
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
	if inc.needsCompress {
		par.Compress(s.casExec(), inc.parent)
		inc.needsCompress = false
	}
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
