package parcc

import (
	"cmp"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parcc/internal/baseline"
	"parcc/internal/core"
	"parcc/internal/graph"
	"parcc/internal/labeled"
	"parcc/internal/liutarjan"
	"parcc/internal/ltz"
	"parcc/internal/obs"
	"parcc/internal/par"
	"parcc/internal/pram"
	"parcc/internal/prim"
	"parcc/internal/solve"
	"parcc/internal/spectral"
)

// Solver is a reusable connectivity session: a goroutine pool, a PRAM
// machine, a scratch arena, and a cached CSR plan that persist across
// Solve calls.  ConnectedComponents pays the construction of all four on
// every call; a Solver pays it once, so a serving loop issuing many solves
// runs against warm state — after the first solve on a graph, the hot
// paths are near-zero-alloc (SolveInto with a reused Result is the
// zero-allocation variant).
//
// A Solver is safe for concurrent use: Solve serializes internally.  For
// parallel query throughput across CPU cores, create one Solver per worker
// goroutine instead of sharing one (the arena and machine are per-session
// state, not shareable mid-solve).  Close releases the pooled goroutines;
// an unclosed Solver is reclaimed by the garbage collector.
//
//	s, _ := parcc.NewSolver(&parcc.Options{Backend: parcc.BackendConcurrent})
//	defer s.Close()
//	for _, g := range queries {
//		res, _ := s.Solve(g)
//		...
//	}
type Solver struct {
	opt   Options // normalized: algorithm, backend, KnownGapB filled in
	seed  uint64  // effective seed (Options.Seed/ZeroSeed resolved)
	procs int

	// rec is the session's trace recorder: non-nil exactly when
	// Options.Trace is set, immutable after NewSolver (so the pre-lock
	// validation timing may read it without s.mu).  Nil threads through
	// cx.Rec as the no-op tracing-off state.
	rec *obs.Recorder

	mu        sync.Mutex
	m         *pram.Machine
	rt        *par.Runtime // the session's one pool: Procs wide, 1 for sequential
	arena     *par.Arena
	cx        *solve.Ctx  // persistent solve context (machine+arena+plan cache)
	plan      *graph.Plan // single-slot plan cache (most recent graph)
	inc       *incSession // live incremental session (nil until Attach)
	lastTrace *Trace      // most recent traced operation (tracing on only)
	closed    bool
	// fCur/fNxt are the frontier engine's reusable active-vertex-set pair
	// (nil until the first frontier solve; empty between operations), so
	// warm frontier solves allocate nothing.
	fCur, fNxt *par.Frontier

	// snap is the published read view (see PublishSnapshot/ReadView):
	// written under mu, loaded lock-free by any number of readers.
	// snapVersion counts publishes across the Solver's whole lifetime.
	snap        atomic.Pointer[Snapshot]
	snapVersion uint64
	// pages is the copy-on-write paged snapshot mirror (pages.go): nil
	// until the first PublishSnapshot after an Attach, so sessions that
	// never publish pay zero mirror bookkeeping in AddEdges/RemoveEdges.
	pages *pageStore
}

// NewSolver validates the options and builds a session: the machine and
// the goroutine pool are constructed here, once.  The concurrent backend
// installs the pool on the machine; the sequential one keeps the machine
// sequential and runs the uncharged CAS kernels on a single-proc pool.  A
// nil opt selects the defaults, exactly as ConnectedComponents does.
func NewSolver(opt *Options) (*Solver, error) {
	o := Options{}
	if opt != nil {
		o = *opt
	}
	if o.Algorithm == "" {
		o.Algorithm = FLS
	}
	if !knownAlgorithm(o.Algorithm) {
		return nil, fmt.Errorf("parcc: unknown algorithm %q", o.Algorithm)
	}
	if o.KnownGapB <= 0 {
		o.KnownGapB = 16
	}
	if o.Procs < 0 {
		return nil, &ProcsRangeError{Procs: o.Procs}
	}
	if o.Backend == "" {
		o.Backend = BackendConcurrent
	}
	procs := 1
	switch o.Backend {
	case BackendSequential:
	case BackendConcurrent:
		procs = cmp.Or(o.Procs, runtime.NumCPU())
	default:
		return nil, fmt.Errorf("parcc: unknown backend %q", o.Backend)
	}
	s := &Solver{opt: o, seed: effectiveSeed(o), arena: par.NewArena(), procs: procs}
	s.rt = par.New(par.Procs(procs), par.Seed(s.seed))
	var exec pram.Executor // nil: the machine is the sequential simulator
	if o.Backend == BackendConcurrent {
		exec = s.rt
	}
	if o.Trace {
		s.rec = obs.NewRecorder()
	}
	s.m = pram.New(pram.Seed(s.seed), pram.OnExecutor(exec))
	s.cx = solve.New(s.m).WithArena(s.arena).WithPlanner(s.planFor).WithRecorder(s.rec)
	return s, nil
}

// Close releases the solver's pooled goroutines.  The solver must not be
// used after Close; calling Close more than once is a no-op.
func (s *Solver) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.rt.Close()
}

// Solve labels the connected components of g, reusing the session's pool,
// machine, arena, and (for the same graph) CSR plan.  The result is
// freshly allocated; use SolveInto to recycle one across calls.
func (s *Solver) Solve(g *Graph) (*Result, error) {
	res := &Result{}
	if err := s.SolveInto(g, res); err != nil {
		return nil, err
	}
	return res, nil
}

// SolveInto is Solve writing into a caller-owned Result: res.Labels and
// res.Breakdown are reused when they have the capacity, making the steady
// state of a serving loop allocation-free for the label output too.  All
// other fields are overwritten.
func (s *Solver) SolveInto(g *Graph, res *Result) error {
	if g == nil {
		return ErrNilGraph
	}
	// s.rec is immutable after NewSolver, so the pre-lock validation may
	// read it: with tracing on, the O(m) Validate sweep is timed here and
	// accrued after the recorder reset below.
	var start time.Time
	if s.rec != nil {
		start = time.Now()
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("parcc: %w", err)
	}
	validated := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSolverClosed
	}
	o := s.opt
	m := s.m
	m.Reset()
	cx := s.cx
	rec := s.rec
	rec.Reset()
	if rec != nil {
		rec.AddPhase(obs.PhaseValidate, validated.Sub(start))
	}

	params := core.Default(g.N)
	if o.Params != nil {
		params = *o.Params
	}
	params.Seed ^= s.seed

	algo := o.Algorithm
	var rule string
	var autoMaxDeg int
	autoLocality := -1.0
	if algo == Auto {
		// The decision may build or revalidate the plan — charge that to
		// the plan phase.
		tp := rec.Begin()
		algo, rule, autoMaxDeg, autoLocality = s.chooseAuto(g)
		rec.End(obs.PhasePlan, tp)
	}
	dst := res.Labels
	*res = Result{
		Algorithm: algo, Backend: o.Backend, Procs: s.procs,
		Breakdown: res.Breakdown[:0],
	}
	solveSpan := rec.Begin()
	switch algo {
	case FLS:
		r := core.ConnectivityOn(cx, g, params, dst)
		res.Labels, res.NumComponents, res.Phases = r.Labels, r.NumComponents, r.Phases
		res.Breakdown = stageCostsInto(res.Breakdown, r.Breakdown)
	case FLSKnownGap:
		r := core.SolveKnownGapOn(cx, g, o.KnownGapB, params, dst)
		res.Labels, res.NumComponents = r.Labels, r.NumComponents
		res.Breakdown = stageCostsInto(res.Breakdown, r.Breakdown)
	case LTZ:
		lp := params.LTZ
		lp.Seed ^= s.seed
		res.Labels = ltz.SolveLabelsInto(cx, g, lp, dst)
	case SV:
		f := baseline.ShiloachVishkinCtx(cx, g)
		res.Labels = labeled.LabelsOnInto(m.Exec(), f, dst)
		f.Free()
	case RandomMate:
		f := baseline.RandomMateCtx(cx, g, s.seed)
		res.Labels = labeled.LabelsOnInto(m.Exec(), f, dst)
		f.Free()
	case LabelProp:
		res.Labels = baseline.LabelPropInto(cx, g, dst)
	case LT:
		res.Labels = liutarjan.LabelsInto(cx, g, liutarjan.Config{
			Connect: liutarjan.ParentConnect, Alter: true,
		}, dst)
	case ParBFS:
		res.Labels = baseline.ParallelBFSInto(cx, g, dst)
	case CASUnite:
		// Nominal model charge: one O(log n)-deep linear-work contraction.
		m.Contract(prim.Log2Ceil(g.N+2)+1, int64(2*g.M()+g.N), func() {
			res.Labels = par.ComponentsInto(s.rt, g, dst)
		})
	case Sample:
		labels, ratio, fls := s.solveSample(g, params, dst)
		res.Labels, res.SkipRatio = labels, ratio
		if fls != nil {
			res.NumComponents, res.Phases = fls.NumComponents, fls.Phases
			res.Breakdown = stageCostsInto(res.Breakdown, fls.Breakdown)
		}
	case Frontier:
		labels, comps := s.solveFrontier(g, dst)
		res.Labels, res.NumComponents = labels, comps
	case UnionFind:
		res.Labels = baseline.UnionFindLabelsInto(cx, g, dst)
	case BFS:
		res.Labels = baseline.BFSLabelsInto(cx, g, dst)
	default:
		return fmt.Errorf("parcc: unknown algorithm %q", o.Algorithm)
	}
	switch algo {
	case FLS, FLSKnownGap, Sample, Frontier:
		// Decomposed internally: these solves recorded their own spans.
	default:
		rec.End(obs.PhaseSolve, solveSpan)
	}
	if res.NumComponents == 0 {
		tc := rec.Begin()
		res.NumComponents = solve.NumLabels(cx, res.Labels, g.N)
		rec.End(obs.PhaseCount, tc)
	}
	if algo == CASUnite {
		// The CAS union-find attempts every edge once; the hooks that
		// merged are exactly the spanning-forest edges.
		rec.Add(obs.CtrCASAttempts, int64(g.M()))
		rec.Add(obs.CtrCASHooks, int64(g.N-res.NumComponents))
	}
	res.Steps = m.Steps()
	res.Work = m.Work()
	if rec != nil {
		tr := traceFromRecorder(rec, "solve", algo, time.Since(start))
		tr.SkipRatio = res.SkipRatio
		if o.Algorithm == Auto {
			tr.Dispatch = &DispatchDecision{
				Chosen: algo, Rule: rule,
				N: g.N, M: g.M(), AvgDeg: 2 * float64(g.M()) / float64(max(g.N, 1)),
				MaxDeg: autoMaxDeg, Locality: autoLocality,
			}
		}
		res.Trace = tr
		s.lastTrace = tr
	}
	return nil
}

// Plan returns the session's cached CSR plan for g, building it (on the
// runtime, for the concurrent backend) if the cache holds another or a
// stale graph.  Useful for driving the spectral estimators against the
// same adjacency the solves use.
func (s *Solver) Plan(g *Graph) *graph.Plan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.planFor(g)
}

// SpectralGap is parcc.SpectralGap against the session's cached plan.
func (s *Solver) SpectralGap(g *Graph) float64 {
	return spectral.GapOn(s.Plan(g), nil)
}

// ComponentSpectralGaps is parcc.ComponentSpectralGaps against the
// session's cached plan.
func (s *Solver) ComponentSpectralGaps(g *Graph) []float64 {
	return spectral.ComponentGapsOn(s.Plan(g), nil)
}

// planFor is the single-slot plan cache (callers hold s.mu).  Validation
// honors Options.TrustGraph: the default revalidates edge content with an
// O(m) fingerprint pass (catching in-place mutation), TrustGraph checks
// only the edge count.  A cached plan whose graph has grown by appended
// edges is extended in place (old adjacency memcpy + scatter of the new
// endpoints) rather than rebuilt by counting sort — the delta path
// AddEdges relies on.  On a closed solver the pool is gone, so the plan is
// built sequentially and not cached — Plan/SpectralGap degrade gracefully
// instead of panicking on the released runtime.
func (s *Solver) planFor(g *graph.Graph) *graph.Plan {
	if s.closed {
		return graph.NewPlan(g)
	}
	if s.plan != nil && s.plan.G == g {
		if s.planStillValid() {
			return s.plan
		}
		if np := graph.ExtendPlanOn(s.rt, s.plan, g); np != nil {
			// The extension trusts the prefix, so verify it — even under
			// TrustGraph, whose promise covers only same-length overwrites:
			// a caller that compacted edges out and appended others changes
			// the length, and must be caught here, not served stale labels.
			// The one provable exception is the session-owned live graph,
			// whose mutations all pass through AddEdges/RemoveEdges under
			// this same lock (and RemoveEdges drops the plan), so its
			// prefix cannot have been rewritten — skipping the O(m) scan
			// there keeps AddEdges-then-solve streams on the delta path's
			// O(batch) cost.  A mutated prefix falls through to rebuild.
			if (s.inc != nil && s.inc.g == g) || np.Valid() {
				s.plan = np
				return s.plan
			}
		}
	}
	s.plan = graph.BuildPlanOn(s.rt, g)
	return s.plan
}

// planStillValid applies the option-selected validation to the cached plan
// (callers hold s.mu and have checked s.plan.G).
func (s *Solver) planStillValid() bool {
	if s.opt.TrustGraph {
		return s.plan.ValidQuick()
	}
	return s.plan.Valid()
}

// Tuning of the sampling fast path and the auto dispatcher.  The constants
// are deliberately coarse: the decision only has to be right about orders
// of magnitude, and every branch is correct — a wrong guess costs wall
// clock, never the partition.
const (
	// sampleRounds is the number of neighbor-sampling rounds before the
	// skip pass; Afforest's k.  Two rounds settle dense communities and —
	// because low-degree vertices enumerate their adjacency exactly —
	// cover degree ≤ 2 regions completely.
	sampleRounds = 2
	// sampleProbes sizes the majority vote and the skip-ratio probe.
	sampleProbes = 1024
	// sampleMajorityCover is the majority coverage above which the skip
	// pass proceeds without probing edges: a component holding ≥ 45% of
	// the vertices guarantees a large settled-edge fraction by itself.
	sampleMajorityCover = 0.45
	// autoTinyCutoff is the n+m size below which Auto picks the
	// sequential union-find: at that scale pool dispatch and atomics cost
	// more than the whole solve.
	autoTinyCutoff = 1 << 13
	// autoSampleAvgDeg is the average degree (2m/n) at which Auto
	// switches from cas to sample unconditionally.  The sampling phase's
	// cost is dominated by its ~n successful hooks — a hard floor
	// independent of m — so sampling only pays once the edge pass it
	// eliminates is worth several multiples of that floor; measured on
	// this container the unconditional crossover sits at 2m/n ≈ 16.
	autoSampleAvgDeg = 16.0
	// autoSampleSkewDeg/autoSampleMaxDeg bound the inconclusive band
	// below autoSampleAvgDeg where the average alone cannot decide: a
	// moderate average hiding a high-degree core (lollipop/barbell-style
	// clique cores) still samples well, because the core collapses in one
	// round and its edges dominate m.  In that band Auto consults the
	// plan's exact MaxDeg — building (and caching) the plan if the
	// session does not hold one yet.
	autoSampleSkewDeg = 4.0
	autoSampleMaxDeg  = 64
	// sampleIncMinEdges is the edge count above which the scoped repair
	// of RemoveEdges routes a dense region through the sampling fast path.
	sampleIncMinEdges = 1 << 15
	// frontierMeshAvgDeg / frontierMeshMaxDeg / frontierMeshLocality /
	// frontierCliqueMaxDeg describe the id-local regime the frontier
	// engine wins: low average degree (grids are 4, tori 4, paths 2 —
	// random sparse graphs sit higher or fail locality) and id-local
	// edges (generated meshes connect id-adjacent vertices and score ≈ 1
	// on the sampled locality; gnm-style random graphs score ≈
	// 2/localityWindow).  Within that band the max degree separates the
	// shapes whose flood pass leaves only a small residual for the hook
	// pass from the ones where it does not: bounded-degree lattices
	// (MaxDeg ≤ frontierMeshMaxDeg — every vertex adjacent to its
	// immediate predecessors, so the ascending flood carries each chunk's
	// minimum through and only chunk boundaries stay active) and locally
	// dense blocks (MaxDeg ≥ frontierCliqueMaxDeg — cliques and hub
	// clusters whose vertices see the region minimum directly, as in
	// barbell and lollipop).  In the middle band — randomly wired sparse
	// local blocks, e.g. a union of small gnm components — the flood
	// leaves most vertices unsettled, so it would be paid on top of a
	// full union-find pass; those stay with the union-find kernels.
	frontierMeshAvgDeg   = 6.0
	frontierMeshMaxDeg   = 8
	frontierCliqueMaxDeg = 64
	frontierMeshLocality = 0.95
	// frontierIncMinEdges is the edge count above which the scoped repair
	// of RemoveEdges considers routing a region through the frontier
	// engine.
	frontierIncMinEdges = 1 << 14
)

// sampleFallbackSkip is the predicted skip ratio below which the sample
// algorithm concedes the gamble and runs the full FLS pipeline instead.
// Package-level variable so tests can force the fallback deterministically.
var sampleFallbackSkip = 0.2

// chooseAuto is the Auto dispatch decision: tiny inputs to the sequential
// union-find, clearly dense inputs to the sampling fast path, clearly
// sparse ones to cas — all decided O(1) from n and m.  In the inconclusive
// band between the sparse and dense thresholds the average is refined by
// the plan's exact degree statistics (a moderate average can hide a
// high-degree clique core whose edges dominate m and sample away): the
// plan is built through the session cache if not already held, an O(m)
// cost paid once per graph and reused by every later solve — and by the
// sample algorithm itself if selected.  With Options.TrustGraph unset, a
// warm re-decision in that band revalidates the cached plan's fingerprint
// (O(m)), the same cost every plan consumer pays.  The decision table is
// documented in docs/ARCHITECTURE.md.  Callers hold s.mu.
//
// Below the dense threshold the mesh rule runs first: an O(1) sampled
// edge-locality sweep over the edge list decides whether the graph looks
// id-local (grids, tori, paths, barbells score ≈ 1; random sparse graphs
// ≈ 0.1), and only then is the plan consulted for the exact MaxDeg that
// separates the flood-in-O(1)-rounds shapes (bounded-degree lattices,
// locally dense clique blocks) from id-local regions wired randomly inside
// — so purely random sparse inputs still dispatch O(1), without a plan
// build.
//
// Alongside the decision it reports the decision-table row that fired
// ("tiny", "dense", "mesh", "skewed", "sparse"), the plan's max degree
// when a band consulted it (0 otherwise), and the sampled edge locality
// when the mesh rule measured it (−1 otherwise) — the inputs
// Trace.Dispatch records.
func (s *Solver) chooseAuto(g *Graph) (Algorithm, string, int, float64) {
	n, m := g.N, g.M()
	if n+m <= autoTinyCutoff {
		return UnionFind, "tiny", 0, -1
	}
	avg := 2 * float64(m) / float64(n)
	if avg >= autoSampleAvgDeg {
		return Sample, "dense", 0, -1
	}
	if avg <= frontierMeshAvgDeg {
		if loc := graph.EdgeLocality(g.N, g.Edges); loc >= frontierMeshLocality {
			plan := s.planFor(g)
			if int(plan.MaxDeg) <= frontierMeshMaxDeg || int(plan.MaxDeg) >= frontierCliqueMaxDeg {
				return Frontier, "mesh", int(plan.MaxDeg), loc
			}
			// Id-local but randomly wired inside (moderate max degree —
			// neither lattice nor dense block): the seed sweep cannot
			// flood such regions in O(1) rounds, so fall through to the
			// degree bands with the plan in hand.
			if avg >= autoSampleSkewDeg && float64(plan.MaxDeg) >= autoSampleMaxDeg {
				return Sample, "skewed", int(plan.MaxDeg), loc
			}
			return CASUnite, "sparse", int(plan.MaxDeg), loc
		}
	}
	if avg >= autoSampleSkewDeg {
		plan := s.planFor(g)
		if float64(plan.MaxDeg) >= autoSampleMaxDeg && plan.AvgDeg() >= autoSampleSkewDeg {
			return Sample, "skewed", int(plan.MaxDeg), -1
		}
		return CASUnite, "sparse", int(plan.MaxDeg), -1
	}
	return CASUnite, "sparse", 0, -1
}

// solveSample is the Afforest-style sampling solve: sample → flatten →
// probe → skip → finish, with the FLS pipeline as the fallback when the
// probes predict too low a skip ratio.  Returns the labels, the skip ratio
// (measured when the skip pass ran, the failing probe estimate when it did
// not), and the FLS result if the fallback ran (nil otherwise).  The
// kernel phases are charged nominally, like CASUnite; an FLS fallback adds
// the pipeline's own charges on top, so Steps/Work honestly reflect the
// wasted gamble.  Callers hold s.mu.
func (s *Solver) solveSample(g *Graph, params core.Params, dst []int32) ([]int32, float64, *core.Result) {
	rec := s.cx.Rec
	span := rec.Begin()
	e := s.rt
	plan := s.planFor(g)
	span = rec.Lap(obs.PhasePlan, span)
	n := g.N
	p := dst
	if cap(p) < n {
		p = make([]int32, n)
	}
	p = p[:n]

	var est float64
	maj := int32(-1)
	probeBuf := s.cx.Grab32(sampleProbes)
	defer s.cx.Release32(probeBuf)
	s.m.Contract(prim.Log2Ceil(n+2)+1, int64((sampleRounds+1)*n+2*sampleProbes), func() {
		e.Run(n, func(v int) { p[v] = int32(v) })
		att, hk := par.SampleUnite(e, p, plan.CSR, sampleRounds)
		rec.Add(obs.CtrCASAttempts, att)
		rec.Add(obs.CtrCASHooks, hk)
		span = rec.Lap(obs.PhaseSample, span)
		par.Compress(e, p)
		span = rec.Lap(obs.PhaseCompress, span)
		root, cover := par.MajorityRoot(e, p, sampleProbes, probeBuf)
		rec.Set(obs.GaugeCoverPPM, obs.PPM(cover))
		if cover >= sampleMajorityCover {
			// A dominant component: the finish pass skips its vertices'
			// adjacency ranges wholesale (the pure Afforest signal — no
			// need to probe edges).
			maj, est = root, 1
			rec.Set(obs.GaugeMajorityMode, 1)
		} else {
			// No single majority — probe sampled edges directly, which
			// keeps multi-community graphs (every block settled, none
			// dominant) on the fast path, in direction-filtered mode.
			est = par.EstimateSkip(e, p, g.Edges, sampleProbes)
		}
		rec.Set(obs.GaugeSkipEstPPM, obs.PPM(est))
		span = rec.Lap(obs.PhaseVote, span)
	})
	if est < sampleFallbackSkip {
		r := core.ConnectivityOn(s.cx, g, params, p)
		return r.Labels, est, r
	}

	var processed int64
	s.m.Contract(prim.Log2Ceil(n+2)+1, int64(2*g.M()+n), func() {
		span = rec.Begin()
		var hooks int64
		processed, hooks = par.SkipUnite(e, p, plan.CSR, maj)
		rec.Add(obs.CtrCASAttempts, processed)
		rec.Add(obs.CtrCASHooks, hooks)
		span = rec.Lap(obs.PhaseSkip, span)
		par.Compress(e, p)
		rec.End(obs.PhaseCompress, span)
	})
	ratio := 1.0
	if m := g.M(); m > 0 {
		// Approximate in majority mode (an unsettled edge between two
		// non-majority vertices is attempted from both sides), exact in
		// the filtered mode; clamped for the pathological double-count.
		ratio = max(0, 1-float64(processed)/float64(m))
	}
	return p, ratio, nil
}

// sampleLabelsInto is the uncharged kernel sequence of the sampling fast
// path over an explicit CSR — identity init, sampling rounds, flatten,
// full skip pass, flatten, root count — run by the scoped repair of
// RemoveEdges on large dense regions.  Returns the labels (component
// minima) and the exact component count.  Callers hold s.mu.
func (s *Solver) sampleLabelsInto(e *par.Runtime, g *graph.Graph, csr *graph.CSR, dst []int32) ([]int32, int) {
	rec := s.cx.Rec
	span := rec.Begin()
	n := g.N
	p := dst
	if cap(p) < n {
		p = make([]int32, n)
	}
	p = p[:n]
	e.Run(n, func(v int) { p[v] = int32(v) })
	att, hk := par.SampleUnite(e, p, csr, sampleRounds)
	rec.Add(obs.CtrCASAttempts, att)
	rec.Add(obs.CtrCASHooks, hk)
	span = rec.Lap(obs.PhaseSample, span)
	par.Compress(e, p)
	span = rec.Lap(obs.PhaseCompress, span)
	maj := int32(-1)
	probeBuf := s.cx.Grab32(sampleProbes)
	root, cover := par.MajorityRoot(e, p, sampleProbes, probeBuf)
	rec.Set(obs.GaugeCoverPPM, obs.PPM(cover))
	if cover >= sampleMajorityCover {
		maj = root
		rec.Set(obs.GaugeMajorityMode, 1)
	}
	s.cx.Release32(probeBuf)
	span = rec.Lap(obs.PhaseVote, span)
	att, hk = par.SkipUnite(e, p, csr, maj)
	rec.Add(obs.CtrCASAttempts, att)
	rec.Add(obs.CtrCASHooks, hk)
	span = rec.Lap(obs.PhaseSkip, span)
	par.Compress(e, p)
	span = rec.Lap(obs.PhaseCompress, span)
	roots := par.Count(e, n, func(v int) bool { return p[v] == int32(v) })
	rec.End(obs.PhaseCount, span)
	return p, int(roots)
}

// sampleWorthwhile reports whether the scoped repair should label a
// region through the sampling fast path: enough edges that
// the skip pass amortizes its CSR traversal, and dense enough that a
// meaningful fraction of them will be skipped.
func sampleWorthwhile(g *graph.Graph) bool {
	return g.M() >= sampleIncMinEdges && 2*float64(g.M()) >= autoSampleAvgDeg*float64(g.N)
}

// solveFrontier is the frontier-driven solve: plan lookup, then the
// frontier kernel sequence under a nominal model charge (one O(log n)-deep
// linear-work contraction, like CASUnite — CAS retry and revisit counts
// are not PRAM quantities).  Callers hold s.mu.
func (s *Solver) solveFrontier(g *Graph, dst []int32) ([]int32, int) {
	rec := s.cx.Rec
	span := rec.Begin()
	e := s.rt
	plan := s.planFor(g)
	rec.End(obs.PhasePlan, span)
	var labels []int32
	var comps int
	s.m.Contract(prim.Log2Ceil(g.N+2)+1, int64(2*g.M()+g.N), func() {
		labels, comps = s.frontierLabelsInto(e, g, plan.CSR, dst)
	})
	return labels, comps
}

// frontierLabelsInto is the uncharged kernel sequence of the frontier
// engine over an explicit CSR — identity labels, a full cold-solve seed,
// the two-pass propagate (flood, then hook the residual) over the
// session's reusable frontier pair, then a minima count (a label equals
// its index exactly once per component) — shared by the frontier solve
// and the scoped repair of RemoveEdges on mesh-like regions.  Returns the
// labels (component minima) and the exact component count.  Callers hold
// s.mu.
func (s *Solver) frontierLabelsInto(e *par.Runtime, g *graph.Graph, csr *graph.CSR, dst []int32) ([]int32, int) {
	rec := s.cx.Rec
	span := rec.Begin()
	n := g.N
	p := dst
	if cap(p) < n {
		p = make([]int32, n)
	}
	p = p[:n]
	e.Run(n, func(v int) { p[v] = int32(v) })
	cur, next := s.frontierPair(n)
	cur.SeedAll()
	// The per-pass occupancy hook is bound only when tracing is on, so the
	// tracing-off path carries a nil check per pass, not a call.
	var onRound func(occ int64)
	if rec != nil {
		onRound = rec.RecordFrontierRound
	}
	st := par.FrontierPropagate(e, p, csr, cur, next, onRound)
	rec.Add(obs.CtrFrontierInspected, st.Inspected)
	rec.Add(obs.CtrFrontierLowered, st.Lowered)
	span = rec.Lap(obs.PhaseSolve, span)
	comps := par.Count(e, n, func(v int) bool { return p[v] == int32(v) })
	rec.End(obs.PhaseCount, span)
	return p, int(comps)
}

// frontierPair returns the session's reusable frontier pair sized for n
// vertices, building or growing it through the arena on demand.  Both
// frontiers are empty between operations (the engine consumes them), so
// reuse and Resize need no clearing.  Callers hold s.mu.
func (s *Solver) frontierPair(n int) (*par.Frontier, *par.Frontier) {
	if s.fCur == nil || s.fCur.Cap() < n {
		if s.fCur != nil {
			s.fCur.Free(s.arena)
			s.fNxt.Free(s.arena)
		}
		s.fCur = par.NewFrontier(s.arena, n)
		s.fNxt = par.NewFrontier(s.arena, n)
		return s.fCur, s.fNxt
	}
	s.fCur.Resize(n)
	s.fNxt.Resize(n)
	return s.fCur, s.fNxt
}

// frontierWorthwhile reports whether the scoped repair should label a
// region through the frontier engine: the same mesh signals the Auto
// dispatcher uses (low average degree, id-local edges), plus enough edges
// that the engine's fixed per-solve costs amortize.  Computed from the
// edge list directly — scoped subgraphs never hold a plan.
func frontierWorthwhile(g *graph.Graph) bool {
	return g.M() >= frontierIncMinEdges &&
		2*float64(g.M()) <= frontierMeshAvgDeg*float64(g.N) &&
		graph.EdgeLocality(g.N, g.Edges) >= frontierMeshLocality
}

func knownAlgorithm(a Algorithm) bool {
	switch a {
	case FLS, FLSKnownGap, LTZ, SV, RandomMate, LabelProp, LT, ParBFS,
		CASUnite, UnionFind, BFS, Sample, Frontier, Auto:
		return true
	}
	return false
}

// effectiveSeed resolves the Options seed convention: a nonzero Seed wins;
// the zero value means "unset" and selects the default seed 1 — unless
// ZeroSeed asks for the literal seed 0.
func effectiveSeed(o Options) uint64 {
	if o.Seed != 0 {
		return o.Seed
	}
	if o.ZeroSeed {
		return 0
	}
	return 1
}

func stageCostsInto(dst []StageCost, marks []pram.Mark) []StageCost {
	dst = dst[:0]
	for _, mk := range marks {
		dst = append(dst, StageCost{Stage: mk.Label, Steps: mk.Steps, Work: mk.Work})
	}
	return dst
}
