package parcc

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parcc/internal/core"
	"parcc/internal/graph"
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
	seed  uint64  // effective seed (an unset Options.Seed resolved to 1)
	procs int

	// rec is the session's trace recorder: non-nil exactly when
	// Options.Trace is set, immutable after NewSolver (so SolveInto may
	// read it without s.mu).  Nil threads through cx.Rec as the no-op
	// tracing-off state.
	rec *obs.Recorder

	mu        sync.Mutex
	m         *pram.Machine
	rt        *par.Runtime // the session's one pool: Procs wide, 1 for sequential
	arena     *par.Arena
	cx        *solve.Ctx  // persistent solve context (machine+arena+recorder)
	plan      *graph.Plan // single-slot plan cache (most recent graph)
	inc       *incSession // live incremental session (nil until Attach)
	lastTrace *Trace      // most recent traced operation (tracing on only)
	closed    bool
	// front is the frontier engine's reusable residual set (nil until
	// first needed; empty between solves), so warm frontier solves
	// allocate nothing.
	front *par.Frontier

	// snap is the published read view (see PublishSnapshot/ReadView):
	// written under mu, loaded lock-free by any number of readers.
	// snapVersion counts publishes across the Solver's whole lifetime.
	snap        atomic.Pointer[Snapshot]
	snapVersion uint64
	// pages is the copy-on-write paged snapshot mirror (pages.go), built
	// by Attach (nil until then); its flush is also the live forest's
	// flattening.
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
	var rt *par.Runtime // nil: the machine is the sequential simulator
	if o.Backend == BackendConcurrent {
		rt = s.rt
	}
	if o.Trace {
		s.rec = obs.NewRecorder()
	}
	s.m = pram.New(pram.Seed(s.seed), pram.OnRuntime(rt))
	s.cx = solve.New(s.m).WithArena(s.arena).WithRecorder(s.rec)
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
// other fields are overwritten.  On error the fields are left as they
// were, but the backing array of res.Labels may have been overwritten.
//
// An invalid g gets Graph.Validate's error, wrapped, from every
// algorithm; each checks the edges where it first reads them.  The vertex
// count is checked on entry, so no array is ever sized from a bad n.
// FLS and FLS-known-gap sweep the edges up front; union-find and cas
// check each edge in their one pass over the list; sample and frontier
// read only the cached CSR plan, and a plan is built only from a graph
// that passes Validate.
func (s *Solver) SolveInto(g *Graph, res *Result) error {
	if g == nil {
		return ErrNilGraph
	}
	if g.N < 0 || g.N > math.MaxInt32 {
		return fmt.Errorf("parcc: %w", g.Validate())
	}
	// s.rec is immutable after NewSolver, so the trace clock may start
	// ahead of the lock: the traced total includes the wait for it.
	var start time.Time
	if s.rec != nil {
		start = time.Now()
	}
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

	params := core.Default(g.N)
	params.Seed ^= s.seed

	algo := o.Algorithm
	var pick *DispatchDecision
	if algo == Auto {
		pick = pickKernel(g, s.procs)
		algo = pick.Chosen
	}
	out := Result{
		Algorithm: algo, Backend: o.Backend, Procs: s.procs,
		Breakdown: res.Breakdown[:0],
	}
	dst := res.Labels
	switch algo {
	case FLS, FLSKnownGap:
		// The charged pipelines read the edge list in many passes, so
		// they keep the up-front sweep.
		span := rec.Begin()
		if err := g.Validate(); err != nil {
			return fmt.Errorf("parcc: %w", err)
		}
		rec.End(obs.PhaseValidate, span)
		if algo == FLS {
			r := core.Connectivity(cx, g, params, dst)
			out.Labels, out.NumComponents, out.Phases = r.Labels, r.NumComponents, r.Phases
			out.Breakdown = stageCostsInto(out.Breakdown, r.Breakdown)
		} else {
			r := core.SolveKnownGap(cx, g, o.KnownGapB, params, dst)
			out.Labels, out.NumComponents = r.Labels, r.NumComponents
			out.Breakdown = stageCostsInto(out.Breakdown, r.Breakdown)
		}
	default:
		// UnionFind, CASUnite, Frontier or Sample: NewSolver admits no
		// other algorithm, and Auto resolved to one of them above.
		steps, work := nominalCharge(algo, g.N, g.M())
		var err error
		m.Contract(steps, work, func() {
			out.Labels, out.NumComponents, out.SkipRatio, err = s.runKernel(algo, g, dst)
		})
		if err != nil {
			return fmt.Errorf("parcc: %w", err)
		}
	}
	out.Steps = m.Steps()
	out.Work = m.Work()
	if rec != nil {
		tr := traceFromRecorder(rec, "solve", algo, time.Since(start))
		tr.SkipRatio = out.SkipRatio
		tr.Dispatch = pick
		out.Trace = tr
		s.lastTrace = tr
	}
	*res = out
	return nil
}

// Plan returns the session's cached CSR plan for g, building it if the
// cache holds another or a stale graph.  Useful for driving the spectral
// estimators against the same adjacency the solves use.  It panics with
// Graph.Validate's error on an invalid g.
func (s *Solver) Plan(g *Graph) *graph.Plan {
	s.mu.Lock()
	defer s.mu.Unlock()
	pl, _, err := s.planFor(g, s.rec.Begin())
	if err != nil {
		panic(fmt.Errorf("parcc: %w", err))
	}
	return pl
}

// SpectralGap is parcc.SpectralGap against the session's cached plan.
func (s *Solver) SpectralGap(g *Graph) float64 {
	return spectral.Gap(s.Plan(g), nil)
}

// ComponentSpectralGaps is parcc.ComponentSpectralGaps against the
// session's cached plan.
func (s *Solver) ComponentSpectralGaps(g *Graph) []float64 {
	return spectral.ComponentGaps(s.Plan(g), nil)
}

// planFor is the single-slot plan cache (callers hold s.mu).  Validation
// honors Options.TrustGraph: the default revalidates edge content with an
// O(m) fingerprint pass (catching in-place mutation), TrustGraph checks
// only the vertex and edge counts.  A cached plan whose graph has changed
// is rebuilt, and only from a graph that passes Validate: a reused plan
// was built from in-range edges, so the kernels that read only the CSR
// need no sweep of their own.  span is the caller's open trace span;
// planFor laps the validation (builds only) and the plan lookup onto it
// and returns the next span start.
func (s *Solver) planFor(g *graph.Graph, span int64) (*graph.Plan, int64, error) {
	rec := s.rec
	if s.plan == nil || s.plan.G != g || !s.planStillValid() {
		if err := g.Validate(); err != nil {
			return nil, span, err
		}
		span = rec.Lap(obs.PhaseValidate, span)
		s.plan = graph.NewPlan(g)
	}
	return s.plan, rec.Lap(obs.PhasePlan, span), nil
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
	// sampleProbes sizes the majority vote.
	sampleProbes = 1024
	// sampleMajorityCover is the majority coverage above which the skip
	// pass skips the majority's vertices wholesale: a component holding
	// ≥ 45% of the vertices guarantees a large settled-edge fraction by
	// itself.  Below it the pass runs direction-filtered, which keeps
	// multi-community graphs (every block settled, none dominant) cheap.
	sampleMajorityCover = 0.45
	// autoTinyCutoff is the n+m size below which Auto picks union-find
	// at any procs: at that scale pool dispatch and atomics cost more than
	// the whole solve.
	autoTinyCutoff = 1 << 13
	// autoSampleAvgDeg is the average degree (2m/n) from which Auto picks
	// sample over the edge-pass kernels.  The sampling phase's cost is
	// dominated by its ~n successful hooks — a floor independent of m —
	// so sampling pays only once the edge pass it skips is worth several
	// multiples of that floor.  Measured at n = 2^15 against union-find
	// (TestAutoWithinBestFixed, 2-vCPU host): sample wins complete,
	// block and community by 1.07–1.5×, and gnm-dense (2m/n = 32) by
	// 1.14–1.31× at procs 2, with the two within the thread clock's noise
	// at procs 1; union-find wins everything with 2m/n ≤ 16 by ≥ 1.5×.
	// The threshold sits in that gap (docs/ARCHITECTURE.md §7).
	autoSampleAvgDeg = 24.0
	// autoSeqProcs is the widest session on which Auto sends a sparse
	// graph to union-find rather than cas.  On a 2-vCPU host, the widest
	// measured, union-find beat cas at procs 2 on every family with
	// 2m/n ≤ 16 by 1.06–4× (hypercube at 2^16 a tie): a CAS costs several
	// plain stores there, and the second worker buys no speedup on random
	// parent updates.  Wider sessions keep cas until a host's SP table
	// shows where the pool starts to pay.
	autoSeqProcs = 2
)

// pickKernel is Auto's kernel decision in SolveInto: tiny inputs to
// union-find, dense ones to the sampling fast path, and sparse ones to
// union-find on sessions of at most autoSeqProcs procs and to cas on
// wider ones.  The rows read n, m and the session's procs alone, so the
// decision is O(1) and never builds a plan — the union-find kernels walk
// the edge list, and only a sample pick needs the CSR.  The frontier
// engine has no row: against the splicing union-find it is never the
// fastest kernel in the measured matrix.  The table and what the matrix
// showed are documented in docs/ARCHITECTURE.md §7.
//
// The result is the Trace.Dispatch record: the kernel, the table row
// that fired ("tiny", "dense", "sparse", "wide"), and the statistics it
// read.
func pickKernel(g *graph.Graph, procs int) *DispatchDecision {
	n, m := g.N, g.M()
	d := &DispatchDecision{N: n, M: m, AvgDeg: 2 * float64(m) / float64(max(n, 1)), Procs: procs}
	switch {
	case n+m <= autoTinyCutoff:
		d.Chosen, d.Rule = UnionFind, "tiny"
	case d.AvgDeg >= autoSampleAvgDeg:
		d.Chosen, d.Rule = Sample, "dense"
	case procs <= autoSeqProcs:
		d.Chosen, d.Rule = UnionFind, "sparse"
	default:
		d.Chosen, d.Rule = CASUnite, "wide"
	}
	return d
}

// nominalCharge is the model cost SolveInto books around runKernel — the
// kernels' CAS retries and revisits are not PRAM quantities.  Cas and
// frontier are one O(log n)-deep contraction of linear work; sample is
// two (sampling rounds plus vote, then the finish pass); the sequential
// union-find is uncharged, like the other sequential baselines.
func nominalCharge(algo Algorithm, n, m int) (steps, work int64) {
	depth := prim.Log2Ceil(n+2) + 1
	switch algo {
	case CASUnite, Frontier:
		return depth, int64(2*m + n)
	case Sample:
		return 2 * depth, int64((sampleRounds+1)*n + 2*sampleProbes + 2*m + n)
	}
	return 0, 0
}

// runKernel labels g with one of the four wall-clock kernels — the three
// pickKernel chooses from, and frontier, which runs only when
// Options.Algorithm asks for it — uncharged: SolveInto wraps it in
// nominalCharge.  plan supplies the CSR the frontier and sample kernels
// walk.  Every arm records its own trace phases and returns the
// component-minimum labels, the exact component count, and — for sample
// — the skip ratio.  Callers hold s.mu.
//
//   - union-find: par.Components' one-worker form on any session — an
//     identity loop, one plain-store UniteRem pass over the edge list and
//     one ascending flatten;
//   - cas: par.Components on the session's pool, which is that same
//     one-worker form when the pool has one proc;
//   - frontier: identity labels, then the two-pass propagate (flood
//     [0,n), then hook the residual) into one of the session's reusable
//     frontiers;
//   - sample: Afforest's sampling rounds, flatten, majority vote, then
//     the finish pass that skips the majority's adjacency ranges unread
//     (direction-filtered when no component dominates), and a flatten.
//
// Union-find, cas and sample count the components from their hooks (n
// minus the merges); frontier counts the labels that name themselves.
func (s *Solver) runKernel(algo Algorithm, g *graph.Graph, dst []int32) ([]int32, int, float64, error) {
	cx, rec, e := s.cx, s.cx.Rec, s.rt
	n := g.N
	span := rec.Begin()
	switch algo {
	case UnionFind, CASUnite:
		rt := e
		if algo == UnionFind {
			rt = nil
		}
		p, comps, ok := par.Components(rt, g, dst)
		if !ok {
			// The pass met an out-of-range edge; Validate names the first.
			return nil, 0, 0, g.Validate()
		}
		rec.End(obs.PhaseSolve, span)
		// Every edge is attempted once; the hooks are the merges.
		rec.Add(obs.CtrCASAttempts, int64(g.M()))
		rec.Add(obs.CtrCASHooks, int64(n-comps))
		return p, comps, 0, nil
	case Frontier:
		pl, next, err := s.planFor(g, span)
		if err != nil {
			return nil, 0, 0, err
		}
		span = next
		p := identityInto(e, dst, n)
		res := s.frontier(n)
		// The per-pass occupancy hook is bound only when tracing is on, so
		// the tracing-off path carries a nil check per pass, not a call.
		var onRound func(occ int64)
		if rec != nil {
			onRound = rec.RecordFrontierRound
		}
		st := par.FrontierPropagate(e, p, pl.CSR, res, onRound)
		rec.Add(obs.CtrFrontierInspected, st.Inspected)
		rec.Add(obs.CtrFrontierLowered, st.Lowered)
		span = rec.Lap(obs.PhaseSolve, span)
		// The labels are component minima: one names itself per component.
		comps := 0
		for v, l := range p {
			if l == int32(v) {
				comps++
			}
		}
		rec.End(obs.PhaseCount, span)
		return p, comps, 0, nil
	default: // Sample
		pl, next, err := s.planFor(g, span)
		if err != nil {
			return nil, 0, 0, err
		}
		span = next
		csr := pl.CSR
		p := identityInto(e, dst, n)
		att, sampled := par.SampleUnite(e, p, csr, sampleRounds)
		rec.Add(obs.CtrCASAttempts, att)
		rec.Add(obs.CtrCASHooks, sampled)
		span = rec.Lap(obs.PhaseSample, span)
		par.Compress(e, p)
		span = rec.Lap(obs.PhaseCompress, span)
		maj := int32(-1)
		probeBuf := cx.Grab32(sampleProbes)
		root, cover := par.MajorityRoot(e, p, sampleProbes, probeBuf)
		cx.Release32(probeBuf)
		rec.Set(obs.GaugeCoverPPM, obs.PPM(cover))
		if cover >= sampleMajorityCover {
			maj = root
			rec.Set(obs.GaugeMajorityMode, 1)
		}
		span = rec.Lap(obs.PhaseVote, span)
		processed, hooks := par.SkipUnite(e, p, csr, maj)
		rec.Add(obs.CtrCASAttempts, processed)
		rec.Add(obs.CtrCASHooks, hooks)
		span = rec.Lap(obs.PhaseSkip, span)
		par.Compress(e, p)
		rec.End(obs.PhaseCompress, span)
		skip := 1.0
		if m := g.M(); m > 0 {
			// Approximate in majority mode (an unsettled edge between two
			// non-majority vertices is attempted from both sides), exact in
			// the filtered mode; clamped for the pathological double-count.
			skip = max(0, 1-float64(processed)/float64(m))
		}
		// Each hook of either pass merged two sets.
		return p, n - int(sampled+hooks), skip, nil
	}
}

// identityInto returns dst resized to n (grown if it lacks the capacity)
// with every vertex its own label.
func identityInto(e *par.Runtime, dst []int32, n int) []int32 {
	p := dst
	if cap(p) < n {
		p = make([]int32, n)
	}
	p = p[:n]
	e.Run(n, func(v int) { p[v] = int32(v) })
	return p
}

// frontier returns the session's reusable frontier sized for n
// vertices, building or growing it through the arena on demand.  The
// engine leaves it empty, so reuse and Resize need no clearing.  Callers
// hold s.mu.
func (s *Solver) frontier(n int) *par.Frontier {
	if s.front == nil || s.front.Cap() < n {
		if s.front != nil {
			s.front.Free(s.arena)
		}
		s.front = par.NewFrontier(s.arena, n)
		return s.front
	}
	s.front.Resize(n)
	return s.front
}

func knownAlgorithm(a Algorithm) bool {
	switch a {
	case FLS, FLSKnownGap, UnionFind, CASUnite, Sample, Frontier, Auto:
		return true
	}
	return false
}

// effectiveSeed resolves the Options seed convention: the zero value
// means "unset" and selects the default seed 1.
func effectiveSeed(o Options) uint64 {
	return cmp.Or(o.Seed, 1)
}

func stageCostsInto(dst []StageCost, marks []pram.Mark) []StageCost {
	dst = dst[:0]
	for _, mk := range marks {
		dst = append(dst, StageCost{Stage: mk.Label, Steps: mk.Steps, Work: mk.Work})
	}
	return dst
}
