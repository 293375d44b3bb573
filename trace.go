package parcc

import (
	"fmt"
	"io"
	"sort"
	"time"

	"parcc/internal/obs"
)

// Trace is the structured observation of one solver operation, populated
// when Options.Trace is set.  It is the external form of the
// internal/obs.Recorder the solve paths write into: per-phase wall times
// with stable names, the kernel counters (CAS attempts vs. successful
// hooks, FLS phase and LTZ round counts), the sampling fast path's probe
// signals, the kernel dispatcher's decision with the plan statistics that
// drove it, and — for the live-update path — the batch shape of the
// incremental operation.
//
// A Trace is immutable once returned: Result.Trace and Solver.LastTrace
// hand out a freshly built value per traced operation, safe to retain and
// read concurrently with later solves.  With tracing off both are nil and
// the solve paths allocate nothing for it.
type Trace struct {
	// Op identifies the traced operation: "solve", "attach", "add-edges",
	// or "remove-edges".
	Op string `json:"op"`
	// Algorithm is the concrete algorithm that ran ("incremental" for the
	// live-update operations).
	Algorithm Algorithm `json:"algorithm"`
	// Total is the operation's wall time, validation included.
	Total time.Duration `json:"total_ns"`
	// Phases lists the per-phase wall times in execution order; phases
	// that did not run are omitted.  Interleaved stage loops (FLS
	// INTERWEAVE, a deletion batch's replacement searches) pool all
	// iterations under one phase name.
	Phases []TracePhase `json:"phases"`
	// CASAttempts counts Unite calls the kernels issued (edges that
	// survived every skip test); CASHooks counts the ones that actually
	// merged two sets.  The difference is the benign-race retry traffic.
	CASAttempts int64 `json:"cas_attempts"`
	CASHooks    int64 `json:"cas_hooks"`
	// SkipRatio mirrors Result.SkipRatio: the measured fraction of edges
	// the sampling fast path settled without a Unite.
	SkipRatio float64 `json:"skip_ratio"`
	// SampledCoverage is the majority vote's coverage estimate;
	// MajorityMode reports whether the skip pass ran in majority mode
	// (vertex-wholesale skips) or direction-filtered mode.
	SampledCoverage float64 `json:"sampled_coverage"`
	MajorityMode    bool    `json:"majority_mode"`
	// FLSPhases mirrors Result.Phases: INTERWEAVE phases executed.
	FLSPhases int `json:"fls_phases"`
	// LTZRounds counts EXPAND-MAXLINK rounds across every LTZ invocation
	// of the operation (interweave Step 3, REMAIN, backstops, ltz proper).
	LTZRounds int64 `json:"ltz_rounds"`
	// Dispatch records the kernel decision of Auto's table for a solve
	// with Options.Algorithm Auto; nil otherwise.
	Dispatch *DispatchDecision `json:"dispatch,omitempty"`
	// Frontier records the frontier engine's pass structure; nil unless
	// the operation was a solve with Options.Algorithm Frontier.
	Frontier *TraceFrontier `json:"frontier,omitempty"`
	// Incremental records the batch shape of a live-update operation; nil
	// for plain solves.
	Incremental *TraceIncremental `json:"incremental,omitempty"`
}

// TracePhase is one phase span of a Trace.
type TracePhase struct {
	Name string        `json:"name"`
	Wall time.Duration `json:"wall_ns"`
}

// DispatchDecision is an Auto solve's kernel choice and the inputs of
// the decision table that made it.
type DispatchDecision struct {
	// Chosen is the concrete algorithm selected: union-find, cas, or
	// sample — never frontier or the FLS pipeline, which run only when
	// Options.Algorithm asks for them.  For a solve it
	// equals the owning Result.Algorithm — the golden contract the
	// dispatch tests pin.
	Chosen Algorithm `json:"chosen"`
	// Rule names the decision-table row that fired: "tiny" (union-find
	// at any procs), "dense" (sample), "sparse" (union-find, the
	// one-worker plain-store pass, on a session of at most two procs),
	// or "wide" (cas, a sparse graph on a wider session).
	Rule string `json:"rule"`
	// N, M, AvgDeg and Procs (the session's) are the O(1) statistics the
	// decision reads.
	N      int     `json:"n"`
	M      int     `json:"m"`
	AvgDeg float64 `json:"avg_deg"`
	Procs  int     `json:"procs"`
}

// TraceFrontier is the pass structure of a frontier-engine solve.
type TraceFrontier struct {
	// Rounds is the exact number of passes executed: the flood plus, when
	// it left a residual, the hook pass (so 1 or 2).  Occupancy holds each
	// pass's active-vertex count — [n, residual].
	Rounds    int     `json:"rounds"`
	Occupancy []int64 `json:"occupancy"`
	// Inspected counts adjacency entries the kernels examined — at most
	// 4m (2m flood, at most 2m more in the hook pass), whatever the
	// graph's diameter.  Lowered counts successful label
	// writes: flood lowerings plus hook-pass links.
	Inspected int64 `json:"inspected"`
	Lowered   int64 `json:"lowered"`
}

// TraceIncremental is the batch shape of a traced live-update operation.
type TraceIncremental struct {
	// BatchEdges is the number of edges in the applied batch.
	BatchEdges int64 `json:"batch_edges"`
	// DirtyComponents counts the components a deletion batch touched.
	DirtyComponents int64 `json:"dirty_components,omitempty"`
	// ScopedVertices/ScopedEdges size the dirty region the deletion
	// path's scoped repair relabeled.
	ScopedVertices int64 `json:"scoped_vertices,omitempty"`
	ScopedEdges    int64 `json:"scoped_edges,omitempty"`
	// Forest deletion counters: deleted forest vs non-forest edges,
	// replacement promotions, true splits, adjacency entries the searches
	// scanned, and searches that blew the budget into the scoped fallback.
	ForestDeletes    int64 `json:"forest_deletes,omitempty"`
	NonForestDeletes int64 `json:"non_forest_deletes,omitempty"`
	Replacements     int64 `json:"replacements,omitempty"`
	Splits           int64 `json:"splits,omitempty"`
	ReplaceScans     int64 `json:"replace_scans,omitempty"`
	BudgetFallbacks  int64 `json:"budget_fallbacks,omitempty"`
}

// PhaseSum returns the sum of the phase wall times — with tracing on, the
// instrumented paths keep it within a few percent of Total (the remainder
// is lock acquisition and the machine's bookkeeping).
func (t *Trace) PhaseSum() time.Duration {
	var sum time.Duration
	for _, ph := range t.Phases {
		sum += ph.Wall
	}
	return sum
}

// Phase returns the wall time of the named phase (0 when it did not run).
func (t *Trace) Phase(name string) time.Duration {
	for _, ph := range t.Phases {
		if ph.Name == name {
			return ph.Wall
		}
	}
	return 0
}

// WriteText pretty-prints the trace as the phase-breakdown table ccrun
// -trace shows: one line per phase with wall time and share of the total,
// then the counters and signals that were set.
func (t *Trace) WriteText(w io.Writer) {
	fmt.Fprintf(w, "trace: op=%s algorithm=%s total=%v\n", t.Op, t.Algorithm, t.Total)
	byWall := append([]TracePhase(nil), t.Phases...)
	sort.SliceStable(byWall, func(i, j int) bool { return byWall[i].Wall > byWall[j].Wall })
	for _, ph := range byWall {
		share := 0.0
		if t.Total > 0 {
			share = 100 * float64(ph.Wall) / float64(t.Total)
		}
		fmt.Fprintf(w, "  %-12s %12v  %5.1f%%\n", ph.Name, ph.Wall, share)
	}
	if t.CASAttempts > 0 {
		fmt.Fprintf(w, "  cas: attempts=%d hooks=%d\n", t.CASAttempts, t.CASHooks)
	}
	if t.Algorithm == Sample {
		fmt.Fprintf(w, "  sample: skip=%.3f coverage=%.3f majority=%v\n",
			t.SkipRatio, t.SampledCoverage, t.MajorityMode)
	}
	if t.FLSPhases > 0 {
		fmt.Fprintf(w, "  fls: phases=%d\n", t.FLSPhases)
	}
	if t.LTZRounds > 0 {
		fmt.Fprintf(w, "  ltz: rounds=%d\n", t.LTZRounds)
	}
	if d := t.Dispatch; d != nil {
		fmt.Fprintf(w, "  dispatch: %s (rule=%s n=%d m=%d avg-deg=%.2f procs=%d)\n", d.Chosen, d.Rule, d.N, d.M, d.AvgDeg, d.Procs)
	}
	if f := t.Frontier; f != nil {
		fmt.Fprintf(w, "  frontier: passes=%d inspected=%d lowered=%d\n",
			f.Rounds, f.Inspected, f.Lowered)
		for i, occ := range f.Occupancy {
			fmt.Fprintf(w, "    pass %d  occupancy=%d\n", i+1, occ)
		}
		if f.Rounds > len(f.Occupancy) {
			fmt.Fprintf(w, "    ... %d more passes (occupancy record capped at %d)\n",
				f.Rounds-len(f.Occupancy), len(f.Occupancy))
		}
	}
	if inc := t.Incremental; inc != nil {
		fmt.Fprintf(w, "  incremental: batch=%d", inc.BatchEdges)
		if inc.DirtyComponents > 0 {
			fmt.Fprintf(w, " dirty=%d scoped=%dv/%de",
				inc.DirtyComponents, inc.ScopedVertices, inc.ScopedEdges)
		}
		fmt.Fprintln(w)
		if inc.ForestDeletes+inc.NonForestDeletes > 0 {
			fmt.Fprintf(w, "  forest: deletes=%d non-forest=%d replaced=%d splits=%d scans=%d fallbacks=%d\n",
				inc.ForestDeletes, inc.NonForestDeletes, inc.Replacements,
				inc.Splits, inc.ReplaceScans, inc.BudgetFallbacks)
		}
	}
}

// traceFromRecorder converts the recorder's accumulated state into the
// external Trace form.  Callers hold s.mu (the recorder is quiescent).
func traceFromRecorder(rec *obs.Recorder, op string, algo Algorithm, total time.Duration) *Trace {
	tr := &Trace{Op: op, Algorithm: algo, Total: total}
	for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
		if d := rec.PhaseNanos(ph); d > 0 {
			tr.Phases = append(tr.Phases, TracePhase{Name: ph.String(), Wall: d})
		}
	}
	tr.CASAttempts = rec.Count(obs.CtrCASAttempts)
	tr.CASHooks = rec.Count(obs.CtrCASHooks)
	tr.FLSPhases = int(rec.Count(obs.CtrFLSPhases))
	tr.LTZRounds = rec.Count(obs.CtrLTZRounds)
	tr.SampledCoverage = obs.FromPPM(rec.Gauge(obs.GaugeCoverPPM))
	tr.MajorityMode = rec.Gauge(obs.GaugeMajorityMode) != 0
	if rounds := rec.Count(obs.CtrFrontierRounds); rounds > 0 {
		f := &TraceFrontier{
			Rounds:    int(rounds),
			Inspected: rec.Count(obs.CtrFrontierInspected),
			Lowered:   rec.Count(obs.CtrFrontierLowered),
		}
		f.Occupancy = make([]int64, rec.FrontierRounds())
		for i := range f.Occupancy {
			f.Occupancy[i] = rec.FrontierRound(i)
		}
		tr.Frontier = f
	}
	return tr
}

// incTraceFromRecorder adds the batch-shape counters to a traceFromRecorder
// conversion for the live-update operations.
func incTraceFromRecorder(rec *obs.Recorder, op string, total time.Duration) *Trace {
	tr := traceFromRecorder(rec, op, Incremental, total)
	tr.Incremental = &TraceIncremental{
		BatchEdges:       rec.Count(obs.CtrBatchEdges),
		DirtyComponents:  rec.Count(obs.CtrDirtyComponents),
		ScopedVertices:   rec.Count(obs.CtrScopedVertices),
		ScopedEdges:      rec.Count(obs.CtrScopedEdges),
		ForestDeletes:    rec.Count(obs.CtrForestDeletes),
		NonForestDeletes: rec.Count(obs.CtrNonForestDeletes),
		Replacements:     rec.Count(obs.CtrReplacements),
		Splits:           rec.Count(obs.CtrSplits),
		ReplaceScans:     rec.Count(obs.CtrReplaceScans),
		BudgetFallbacks:  rec.Count(obs.CtrBudgetFallbacks),
	}
	return tr
}

// LastTrace returns the Trace of the most recent traced operation on this
// solver — the last Solve/SolveInto, Attach, AddEdges, or RemoveEdges —
// or nil when tracing is off (Options.Trace unset) or nothing has run yet.
// The returned Trace is immutable; the serving layer's per-graph trace
// endpoint reads it concurrently with later operations.
func (s *Solver) LastTrace() *Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastTrace
}
