// Package obs is the observability layer of the solver stack: an
// allocation-free, atomic-counter Recorder that the solve paths thread
// through internal/solve.Ctx, and a small Prometheus-style metrics
// Registry the serving layer exports on /metrics.
//
// The Recorder's contract is built around two constraints of the hot
// paths it instruments:
//
//   - Nil-safety: every method is a no-op on a nil *Recorder, checked
//     first thing, so a solve path with tracing disabled pays exactly one
//     predictable (always-taken-the-same-way) branch per call site and no
//     allocation anywhere.  Callers never guard call sites themselves —
//     the nil receiver IS the "tracing off" state.
//   - Allocation freedom: phases, counters, and gauges are small fixed
//     enums indexing flat atomic arrays.  Begin/Lap/End pass int64
//     monotonic timestamps (nanoseconds since the package epoch, taken
//     from time.Since's monotonic reading), so recording a span is two
//     clock reads and one atomic add — no time.Time boxing, no maps, no
//     interface values.
//
// A Recorder is owned by one parcc.Solver and reset at the start of each
// traced operation (solve or incremental batch) under the session lock;
// the atomic operations make it additionally safe for the solve's worker
// goroutines to add counts concurrently mid-operation.
package obs

import (
	"sync/atomic"
	"time"
)

// Phase identifies one span of a solve or incremental operation.  The
// values are indices into the Recorder's flat timing array; String gives
// the stable external name used in traces and docs.
type Phase uint8

// Recorder phases.  The first group is the sampling fast path
// (sample → vote → skip), the second the FLS pipeline's stages, the third
// the incremental path, plus the shared bookkeeping spans.
const (
	// PhaseValidate is the up-front edge-range sweep (Graph.Validate).
	// It is recorded only for FLS, FLS-known-gap and plan builds: the
	// union-find and cas kernels check ranges in their own edge pass, and
	// a reused plan was built from validated edges.
	PhaseValidate Phase = iota
	// PhasePlan is CSR plan lookup: cache validation or a full rebuild.
	PhasePlan
	// PhaseSample is the neighbor-sampling rounds (par.SampleUnite).
	PhaseSample
	// PhaseVote is the majority vote (par.MajorityRoot).
	PhaseVote
	// PhaseSkip is the finish pass over the CSR (par.SkipUnite).
	PhaseSkip
	// PhaseCompress is forest flattening (par.Compress), wherever it runs.
	PhaseCompress
	// PhaseCount is component counting (root count or label dedup).
	PhaseCount
	// PhaseSolve is the whole kernel of an algorithm the tracer does not
	// decompose further (union-find, cas, the frontier passes).
	PhaseSolve
	// PhaseReduce is FLS Stage 1 (REDUCE).
	PhaseReduce
	// PhasePresample is the H1/H2 pre-sampling pass.
	PhasePresample
	// PhaseInterweave is the INTERWEAVE phase loop (all phases pooled).
	PhaseInterweave
	// PhaseIncrease is the known-gap pipeline's Stage 2 (INCREASE).
	PhaseIncrease
	// PhaseSampleSolve is the known-gap pipeline's Stage 3 (SAMPLESOLVE).
	PhaseSampleSolve
	// PhaseFinish is the FLS flatten/backstop completion.
	PhaseFinish
	// PhaseUnite is the one-worker union of Attach and AddEdges
	// (par.UniteBatch).
	PhaseUnite
	// PhaseExtract is the deletion path's setup (the mirror flush that
	// flattens the forest) and the scoped repair's gather of the dirty
	// region's vertices.
	PhaseExtract
	// PhaseScoped is the scoped repair's in-place union pass over the
	// dirty region's edges (labels and forest flags together).
	PhaseScoped
	// PhaseSplice is building the snapshot page mirror: Attach's O(n)
	// build of the whole mirror, and the scoped repair's re-derivation of
	// the region it relabeled.
	PhaseSplice
	// PhaseReplace is the deletion path's replacement-edge searches (all
	// of a batch's searches pooled, like the other stage loops).
	PhaseReplace

	// NumPhases bounds the enum; keep it last.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"validate", "plan", "sample", "vote", "skip", "compress", "count",
	"solve", "reduce", "presample", "interweave", "increase",
	"sample-solve", "finish", "unite", "extract", "scoped", "splice",
	"replace",
}

// String returns the phase's stable external name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Counter identifies one named monotonic counter.
type Counter uint8

// Recorder counters.
const (
	// CtrCASAttempts counts Unite calls issued by the kernels (an edge
	// that survived every skip test).
	CtrCASAttempts Counter = iota
	// CtrCASHooks counts Unite calls that actually merged two sets.
	CtrCASHooks
	// CtrFLSPhases counts INTERWEAVE phases executed.
	CtrFLSPhases
	// CtrLTZRounds counts EXPAND-MAXLINK rounds executed.
	CtrLTZRounds
	// CtrBatchEdges counts edges in the incremental batch applied.
	CtrBatchEdges
	// CtrDirtyComponents counts components a deletion batch dirtied.
	CtrDirtyComponents
	// CtrScopedVertices counts vertices of the dirty region the scoped
	// repair relabeled.
	CtrScopedVertices
	// CtrScopedEdges counts edges of the dirty region the scoped repair
	// relabeled.
	CtrScopedEdges
	// CtrFrontierRounds counts frontier-engine passes executed (it is also
	// the write cursor of the per-pass occupancy record — see
	// RecordFrontierRound).
	CtrFrontierRounds
	// CtrFrontierInspected counts adjacency entries the frontier kernels
	// examined — the direct measure of work ∝ frontier size, against the
	// 2m of one full adjacency read.
	CtrFrontierInspected
	// CtrFrontierLowered counts successful label writes (flood lowerings
	// and hook-pass links).
	CtrFrontierLowered
	// CtrForestDeletes counts deleted spanning-forest edges (each ran a
	// replacement search unless its component was already dirty).
	CtrForestDeletes
	// CtrNonForestDeletes counts deleted non-forest edges and self-loops —
	// the O(1) deletions that by construction never touch the partition.
	CtrNonForestDeletes
	// CtrReplacements counts replacement searches that promoted a crossing
	// edge (the component stayed connected).
	CtrReplacements
	// CtrSplits counts deletions that truly split a component (the smaller
	// side was relabeled in place).
	CtrSplits
	// CtrReplaceScans counts adjacency entries the replacement searches
	// inspected — the smaller-side work measure, against the component
	// sizes a scoped repair would have paid.
	CtrReplaceScans
	// CtrBudgetFallbacks counts replacement searches that blew their scan
	// budget and handed the component to the scoped repair.
	CtrBudgetFallbacks

	// NumCounters bounds the enum; keep it last.
	NumCounters
)

var counterNames = [NumCounters]string{
	"cas_attempts", "cas_hooks", "fls_phases", "ltz_rounds",
	"batch_edges", "dirty_components", "scoped_vertices", "scoped_edges",
	"frontier_rounds", "frontier_inspected", "frontier_lowered",
	"forest_deletes", "non_forest_deletes", "replacements", "splits",
	"replace_scans", "budget_fallbacks",
}

// String returns the counter's stable external name.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "unknown"
}

// Gauge identifies one last-write-wins value.
type Gauge uint8

// Recorder gauges.  Ratios are stored in parts-per-million so the whole
// Recorder stays int64/atomic (Trace converts back to float64).
const (
	// GaugeCoverPPM is the sampled majority coverage (ppm).
	GaugeCoverPPM Gauge = iota
	// GaugeMajorityMode is 1 when the skip pass ran in majority mode.
	GaugeMajorityMode

	// NumGauges bounds the enum; keep it last.
	NumGauges
)

// Recorder accumulates phase timings, counters, and gauges for one traced
// operation.  The zero value is ready; the nil value is "tracing off" —
// every method no-ops on a nil receiver (see the package comment for the
// contract).
type Recorder struct {
	phase [NumPhases]atomic.Int64 // accumulated nanoseconds
	count [NumCounters]atomic.Int64
	gauge [NumGauges]atomic.Int64
	// rounds holds the per-pass frontier occupancy of the traced
	// operation (see RecordFrontierRound): a fixed array, like everything
	// else here, so recording stays allocation-free.
	rounds [MaxFrontierRounds]atomic.Int64
}

// MaxFrontierRounds bounds the per-pass occupancy record.  Operations
// exceeding it keep counting passes (CtrFrontierRounds is exact) but only
// the first MaxFrontierRounds occupancies are retained — a traced
// operation runs at most one frontier propagate (at most two passes), so
// the cap is generous.
const MaxFrontierRounds = 4

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// epoch anchors the monotonic clock; Begin/Lap/End exchange nanoseconds
// relative to it.  time.Since reads the monotonic clock, so spans are
// immune to wall-clock steps.
var epoch = time.Now()

// Begin returns a monotonic timestamp for a span start (0 on nil: the
// value is only ever handed back to Lap/End, which no-op then too).
func (r *Recorder) Begin() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(epoch))
}

// End accrues the span from `since` (a Begin/Lap result) to now onto ph.
func (r *Recorder) End(ph Phase, since int64) {
	if r == nil {
		return
	}
	r.phase[ph].Add(int64(time.Since(epoch)) - since)
}

// Lap is End followed by Begin in one clock read: it accrues the span
// since `since` onto ph and returns the new span start — the shape of
// back-to-back stage instrumentation.
func (r *Recorder) Lap(ph Phase, since int64) int64 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(epoch))
	r.phase[ph].Add(now - since)
	return now
}

// PhaseNanos returns the time accrued on ph (0 on nil).
func (r *Recorder) PhaseNanos(ph Phase) time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.phase[ph].Load())
}

// Add accrues d onto counter c.
func (r *Recorder) Add(c Counter, d int64) {
	if r == nil || d == 0 {
		return
	}
	r.count[c].Add(d)
}

// Count returns counter c (0 on nil).
func (r *Recorder) Count(c Counter) int64 {
	if r == nil {
		return 0
	}
	return r.count[c].Load()
}

// Set stores v into gauge g (last write wins).
func (r *Recorder) Set(g Gauge, v int64) {
	if r == nil {
		return
	}
	r.gauge[g].Store(v)
}

// Gauge returns gauge g (0 on nil).
func (r *Recorder) Gauge(g Gauge) int64 {
	if r == nil {
		return 0
	}
	return r.gauge[g].Load()
}

// RecordFrontierRound appends one frontier pass to the occupancy record:
// occ is the pass's active-vertex count (≥ 1 — an empty frontier ends the
// engine, it is not a pass).  The pass index comes from CtrFrontierRounds,
// which this bumps; passes past MaxFrontierRounds are counted but not
// retained.  Safe on nil.
func (r *Recorder) RecordFrontierRound(occ int64) {
	if r == nil {
		return
	}
	i := r.count[CtrFrontierRounds].Add(1) - 1
	if i < MaxFrontierRounds {
		r.rounds[i].Store(occ)
	}
}

// FrontierRounds returns the number of retained occupancy entries
// (min(CtrFrontierRounds, MaxFrontierRounds); 0 on nil).
func (r *Recorder) FrontierRounds() int {
	if r == nil {
		return 0
	}
	return int(min(r.count[CtrFrontierRounds].Load(), MaxFrontierRounds))
}

// FrontierRound returns the occupancy of retained pass i (callers bound i
// by FrontierRounds).
func (r *Recorder) FrontierRound(i int) int64 { return r.rounds[i].Load() }

// Reset zeroes every phase, counter, gauge, and frontier round — called at
// the start of each traced operation.  Safe on nil.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for i := range r.phase {
		r.phase[i].Store(0)
	}
	for i := range r.count {
		r.count[i].Store(0)
	}
	for i := range r.gauge {
		r.gauge[i].Store(0)
	}
	for i := range r.rounds {
		r.rounds[i].Store(0)
	}
}

// PPM converts a ratio in [0,1] to the parts-per-million integer the
// gauges store; FromPPM inverts it.
func PPM(x float64) int64 { return int64(x * 1e6) }

// FromPPM converts a parts-per-million gauge value back to a ratio.
func FromPPM(v int64) float64 { return float64(v) / 1e6 }
