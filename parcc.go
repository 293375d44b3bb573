// Package parcc is a Go implementation of "Connected Components in Linear
// Work and Near-Optimal Time" (Farhadi, Liu, Shi — SPAA 2024): a simulated
// ARBITRARY CRCW PRAM connectivity algorithm running in
// O(log(1/λ) + log log n) parallel time and O(m+n) work w.h.p., where λ is
// the minimum spectral gap over the connected components of the input.
//
// The package exposes:
//
//   - ConnectedComponents: the paper's CONNECTIVITY algorithm (§7) and its
//     known-gap pipeline, plus the serving kernels (sequential union-find,
//     concurrent CAS union-find, sampling, frontier) and the Auto
//     dispatcher that picks among them.  The classical baselines the
//     paper compares against ([LTZ20], Shiloach–Vishkin, random-mate,
//     label propagation, Liu–Tarjan, parallel BFS) live in internal
//     packages and run in the experiment harness, not through Options;
//   - Solver: the session form of the same engine for serving repeated
//     queries — NewSolver builds the goroutine pool, PRAM machine, scratch
//     arena, and CSR plan cache once; Solve/SolveInto reuse them, making
//     warm solves near-zero-alloc with results identical to the one-shot
//     path (ConnectedComponents is a thin wrapper over a one-shot Solver);
//   - graph constructors and the generator families used by the paper's
//     analysis (expanders, hypercubes, grids, cycles, ring-of-cliques,
//     the 2-CYCLE instances, the Appendix-B construction);
//   - spectral utilities: per-component spectral gap λ, conductance and
//     diameter, the quantities the paper's bounds are parameterized by.
//
// # Execution backends
//
// Every algorithm is written against the synchronous PRAM simulator
// (internal/pram), which charges model costs per parallel step.  Options
// .Backend selects where those steps' loop bodies actually execute; each
// Solver owns one internal/par runtime for its whole life:
//
//   - BackendSequential: single-threaded, deterministic, exactly
//     reproducible — the reference semantics;
//   - BackendConcurrent, the default: the internal/par runtime — a
//     persistent goroutine pool with chunked dynamic load balancing,
//     deterministic per-chunk RNG streams, and lock-free CAS kernels
//     (hooking, pointer jumping, min-label propagation, compaction)
//     backing the uncharged helpers.
//     The charged accounting stays the model's: normalized work is flat,
//     and round counts of the randomized algorithms may shift a few percent
//     across procs because ARBITRARY concurrent-write winners steer the
//     control flow (at Procs: 1 they match the simulator exactly).
//     Options.Procs bounds the parallelism.
//
// The partition returned is the same on either backend (concurrent runs may
// break ties differently inside a component, but the components are unique).
// Algorithm CASUnite additionally exposes the barrier-free concurrent
// union-find itself — the wall-clock-oriented solver whose output labels
// (component minima) are deterministic even under arbitrary schedules.
//
// Quick start:
//
//	g := parcc.RandomRegular(1<<16, 8, 1)  // an expander: λ = Θ(1)
//	res, err := parcc.ConnectedComponents(g, nil)
//	if err != nil { ... }
//	fmt.Println(res.NumComponents, res.Steps, res.Work)
//
//	ref, err := parcc.ConnectedComponents(g, &parcc.Options{
//		Backend: parcc.BackendSequential,
//	})
//
//	s, err := parcc.NewSolver(&parcc.Options{Procs: 8})
//	defer s.Close()
//	for _, q := range queries {
//		res, err := s.Solve(q) // reuses pool, machine, arena, CSR plan
//		...
//	}
package parcc

import (
	"fmt"
	"io"

	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
	"parcc/internal/spectral"
)

// Graph is an undirected multigraph on vertices 0..N-1; self-loops and
// parallel edges are permitted (§2.1).
type Graph = graph.Graph

// Edge is an undirected edge.
type Edge = graph.Edge

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// FromPairs builds a graph on n vertices from (u,v) pairs.
func FromPairs(n int, pairs [][2]int) *Graph { return graph.FromPairs(n, pairs) }

// ReadGraph parses the "n m" + edge-list format.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteGraph writes the "n m" + edge-list format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// Algorithm selects which connectivity algorithm ConnectedComponents runs.
type Algorithm string

// Available algorithms.
const (
	// FLS is the paper's CONNECTIVITY (Theorem 1): the default.
	FLS Algorithm = "fls"
	// FLSKnownGap is the fixed-b three-stage pipeline (Theorem 3).
	FLSKnownGap Algorithm = "fls-known-gap"
	// UnionFind is the sequential union-find: CASUnite's kernel run by one
	// worker on any session, so its links and splices are plain stores
	// rather than CASes, followed by one ascending flatten.  Labels are
	// the component minima; it is uncharged, like the sequential
	// baselines.  Auto picks it for tiny inputs and, on sessions of at
	// most two procs, for every input that is not dense.
	UnionFind Algorithm = "union-find"
	// CASUnite is the barrier-free concurrent union-find on the internal/par
	// runtime (Rem's interleaved walk with splicing, linking the larger
	// parent under the smaller, then full compression): the
	// wall-clock-oriented companion to the charged PRAM algorithms, and
	// what Auto picks on sessions wider than two procs for every input
	// that is neither tiny nor dense.  On a one-proc session it runs the
	// same one-worker pass as UnionFind.  Its result is deterministic on
	// every backend (labels are component minima); its Steps/Work are
	// charged nominally (one O(log n)-deep contraction of linear work),
	// since CAS retry counts are not a PRAM quantity.
	CASUnite Algorithm = "cas"
	// Sample is the Afforest-style sampling fast path (Sutton et al.,
	// Adaptive Work-Efficient Connected Components on the GPU): a few
	// neighbor-sampling rounds settle most components, a majority-root
	// vote picks the dominant component, and the full edge pass then
	// skips the majority's adjacency ranges unread and every other
	// settled edge with two loads and a compare, uniting only the
	// surviving minority.  It never falls back to the FLS pipeline: a
	// graph that samples badly costs one extra cas-like pass, not a
	// charged FLS run.  Labels are the component minima, deterministic on every backend
	// (the sampling choices steer only how much work is skipped, never the
	// partition); Result.SkipRatio reports the measured skip fraction.
	// Like CASUnite, Steps/Work are charged nominally.  Wall-clock wins
	// come on graphs whose edges concentrate inside communities — dense
	// random graphs, block/community structure, cliques; on sparse
	// low-degree families it roughly matches CASUnite.
	Sample Algorithm = "sample"
	// Frontier is the frontier-driven solve engine, in two passes: one
	// in-order minimum-label flood over every vertex, which on id-local
	// graphs leaves only the chunk boundaries unsettled, then one
	// union-find hook pass over that residual frontier and a flatten.
	// At most 4m adjacency reads on every shape, with no diameter term —
	// which beats every round-based algorithm on the high-diameter,
	// low-degree mesh regime (grids, tori, paths), where those pay
	// Θ(diameter) rounds.  Auto does not pick it: CASUnite is at least as
	// fast on every measured family.  Labels are the
	// component minima, deterministic on every backend (labels only lower
	// toward the same fixpoint); Steps/Work are charged nominally, like
	// CASUnite.  With tracing enabled, the passes and their occupancy
	// appear in Result.Trace.Frontier.
	Frontier Algorithm = "frontier"
	// Auto picks the solver per graph from n, m and the session's procs:
	// UnionFind for tiny inputs, Sample for dense ones (average degree
	// 2m/n ≥ 34), and for the rest UnionFind on sessions of at most two
	// procs and CASUnite on wider ones.  Its Steps/Work are those of the
	// kernel it picked, so a UnionFind pick charges none.  The decision
	// is recorded in Result.Algorithm — a result from an Auto solve
	// echoes the concrete algorithm that ran, never "auto".  The FLS
	// pipeline runs only when Options.Algorithm asks for FLS or
	// FLSKnownGap.  The decision table and the measurement it is derived
	// from are documented in docs/ARCHITECTURE.md.
	Auto Algorithm = "auto"
	// Incremental is the value Result.Algorithm echoes for results produced
	// by the live-update path (Solver.Components after AddEdges/
	// RemoveEdges).  It is not selectable in Options — the incremental
	// machinery is driven through Solver.Attach, not through Solve.
	Incremental Algorithm = "incremental"
)

// Backend selects the execution engine ConnectedComponents runs on.  The
// zero value selects BackendConcurrent.
type Backend string

// Available backends.
const (
	// BackendSequential is the deterministic single-threaded PRAM
	// simulation — semantics-preserving and exactly reproducible.
	BackendSequential Backend = "sequential"
	// BackendConcurrent executes the same charged PRAM steps with their
	// loop bodies scheduled on the internal/par runtime: a persistent
	// goroutine pool with chunked dynamic load balancing, plus CAS fast
	// paths for the uncharged helpers.  Model costs (Steps/Work) are
	// identical to the simulator's; only the wall clock changes.
	BackendConcurrent Backend = "concurrent"
)

// Options configures a run.  The zero value (or nil) selects the FLS
// algorithm with practical parameters on the concurrent backend at all
// CPUs.
type Options struct {
	// Algorithm selects the solver (default FLS).
	Algorithm Algorithm
	// Backend selects the execution engine (default BackendConcurrent).
	Backend Backend
	// Procs bounds the concurrent backend's parallelism (default NumCPU).
	// Zero means "unset"; a negative value is a caller bug and is rejected
	// with *ProcsRangeError rather than silently clamped.
	Procs int
	// Seed makes randomized algorithms reproducible.  The zero value means
	// "unset" and selects the default seed 1, so the zero Options value is
	// a working default.
	Seed uint64
	// KnownGapB is the degree target b for FLSKnownGap (default 16).
	KnownGapB int
	// Trace enables solve-phase tracing: the session owns an
	// internal/obs.Recorder, every solve and incremental operation
	// populates Result.Trace (and Solver.LastTrace) with per-phase wall
	// times, kernel counters, and dispatch decisions.  Off by default —
	// the disabled path threads a nil recorder whose methods no-op on one
	// predictable branch, keeping the warm serving path allocation-free
	// and its wall time unchanged.
	Trace bool
	// TrustGraph promises that graphs handed to this solver are never
	// mutated in place between solves (appending or removing edges is
	// still detected — only same-length overwrites of existing edges go
	// unnoticed).  With the promise, the session's plan-cache validation
	// drops from an O(m) content-fingerprint pass per solve to an O(1)
	// length check, which matters exactly in steady-state serving where
	// the graph never changes and the fingerprint scan would otherwise be
	// the only O(m) term left on the warm path.  The tradeoff is
	// documented in docs/ARCHITECTURE.md: break the promise and a warm
	// solver serves labels computed from a stale adjacency.
	TrustGraph bool
}

// Result reports the labeling and the PRAM cost of a run.
type Result struct {
	// Labels[v] is the component representative of vertex v.
	Labels []int32
	// NumComponents is the number of connected components.
	NumComponents int
	// Steps is the charged PRAM time (synchronous rounds).
	Steps int64
	// Work is the charged PRAM work (total operations).
	Work int64
	// Phases is the number of INTERWEAVE phases used (FLS only).  It is a
	// documented alias of Trace.FLSPhases: always populated, tracing or
	// not, and equal to the traced value when Options.Trace is set.
	Phases int
	// SkipRatio is the fraction of edges the sampling fast path settled
	// without a Unite — skipped wholesale with their vertex's adjacency
	// range, or dismissed by the finish pass's one-compare root check —
	// i.e. 1 − UniteAttempts/m (approximate in majority mode, where an
	// unsettled edge between two non-majority vertices is attempted from
	// both sides).  Algorithm Sample only (Auto included, when it picks
	// Sample); zero for every other algorithm.
	// It is a documented alias of Trace.SkipRatio: always populated,
	// tracing or not, and equal to the traced value when Options.Trace is
	// set.
	SkipRatio float64
	// Algorithm echoes the solver used.  For Options.Algorithm Auto this
	// is the dispatch decision: the concrete algorithm the plan statistics
	// selected.
	Algorithm Algorithm
	// Backend names the backend that ran (BackendConcurrent when
	// Options.Backend was left zero).
	Backend Backend
	// Procs is the parallelism the run used (1 for sequential).
	Procs int
	// Breakdown attributes charged cost to stages (FLS and FLSKnownGap):
	// stage1-reduce, presample, phase-i, finish / stage2-increase, ....
	Breakdown []StageCost
	// Trace is the structured observation of this solve: per-phase wall
	// times, CAS attempt/hook counters, the sampling probes' signals, the
	// auto dispatcher's decision, and LTZ/FLS round counts.  Nil unless
	// the run's Options.Trace was set.
	Trace *Trace
}

// StageCost is one entry of a per-stage cost breakdown.
type StageCost struct {
	Stage string
	Steps int64
	Work  int64
}

// ConnectedComponents labels the connected components of g.  It is a
// compatibility wrapper over a one-shot [Solver]: construct the session,
// solve once, tear it down.  Callers issuing repeated solves should hold a
// Solver instead and amortize the session state (pool, machine, arena, CSR
// plan) across calls.
func ConnectedComponents(g *Graph, opt *Options) (*Result, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("parcc: %w", err)
	}
	s, err := NewSolver(opt)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Solve(g)
}

// SameComponent reports whether u and v received the same label.  O(1);
// safe for concurrent readers of an unchanging Result.
func (r *Result) SameComponent(u, v int) bool {
	return r.Labels[u] == r.Labels[v]
}

// Components groups vertices by label, ordered by smallest member.
func (r *Result) Components() [][]int32 { return graph.ComponentsOf(r.Labels) }

// Verify checks r.Labels against a sequential BFS of g: O(m+n) uncharged
// single-threaded ground truth, safe to call concurrently with other
// readers of g.
func Verify(g *Graph, labels []int32) bool {
	return graph.SamePartition(baseline.BFSLabels(g), labels)
}

// Certificate is an independently checkable spanning-forest witness.
type Certificate = graph.Certificate

// Certify builds a spanning-forest certificate for a labeling (and errors
// if the labeling is wrong — it doubles as an exact checker).
func Certify(g *Graph, labels []int32) (*Certificate, error) {
	return graph.BuildCertificate(g, labels)
}

// VerifyCertificate validates a certificate against the graph from scratch.
func VerifyCertificate(g *Graph, c *Certificate) error {
	return graph.VerifyCertificate(g, c)
}

// SpectralGap estimates λ(G): the minimum spectral gap (second-smallest
// normalized-Laplacian eigenvalue, Definition 2.2) over all connected
// components with ≥ 2 vertices.
func SpectralGap(g *Graph) float64 { return spectral.Gap(graph.NewPlan(g), nil) }

// ComponentSpectralGaps returns λ per component (NaN for singletons).
func ComponentSpectralGaps(g *Graph) []float64 {
	return spectral.ComponentGaps(graph.NewPlan(g), nil)
}

// Diameter returns the exact maximum intra-component diameter (O(nm); for
// large graphs prefer DiameterApprox).
func Diameter(g *Graph) int { return spectral.DiameterExact(graph.NewPlan(g)) }

// DiameterApprox lower-bounds the diameter by iterated double sweeps.
func DiameterApprox(g *Graph) int { return spectral.DiameterApprox(graph.NewPlan(g), 3) }

// Generator re-exports.  Each family is documented in internal/graph/gen
// with the spectral-gap regime it exercises.
var (
	// Path is the n-vertex path: λ = Θ(1/n²).
	Path = gen.Path
	// Cycle is the n-cycle: λ = Θ(1/n²).
	Cycle = gen.Cycle
	// TwoCycles is two disjoint ⌊n/2⌋/⌈n/2⌉-cycles (the 2-CYCLE instance).
	TwoCycles = gen.TwoCycles
	// Grid is the r×c grid.
	Grid = gen.Grid
	// Torus is the r×c torus.
	Torus = gen.Torus
	// Hypercube is the d-dimensional hypercube: λ = 2/d.
	Hypercube = gen.Hypercube
	// Complete is K_n.
	Complete = gen.Complete
	// Star is K_{1,n-1}.
	Star = gen.Star
	// BinaryTree is the complete binary tree on n vertices.
	BinaryTree = gen.BinaryTree
	// RandomRegular is a random d-regular multigraph (expander w.h.p.).
	RandomRegular = gen.RandomRegular
	// GNM is the Erdős–Rényi G(n,m) multigraph.
	GNM = gen.GNM
	// RingOfCliques is k s-cliques in a ring with tunable bridge count.
	RingOfCliques = gen.RingOfCliques
	// Lollipop is a clique with a path tail.
	Lollipop = gen.Lollipop
	// Barbell is two cliques joined by a path.
	Barbell = gen.Barbell
	// UnionGraphs is the disjoint union of graphs.
	UnionGraphs = gen.Union
	// AppendixB is the diameter-blowup construction of Appendix B.
	AppendixB = gen.AppendixB
	// SampleEdges keeps each edge independently with probability p.
	SampleEdges = gen.SampleEdges
)
