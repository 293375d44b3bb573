package parcc_test

import (
	"slices"
	"strings"
	"testing"

	"parcc"
	"parcc/internal/bench"
	"parcc/internal/graph/gen"
)

// TestTraceAllocs pins the disabled-Recorder contract: with Options.Trace
// unset the warm serving path keeps its steady-state allocation counts —
// bfs stays exactly zero-alloc, the union-find, cas, and frontier
// sessions stay at their small fixed costs (for frontier that is the
// hoisted closure set built once per solve, independent of graph size and
// round count) — on both backends, and Result.Trace stays nil.
func TestTraceAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow-ish")
	}
	g := gen.GNM(1<<12, 1<<13, 3)
	for _, be := range []parcc.Backend{parcc.BackendSequential, parcc.BackendConcurrent} {
		for _, tc := range []struct {
			algo parcc.Algorithm
			max  float64 // allowed warm allocations per solve
		}{
			{parcc.UnionFind, 1},
			{parcc.CASUnite, 3},
			{parcc.Frontier, 14},
		} {
			s, err := parcc.NewSolver(&parcc.Options{Algorithm: tc.algo, Backend: be, Procs: 2, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			res := &parcc.Result{}
			for i := 0; i < 2; i++ { // warm the arena and plan cache
				if err := s.SolveInto(g, res); err != nil {
					t.Fatal(err)
				}
			}
			warm := testing.AllocsPerRun(5, func() {
				if err := s.SolveInto(g, res); err != nil {
					t.Fatal(err)
				}
			})
			if warm > tc.max {
				t.Errorf("%s/%s: tracing-off warm solve allocates %.0f/run, want <= %.0f",
					be, tc.algo, warm, tc.max)
			}
			if res.Trace != nil {
				t.Errorf("%s/%s: Result.Trace must stay nil with tracing off", be, tc.algo)
			}
			s.Close()
		}
	}
}

// TestTraceAutoDispatchGolden is the dispatch golden test: on every
// generator family at 2^12 and 2^15 (seed 1), the Auto decision must pick
// the pinned (kernel, rule) row of the decision table on a narrow
// session (procs 2, on both backends; the sequential one runs procs 1)
// and on a wide one (the concurrent backend at procs 4), and the
// decision the Trace records must match the algorithm the Result
// reports.  The table is a recording, not a derivation: a change to the
// dispatcher that moves any cell fails here.  It is re-recorded only
// together with the kernel matrix the table is derived from (CHANGES.md
// and docs/ARCHITECTURE.md §7).  Every cell is also solved by the fixed
// kernels union-find, cas, sample and frontier on the same backend, and
// all five label arrays must be byte-identical: every kernel lands on
// the component minima.
func TestTraceAutoDispatchGolden(t *testing.T) {
	type pick struct {
		algo parcc.Algorithm
		rule string
	}
	var (
		tiny   = pick{parcc.UnionFind, "tiny"}
		sparse = pick{parcc.UnionFind, "sparse"}
		dense  = pick{parcc.Sample, "dense"}
		wide   = pick{parcc.CASUnite, "wide"}
	)
	// Per family: the narrow picks at 2^12 and 2^15, then the wide ones.
	golden := map[string][4]pick{
		"path":            {tiny, sparse, tiny, wide},
		"cycle":           {tiny, sparse, tiny, wide},
		"two-cycles":      {tiny, sparse, tiny, wide},
		"grid":            {sparse, sparse, wide, wide},
		"torus":           {sparse, sparse, wide, wide},
		"hypercube":       {sparse, sparse, wide, wide},
		"complete":        {dense, dense, dense, dense},
		"star":            {tiny, sparse, tiny, wide},
		"binary-tree":     {tiny, sparse, tiny, wide},
		"random-regular":  {sparse, sparse, wide, wide},
		"gnm-sparse":      {sparse, sparse, wide, wide},
		"gnm-dense":       {dense, dense, dense, dense},
		"block":           {dense, dense, dense, dense},
		"community":       {dense, dense, dense, dense},
		"lollipop":        {dense, sparse, dense, wide},
		"barbell":         {dense, sparse, dense, wide},
		"union":           {sparse, sparse, wide, wide},
		"many-components": {sparse, sparse, wide, wide},
		"watts-strogatz":  {sparse, sparse, wide, wide},
		"barabasi-albert": {sparse, sparse, wide, wide},
		"path-xl":         {sparse, sparse, wide, wide},
		"grid-xl":         {sparse, sparse, wide, wide},
		"torus-xl":        {sparse, sparse, wide, wide},
	}
	for _, sess := range []struct {
		be    parcc.Backend
		procs int
		col   int // golden column of the 2^12 pick; the 2^15 one follows
	}{
		{parcc.BackendSequential, 2, 0},
		{parcc.BackendConcurrent, 2, 0},
		{parcc.BackendConcurrent, 4, 2},
	} {
		be := sess.be
		s, err := parcc.NewSolver(&parcc.Options{
			Algorithm: parcc.Auto, Backend: be, Procs: sess.procs, Seed: 3, Trace: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var fixed []*parcc.Solver
		for _, a := range []parcc.Algorithm{parcc.UnionFind, parcc.CASUnite, parcc.Sample, parcc.Frontier} {
			fs, err := parcc.NewSolver(&parcc.Options{Algorithm: a, Backend: be, Procs: sess.procs, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			fixed = append(fixed, fs)
		}
		res, fixedRes := &parcc.Result{}, &parcc.Result{}
		for i, n := range []int{1 << 12, 1 << 15} {
			fams := bench.Families(n, 1)
			if len(fams) != len(golden) {
				t.Fatalf("%d families at n=%d, golden table pins %d", len(fams), n, len(golden))
			}
			for _, f := range fams {
				row, ok := golden[f.Name]
				if !ok {
					t.Fatalf("family %q has no golden dispatch row", f.Name)
				}
				want := row[sess.col+i]
				g := f.Make()
				if err := s.SolveInto(g, res); err != nil {
					t.Fatalf("%s/%s@%d: %v", be, f.Name, n, err)
				}
				tr := res.Trace
				if tr == nil || tr.Dispatch == nil {
					t.Fatalf("%s/%s@%d: auto solve with tracing must record a dispatch decision", be, f.Name, n)
				}
				if got := (pick{tr.Dispatch.Chosen, tr.Dispatch.Rule}); got != want {
					t.Errorf("%s procs=%d/%s@%d: auto picked %s/%q, golden %s/%q",
						be, sess.procs, f.Name, n, got.algo, got.rule, want.algo, want.rule)
				}
				if tr.Dispatch.Chosen != res.Algorithm {
					t.Errorf("%s/%s@%d: trace dispatch chose %q but Result.Algorithm is %q",
						be, f.Name, n, tr.Dispatch.Chosen, res.Algorithm)
				}
				if last := s.LastTrace(); last != tr {
					t.Errorf("%s/%s@%d: LastTrace must return the trace of the latest solve", be, f.Name, n)
				}
				for _, fs := range fixed {
					if err := fs.SolveInto(g, fixedRes); err != nil {
						t.Fatalf("%s/%s@%d: %v", be, f.Name, n, err)
					}
					if !slices.Equal(res.Labels, fixedRes.Labels) {
						t.Errorf("%s procs=%d/%s@%d: %s labels differ from auto's",
							be, sess.procs, f.Name, n, fixedRes.Algorithm)
					}
				}
			}
		}
		s.Close()
		for _, fs := range fixed {
			fs.Close()
		}
	}
}

// TestTracePhaseSum is the acceptance bound on span coverage: with
// tracing on, the per-phase wall times of a solve on the complete and
// block families must sum to within 20%% of the recorded total (best of a
// few attempts, to shrug off scheduler noise).
func TestTracePhaseSum(t *testing.T) {
	for _, f := range bench.Families(1<<14, 1) {
		if f.Name != "complete" && f.Name != "block" {
			continue
		}
		g := f.Make()
		s, err := parcc.NewSolver(&parcc.Options{
			Algorithm: parcc.Auto, Backend: parcc.BackendConcurrent, Trace: true, TrustGraph: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := &parcc.Result{}
		best := 0.0
		for attempt := 0; attempt < 4; attempt++ {
			if err := s.SolveInto(g, res); err != nil {
				t.Fatal(err)
			}
			tr := res.Trace
			if tr == nil || tr.Total <= 0 {
				t.Fatalf("%s: traced solve must record a positive total", f.Name)
			}
			if cover := float64(tr.PhaseSum()) / float64(tr.Total); cover > best {
				best = cover
			}
			if best >= 0.8 {
				break
			}
		}
		if best < 0.8 {
			t.Errorf("%s: phase wall times cover %.0f%% of the total, want >= 80%%", f.Name, 100*best)
		}
		s.Close()
	}
}

// TestTraceIncrementalOps: the live-update operations each leave a trace
// with the right op name and batch-shape counters, and a delete that
// falls back to the scoped repair lists live-path phases only — no solve
// kernel's spans, no dispatch — whose sum stays within Total.
func TestTraceIncrementalOps(t *testing.T) {
	s, err := parcc.NewSolver(&parcc.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := gen.TwoCycles(64)
	if err := s.Attach(g); err != nil {
		t.Fatal(err)
	}
	tr := s.LastTrace()
	if tr == nil || tr.Op != "attach" || tr.Incremental == nil {
		t.Fatalf("attach trace = %+v, want op=attach with incremental shape", tr)
	}
	if tr.Incremental.BatchEdges != int64(g.M()) {
		t.Errorf("attach batch edges = %d, want %d", tr.Incremental.BatchEdges, g.M())
	}
	bridge := []parcc.Edge{{U: 0, V: 40}}
	if err := s.AddEdges(bridge); err != nil {
		t.Fatal(err)
	}
	tr = s.LastTrace()
	if tr == nil || tr.Op != "add-edges" || tr.Incremental == nil || tr.Incremental.BatchEdges != 1 {
		t.Fatalf("add-edges trace = %+v, want op=add-edges batch=1", tr)
	}
	if err := s.RemoveEdges(bridge); err != nil {
		t.Fatal(err)
	}
	tr = s.LastTrace()
	if tr == nil || tr.Op != "remove-edges" || tr.Incremental == nil {
		t.Fatalf("remove-edges trace = %+v, want op=remove-edges with incremental shape", tr)
	}
	if tr.Incremental.DirtyComponents < 1 {
		t.Errorf("removing a bridge must dirty at least one component, got %d", tr.Incremental.DirtyComponents)
	}
	var sb strings.Builder
	tr.WriteText(&sb)
	if !strings.Contains(sb.String(), "op=remove-edges") || !strings.Contains(sb.String(), "incremental:") {
		t.Errorf("WriteText output missing expected lines:\n%s", sb.String())
	}

	// Two 2^12-cycles joined by a bridge: proving the split would scan
	// about m entries, past the m/8 budget, so the delete falls back.
	const half = 1 << 12
	g = gen.Union(gen.Cycle(half), gen.Cycle(half))
	bridge = []parcc.Edge{{U: half - 1, V: half}}
	g.Edges = append(g.Edges, bridge...)
	if err := s.Attach(g); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveEdges(bridge); err != nil {
		t.Fatal(err)
	}
	tr = s.LastTrace()
	if tr.Incremental.BudgetFallbacks != 1 || tr.Dispatch != nil {
		t.Fatalf("fallback trace: fallbacks=%d dispatch=%+v, want 1 and none",
			tr.Incremental.BudgetFallbacks, tr.Dispatch)
	}
	live := map[string]bool{"extract": true, "replace": true, "scoped": true, "splice": true}
	for _, ph := range tr.Phases {
		if !live[ph.Name] {
			t.Errorf("fallback trace lists phase %q, want live-path phases only (%v)", ph.Name, tr.Phases)
		}
	}
	if tr.Phase("scoped") == 0 {
		t.Errorf("fallback trace has no scoped phase: %v", tr.Phases)
	}
	if sum := tr.PhaseSum(); sum > tr.Total {
		t.Errorf("fallback trace phases sum to %v, over the total %v", sum, tr.Total)
	}
}

// TestTraceAliases: Result.SkipRatio and Result.Phases stay populated
// with tracing off and mirror the Trace fields with tracing on.
func TestTraceAliases(t *testing.T) {
	g := gen.GNM(1<<12, 1<<16, 7) // dense: auto dispatches to sample
	off, err := parcc.ConnectedComponents(g, &parcc.Options{Algorithm: parcc.Sample, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if off.Trace != nil {
		t.Fatal("tracing off must leave Result.Trace nil")
	}
	on, err := parcc.ConnectedComponents(g, &parcc.Options{Algorithm: parcc.Sample, Seed: 3, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.Trace == nil {
		t.Fatal("tracing on must populate Result.Trace")
	}
	if on.Trace.SkipRatio != on.SkipRatio {
		t.Errorf("Trace.SkipRatio %v != Result.SkipRatio %v", on.Trace.SkipRatio, on.SkipRatio)
	}
	if on.Trace.FLSPhases != on.Phases {
		t.Errorf("Trace.FLSPhases %d != Result.Phases %d", on.Trace.FLSPhases, on.Phases)
	}
	if off.SkipRatio != on.SkipRatio {
		t.Errorf("SkipRatio must not depend on tracing: off %v on %v", off.SkipRatio, on.SkipRatio)
	}
	if on.Trace.CASAttempts <= 0 || on.Trace.CASHooks <= 0 {
		t.Errorf("sample trace must count kernel attempts/hooks, got %d/%d",
			on.Trace.CASAttempts, on.Trace.CASHooks)
	}
	if d := on.Trace.Phase("sample"); d <= 0 {
		t.Errorf("sample trace must include a sample phase span, got %v", d)
	}
}

// TestTraceLTZRoundsCountsDensify: a traced one-shot FLS call counts the
// EXPAND-MAXLINK rounds DENSIFY runs inside INCREASE.  On two-cycles at
// n = 2^15 those are the only LTZ rounds the call runs, so ltz_rounds
// reads 0 there when a DENSIFY state goes uncounted.
func TestTraceLTZRoundsCountsDensify(t *testing.T) {
	for _, n := range []int{1 << 14, 1 << 15} {
		res, err := parcc.ConnectedComponents(gen.TwoCycles(n), &parcc.Options{Algorithm: parcc.FLS, Seed: 1, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace.FLSPhases == 0 {
			t.Fatalf("n=%d: FLS ran no INTERWEAVE phase", n)
		}
		if res.Trace.LTZRounds <= 0 {
			t.Errorf("n=%d: ltz_rounds %d, want > 0", n, res.Trace.LTZRounds)
		}
	}
}
