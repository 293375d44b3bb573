package parcc

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
)

var solverAlgos = []Algorithm{FLS, FLSKnownGap, CASUnite, UnionFind}

func solverTestGraph() *Graph {
	return gen.Union(
		gen.RandomRegular(600, 6, 1),
		gen.Grid(20, 25),
		gen.Path(200),
		graph.New(7),
	)
}

// TestSolverMatchesConnectedComponents is the session-equivalence contract:
// on the deterministic sequential backend, Solver.Solve — first call, and a
// second call reusing the machine, arena, and plan — must produce labels,
// steps, and work identical to the one-shot ConnectedComponents path, for
// every algorithm.
func TestSolverMatchesConnectedComponents(t *testing.T) {
	g := solverTestGraph()
	for _, algo := range solverAlgos {
		opts := &Options{Algorithm: algo, Backend: BackendSequential, Seed: 11}
		want, err := ConnectedComponents(g, opts)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		s, err := NewSolver(opts)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		for rep := 0; rep < 3; rep++ {
			got, err := s.Solve(g)
			if err != nil {
				t.Fatalf("%s rep %d: %v", algo, rep, err)
			}
			if got.Steps != want.Steps || got.Work != want.Work {
				t.Errorf("%s rep %d: steps/work = (%d,%d), one-shot = (%d,%d)",
					algo, rep, got.Steps, got.Work, want.Steps, want.Work)
			}
			if got.NumComponents != want.NumComponents {
				t.Errorf("%s rep %d: components %d vs %d", algo, rep,
					got.NumComponents, want.NumComponents)
			}
			for v := range want.Labels {
				if got.Labels[v] != want.Labels[v] {
					t.Errorf("%s rep %d: label[%d] = %d, want %d",
						algo, rep, v, got.Labels[v], want.Labels[v])
					break
				}
			}
		}
		s.Close()
	}
}

// TestSolverConcurrentBackendRepeats: under real goroutines the ARBITRARY
// write winners may steer racy algorithms differently per run, so the
// contract is partition equality (checked against ground truth) on every
// repeat — plus intact model accounting.
func TestSolverConcurrentBackendRepeats(t *testing.T) {
	g := solverTestGraph()
	truth := baseline.BFSLabels(g)
	for _, algo := range solverAlgos {
		s, err := NewSolver(&Options{Algorithm: algo, Backend: BackendConcurrent, Procs: 3, Seed: 11})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		for rep := 0; rep < 2; rep++ {
			got, err := s.Solve(g)
			if err != nil {
				t.Fatalf("%s rep %d: %v", algo, rep, err)
			}
			if !graph.SamePartition(truth, got.Labels) {
				t.Errorf("%s rep %d: wrong partition", algo, rep)
			}
			// The sequential union-find charges no PRAM cost by design.
			if algo != UnionFind && (got.Steps <= 0 || got.Work <= 0) {
				t.Errorf("%s rep %d: lost accounting (steps=%d work=%d)",
					algo, rep, got.Steps, got.Work)
			}
		}
		s.Close()
	}
}

// TestSolverSecondSolveAllocsFar is the allocation-behavior satellite: the
// steady state of SolveInto on a warm solver must allocate far less than
// the one-shot path, on both backends.  The sequential union-find must
// clear the 10× bar of the repeated-solve experiment; the pool-and-arena
// sharing still has to show up clearly on cas.
func TestSolverSecondSolveAllocsFar(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow-ish")
	}
	g := solverTestGraph()
	measure := func(opts *Options) (cold, warm float64) {
		cold = testing.AllocsPerRun(3, func() {
			if _, err := ConnectedComponents(g, opts); err != nil {
				t.Fatal(err)
			}
		})
		s, err := NewSolver(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		res := &Result{}
		for i := 0; i < 2; i++ { // warm the arena and plan cache
			if err := s.SolveInto(g, res); err != nil {
				t.Fatal(err)
			}
		}
		warm = testing.AllocsPerRun(5, func() {
			if err := s.SolveInto(g, res); err != nil {
				t.Fatal(err)
			}
		})
		return cold, warm
	}
	for _, be := range []Backend{BackendSequential, BackendConcurrent} {
		for _, tc := range []struct {
			algo   Algorithm
			factor float64 // required cold/warm reduction
		}{
			{UnionFind, 10},
			{CASUnite, 2},
		} {
			cold, warm := measure(&Options{Algorithm: tc.algo, Backend: be, Procs: 2, Seed: 3})
			if warm*tc.factor > cold {
				t.Errorf("%s/%s: warm solve allocs %.0f not ≥%.0fx below one-shot %.0f",
					be, tc.algo, warm, tc.factor, cold)
			}
		}
	}
}

// TestSolveIntoReusesLabelBuffer: the zero-alloc serving path must keep
// writing into the same backing array once it has the capacity.
func TestSolveIntoReusesLabelBuffer(t *testing.T) {
	g := gen.GNM(300, 500, 2)
	s, err := NewSolver(&Options{Algorithm: CASUnite})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := &Result{}
	if err := s.SolveInto(g, res); err != nil {
		t.Fatal(err)
	}
	first := &res.Labels[0]
	if err := s.SolveInto(g, res); err != nil {
		t.Fatal(err)
	}
	if &res.Labels[0] != first {
		t.Error("SolveInto reallocated the label buffer despite sufficient capacity")
	}
}

// TestSolverPlanCache: the session caches the CSR plan per graph and
// rebuilds it when the graph is mutated or swapped.
func TestSolverPlanCache(t *testing.T) {
	g1 := gen.Grid(10, 10)
	g2 := gen.Cycle(50)
	s, err := NewSolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p1 := s.Plan(g1)
	if s.Plan(g1) != p1 {
		t.Error("plan for the same graph must be cached")
	}
	p2 := s.Plan(g2)
	if p2 == p1 {
		t.Error("different graph must get a fresh plan")
	}
	g2.AddEdge(0, 25)
	p3 := s.Plan(g2)
	if p3 == p2 {
		t.Error("mutated graph must invalidate the cached plan")
	}
	// In-place mutation (same edge count) must invalidate too: a warm
	// solver serving from a stale adjacency would return wrong labels.
	gm := graph.FromPairs(4, [][2]int{{0, 1}, {2, 3}})
	sm, err := NewSolver(&Options{Algorithm: Frontier})
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	if _, err := sm.Solve(gm); err != nil {
		t.Fatal(err)
	}
	gm.Edges[1] = graph.Edge{U: 1, V: 2}
	res, err := sm.Solve(gm)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(gm, res.Labels) {
		t.Error("warm solver served labels from a stale CSR after in-place mutation")
	}
	if got := s.SpectralGap(g1); got <= 0 {
		t.Errorf("session spectral gap on a grid = %g, want > 0", got)
	}
}

// TestSolverSharedAcrossGoroutines: Solve serializes internally, so a
// shared solver must be race-free and correct under concurrent callers.
func TestSolverSharedAcrossGoroutines(t *testing.T) {
	g := gen.GNM(400, 700, 5)
	truth := baseline.BFSLabels(g)
	s, err := NewSolver(&Options{Algorithm: FLS})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Solve(g)
			if err != nil {
				errs <- err
				return
			}
			if !graph.SamePartition(truth, res.Labels) {
				errs <- errWrongPartition
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errWrongPartition = &partitionError{}

type partitionError struct{}

func (*partitionError) Error() string { return "wrong partition from shared solver" }

// TestSolverClosed: a closed solver refuses work.
func TestSolverClosed(t *testing.T) {
	s, err := NewSolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // double-close is a no-op
	if _, err := s.Solve(gen.Path(4)); err == nil {
		t.Fatal("closed solver must error")
	}
}

// TestSeedZeroReachable is the Options.Seed contract: the zero value of
// Seed selects the default, so it is identical to Seed: 1.
func TestSeedZeroReachable(t *testing.T) {
	g := gen.GNM(200, 350, 4)
	run := func(o *Options) *Result {
		t.Helper()
		o.Backend = BackendSequential
		res, err := ConnectedComponents(g, o)
		if err != nil {
			t.Fatal(err)
		}
		if !Verify(g, res.Labels) {
			t.Fatal("wrong labels")
		}
		return res
	}
	def := run(&Options{})
	one := run(&Options{Seed: 1})
	if def.Steps != one.Steps || def.Work != one.Work || !slices.Equal(def.Labels, one.Labels) {
		t.Errorf("unset seed must equal the documented default 1: (%d,%d) vs (%d,%d)",
			def.Steps, def.Work, one.Steps, one.Work)
	}
}

// TestCloseReleasesSessionGoroutines drives a session on each backend
// through every path that runs on its runtime — an FLS and a CASUnite
// solve, Attach, AddEdges, a RemoveEdges whose replacement search blows
// its budget and falls back to the scoped repair, and PublishSnapshot —
// and checks that Close gives back every goroutine the session started.
func TestCloseReleasesSessionGoroutines(t *testing.T) {
	defer func(old int64) { replaceBudgetFloor = old }(replaceBudgetFloor)
	replaceBudgetFloor = 16 // as in TestForestBudgetFallback: the cut below exceeds the budget
	g := gen.RandomRegular(1<<13, 4, 3)
	scenarios := map[string]func(t *testing.T, s *Solver){
		"solve": func(t *testing.T, s *Solver) {
			if _, err := s.Solve(g); err != nil {
				t.Fatal(err)
			}
		},
		"incremental": func(t *testing.T, s *Solver) {
			if err := s.Attach(gen.Cycle(512)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.PublishSnapshot(); err != nil {
				t.Fatal(err)
			}
			if err := s.RemoveEdges([]Edge{{U: 256, V: 257}}); err != nil {
				t.Fatal(err)
			}
			if n := s.LastTrace().Incremental.BudgetFallbacks; n != 1 {
				t.Fatalf("budget fallbacks = %d, want 1", n)
			}
			if err := s.AddEdges([]Edge{{U: 256, V: 257}, {U: 3, V: 300}}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.PublishSnapshot(); err != nil {
				t.Fatal(err)
			}
		},
	}
	for _, be := range []Backend{BackendSequential, BackendConcurrent} {
		for _, algo := range []Algorithm{FLS, CASUnite} {
			for name, run := range scenarios {
				base := runtime.NumGoroutine()
				s, err := NewSolver(&Options{Algorithm: algo, Backend: be, Procs: 4, Trace: true})
				if err != nil {
					t.Fatal(err)
				}
				run(t, s)
				s.Close()
				for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
					if time.Now().After(deadline) {
						t.Fatalf("%s/%s/%s: %d goroutines after Close, %d before NewSolver",
							be, algo, name, runtime.NumGoroutine(), base)
					}
					time.Sleep(time.Millisecond)
				}
			}
		}
	}
}
