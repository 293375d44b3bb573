package ltz

import (
	"testing"
	"testing/quick"

	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
	"parcc/internal/labeled"
	"parcc/internal/pram"
	"parcc/internal/pram/pramtest"
	"parcc/internal/solve"
)

func solveLabels(t *testing.T, g *graph.Graph, p Params) []int32 {
	t.Helper()
	m := pramtest.New(t, 0, pram.Seed(11))
	f := Solve(m, g, p)
	if err := f.CheckAcyclic(); err != nil {
		t.Fatalf("forest has cycles: %v", err)
	}
	return f.Labels()
}

func TestSolveMatchesBFS(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"empty":     graph.New(0),
		"isolated":  graph.New(17),
		"path":      gen.Path(200),
		"cycle":     gen.Cycle(128),
		"grid":      gen.Grid(11, 13),
		"expander":  gen.RandomRegular(256, 4, 3),
		"gnm":       gen.GNM(300, 500, 5),
		"star":      gen.Star(100),
		"complete":  gen.Complete(32),
		"loops":     graph.FromPairs(4, [][2]int{{0, 0}, {1, 2}}),
		"parallel":  graph.FromPairs(3, [][2]int{{0, 1}, {0, 1}, {0, 1}}),
		"union":     gen.Union(gen.Path(40), gen.Cycle(30), graph.New(6)),
		"twocycles": gen.TwoCycles(150),
		"deeppath":  gen.Path(3000),
	}
	for name, g := range graphs {
		g := g
		t.Run(name, func(t *testing.T) {
			got := solveLabels(t, g, DefaultParams(g.N))
			if !graph.SamePartition(baseline.BFSLabels(g), got) {
				t.Fatalf("%s: wrong partition", name)
			}
		})
	}
}

func TestSolvePaperParams(t *testing.T) {
	g := gen.Union(gen.Cycle(64), gen.RandomRegular(128, 4, 9))
	got := solveLabels(t, g, PaperParams(g.N))
	if !graph.SamePartition(baseline.BFSLabels(g), got) {
		t.Fatal("paper-params solve wrong")
	}
}

func TestSolveSequentialOrders(t *testing.T) {
	g := gen.Union(gen.Grid(7, 9), gen.Cycle(50))
	for _, ord := range []pram.Order{pram.Forward, pram.Reverse, pram.Shuffled} {
		m := pram.New(pram.WriteOrder(ord), pram.Seed(3))
		f := Solve(m, g, DefaultParams(g.N))
		if !graph.SamePartition(baseline.BFSLabels(g), f.Labels()) {
			t.Errorf("%v: wrong partition", ord)
		}
	}
}

func TestSolveRandomGraphsQuick(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.GNM(80, 100, seed)
		m := pramtest.New(t, 0, pram.Seed(seed))
		fo := Solve(m, g, DefaultParams(g.N))
		return graph.SamePartition(baseline.BFSLabels(g), fo.Labels())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRoundsScaleWithDiameter(t *testing.T) {
	// O(log d + log log n): averaged over seeds, long paths need more
	// EXPAND-MAXLINK rounds than short ones.
	avgRounds := func(g *graph.Graph) float64 {
		var tot int64
		const seeds = 5
		for seed := uint64(1); seed <= seeds; seed++ {
			p := DefaultParams(g.N)
			p.Seed = seed
			m := pramtest.New(t, 0, pram.Seed(seed))
			f := labeled.New(g.N)
			V := make([]int32, g.N)
			m.Iota32(V)
			tot += SolveOn(solve.New(m), f, V, g.Edges, p)
		}
		return float64(tot) / seeds
	}
	short := avgRounds(gen.Path(1 << 6))
	long := avgRounds(gen.Path(1 << 14))
	if long <= short {
		t.Errorf("rounds should grow with diameter: path 2^6 → %.1f, path 2^14 → %.1f", short, long)
	}
}

func TestRunStopsEarlyWhenDone(t *testing.T) {
	g := gen.Complete(8)
	m := pramtest.New(t, 0, pram.Seed(1))
	f := labeled.New(g.N)
	V := make([]int32, g.N)
	m.Iota32(V)
	s := NewState(solve.New(m), f, V, g.Edges, DefaultParams(g.N))
	used := s.Run(1000)
	if used >= 1000 {
		t.Fatal("K8 should contract in far fewer than 1000 rounds")
	}
	if !s.Done() {
		t.Fatal("state should be done")
	}
	if extra := s.Run(10); extra != 0 {
		t.Fatal("Run on a done state should execute nothing")
	}
}

func TestStatePreservesComponents(t *testing.T) {
	g := gen.Union(gen.Cycle(40), gen.Grid(5, 8))
	truth := baseline.BFSLabels(g)
	m := pramtest.New(t, 0, pram.Seed(9))
	f := labeled.New(g.N)
	V := make([]int32, g.N)
	m.Iota32(V)
	s := NewState(solve.New(m), f, V, g.Edges, DefaultParams(g.N))
	for r := 0; r < 6 && !s.Done(); r++ {
		s.Round()
		// Invariant: parents never cross ground-truth components, and all
		// current edges stay within components.
		if err := labeled.CheckSameComponent(f, truth); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		for _, e := range s.CurrentEdges() {
			if truth[e.U] != truth[e.V] {
				t.Fatalf("round %d: added edge crosses components", r)
			}
		}
	}
}

func TestLevelsNondecreasingAndBudgetsGrow(t *testing.T) {
	g := gen.RandomRegular(128, 4, 2)
	m := pramtest.New(t, 0, pram.Seed(4))
	f := labeled.New(g.N)
	V := make([]int32, g.N)
	m.Iota32(V)
	s := NewState(solve.New(m), f, V, g.Edges, DefaultParams(g.N))
	prev := append([]int32(nil), s.Level...)
	for r := 0; r < 5 && !s.Done(); r++ {
		s.Round()
		for v := range s.Level {
			if s.Level[v] < prev[v] {
				t.Fatalf("level of %d decreased: %d -> %d", v, prev[v], s.Level[v])
			}
		}
		copy(prev, s.Level)
	}
	if s.budgetOf(1) > s.budgetOf(5) {
		t.Error("budgets must be nondecreasing in level")
	}
	if s.budgetOf(0) < 4 || s.budgetOf(100) != s.budgetOf(63) {
		t.Error("budget bounds wrong")
	}
}

func TestMaxRoundsFallbackStillCorrect(t *testing.T) {
	// Force the safety fallback by allowing zero useful rounds.
	g := gen.Path(500)
	p := DefaultParams(g.N)
	p.MaxRounds = 1
	m := pramtest.New(t, 0, pram.Seed(8))
	f := Solve(m, g, p)
	if !graph.SamePartition(baseline.BFSLabels(g), f.Labels()) {
		t.Fatal("fallback must still produce the right partition")
	}
}

func TestDedupExtraBounded(t *testing.T) {
	g := gen.Complete(24)
	p := DefaultParams(g.N)
	p.DedupThreshold = 1
	m := pramtest.New(t, 0, pram.Seed(3))
	f := labeled.New(g.N)
	V := make([]int32, g.N)
	m.Iota32(V)
	s := NewState(solve.New(m), f, V, g.Edges, p)
	for r := 0; r < 8 && !s.Done(); r++ {
		s.Round()
		if len(s.Extra) > 4*p.DedupThreshold*(g.M()+1) {
			t.Fatalf("extra list grew unboundedly: %d", len(s.Extra))
		}
	}
}

func TestPaperParamsClamped(t *testing.T) {
	p := PaperParams(1 << 20)
	if p.Beta1 > 1<<14 || p.Beta1 < 4 {
		t.Errorf("clamped Beta1 = %d out of range", p.Beta1)
	}
	if p.LevelUpExp != 0.06 {
		t.Errorf("paper level-up exponent = %f", p.LevelUpExp)
	}
}
