package core

import (
	"fmt"
	"testing"

	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
	"parcc/internal/par"
	"parcc/internal/pram"
	"parcc/internal/pram/pramtest"
	"parcc/internal/solve"
)

// suite returns the graph families every correctness test runs against.
func suite() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"empty":        graph.New(0),
		"singleton":    graph.New(1),
		"isolated":     graph.New(64),
		"selfloops":    graph.FromPairs(5, [][2]int{{0, 0}, {1, 1}, {2, 3}}),
		"path":         gen.Path(257),
		"cycle":        gen.Cycle(200),
		"twocycles":    gen.TwoCycles(200),
		"grid":         gen.Grid(17, 23),
		"hypercube":    gen.Hypercube(7),
		"star":         gen.Star(300),
		"tree":         gen.BinaryTree(255),
		"complete":     gen.Complete(40),
		"expander":     gen.RandomRegular(512, 4, 7),
		"gnm-sparse":   gen.GNM(400, 300, 11),
		"gnm-dense":    gen.GNM(300, 2400, 13),
		"cliques-ring": gen.RingOfCliques(12, 10, 2, 17),
		"components": gen.Union(
			gen.Path(50), gen.Cycle(40), gen.Complete(12),
			gen.Star(30), graph.New(9), gen.RandomRegular(64, 3, 5)),
		"lollipop": gen.Lollipop(150, 30),
		"barbell":  gen.Barbell(160, 25),
		"parallel": graph.FromPairs(4, [][2]int{{0, 1}, {0, 1}, {0, 1}, {2, 3}, {2, 3}}),
	}
}

func checkLabels(t *testing.T, name string, g *graph.Graph, got []int32) {
	t.Helper()
	want := baseline.BFSLabels(g)
	if !graph.SamePartition(want, got) {
		t.Fatalf("%s: wrong partition: got %d comps, want %d",
			name, graph.NumLabels(got), graph.NumLabels(want))
	}
}

func TestConnectivityMatchesBFS(t *testing.T) {
	for name, g := range suite() {
		g := g
		t.Run(name, func(t *testing.T) {
			m := pramtest.New(t, 0, pram.Seed(42))
			res := Connectivity(solve.New(m), g, Default(g.N), nil)
			checkLabels(t, name, g, res.Labels)
		})
	}
}

func TestConnectivitySequentialOrders(t *testing.T) {
	// Arbitrary-write robustness: the result must be the same partition
	// under every write-resolution order.
	g := gen.Union(gen.Cycle(120), gen.Grid(9, 13), gen.RandomRegular(128, 3, 3))
	for _, ord := range []pram.Order{pram.Forward, pram.Reverse, pram.Shuffled} {
		m := pram.New(pram.WriteOrder(ord), pram.Seed(7))
		res := Connectivity(solve.New(m), g, Default(g.N), nil)
		checkLabels(t, ord.String(), g, res.Labels)
	}
}

func TestConnectivityPaperParams(t *testing.T) {
	g := gen.Union(gen.RandomRegular(256, 4, 9), gen.Path(100))
	m := pramtest.New(t, 0, pram.Seed(1))
	res := Connectivity(solve.New(m), g, Paper(g.N), nil)
	checkLabels(t, "paper-params", g, res.Labels)
}

func TestConnectivityManySeeds(t *testing.T) {
	g := gen.Union(gen.Cycle(90), gen.TwoCycles(80), gen.GNM(200, 260, 3))
	for seed := uint64(1); seed <= 8; seed++ {
		p := Default(g.N)
		p.Seed = seed
		m := pramtest.New(t, 0, pram.Seed(seed))
		res := Connectivity(solve.New(m), g, p, nil)
		checkLabels(t, fmt.Sprintf("seed=%d", seed), g, res.Labels)
	}
}

func TestSolveKnownGapMatchesBFS(t *testing.T) {
	for name, g := range suite() {
		g := g
		t.Run(name, func(t *testing.T) {
			m := pramtest.New(t, 0, pram.Seed(42))
			res := SolveKnownGap(solve.New(m), g, 16, Default(g.N), nil)
			checkLabels(t, name, g, res.Labels)
		})
	}
}

func TestConnectivityWorkBounded(t *testing.T) {
	// Charged work must stay within a reasonable multiple of m+n on a
	// well-connected graph (the Theorem-1 regime).
	g := gen.RandomRegular(4096, 8, 21)
	m := pramtest.New(t, 0, pram.Seed(5))
	res := Connectivity(solve.New(m), g, Default(g.N), nil)
	checkLabels(t, "expander", g, res.Labels)
	mn := int64(g.M() + g.N)
	if res.Work > 600*mn {
		t.Errorf("charged work %d exceeds 600·(m+n)=%d", res.Work, 600*mn)
	}
	if res.Steps == 0 || res.Work == 0 {
		t.Errorf("accounting not recorded: steps=%d work=%d", res.Steps, res.Work)
	}
}

func TestResultFields(t *testing.T) {
	g := gen.Cycle(64)
	m := pramtest.New(t, 0, pram.Seed(2))
	res := Connectivity(solve.New(m), g, Default(g.N), nil)
	if res.NumComponents != 1 {
		t.Fatalf("cycle: got %d components, want 1", res.NumComponents)
	}
	if len(res.Labels) != g.N {
		t.Fatalf("labels length %d, want %d", len(res.Labels), g.N)
	}
	if res.Phases < 0 || res.Phases > Default(g.N).MaxPhases {
		t.Errorf("phases out of range: %d", res.Phases)
	}
}

func TestBSchedule(t *testing.T) {
	p := Default(1 << 16)
	prev := 0
	for i := 0; i < 10; i++ {
		b := p.bSchedule(i)
		if b < prev {
			t.Fatalf("b schedule not monotone at phase %d: %d < %d", i, b, prev)
		}
		prev = b
	}
	if p.bSchedule(0) != p.B0 {
		t.Errorf("phase 0 guess = %d, want B0 = %d", p.bSchedule(0), p.B0)
	}
}

// TestConnectivityManySpans runs the whole pipeline on a pooled runtime
// with grains small enough that every fused pass (MATCHING, ALTER,
// SHORTCUT, MAXLINK) splits into many concurrent spans — the layout the
// deterministic golden modes never exercise.  Run under -race in CI.
func TestConnectivityManySpans(t *testing.T) {
	rt := par.New(par.Procs(2), par.Grain(32))
	defer rt.Close()
	graphs := suite()
	graphs["gnm-large"] = gen.GNM(3000, 6000, 19)
	for name, g := range graphs {
		m := pram.New(pram.Seed(7), pram.OnRuntime(rt), pram.Grain(16))
		res := Connectivity(solve.New(m), g, Default(g.N), nil)
		checkLabels(t, name, g, res.Labels)
	}
}
