package stage3

import (
	"testing"

	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
	"parcc/internal/labeled"
	"parcc/internal/pram"
	"parcc/internal/pram/pramtest"
	"parcc/internal/solve"
)

func TestSampleSolveSmallInstanceExact(t *testing.T) {
	// |V| ≤ SmallN path: simplify + solve directly — always exact.
	g := gen.Union(gen.Cycle(10), gen.Path(7))
	truth := baseline.BFSLabels(g)
	m := pramtest.New(t, 0, pram.Seed(1))
	f := labeled.New(g.N)
	V := make([]int32, g.N)
	m.Iota32(V)
	p := DefaultParams(g.N)
	p.SmallN = g.N + 1
	SampleSolve(solve.New(m), f, V, g.Edges, p)
	if !graph.SamePartition(truth, f.Labels()) {
		t.Fatal("small-instance path must solve exactly")
	}
}

func TestSampleSolveDenseGraphSurvivesSampling(t *testing.T) {
	// With min degree ≫ 1/p the sampled subgraph stays connected w.h.p.
	// (Appendix C / Corollary C.3): a dense expander must come out whole.
	g := gen.RandomRegular(600, 32, 5)
	truth := baseline.BFSLabels(g)
	m := pramtest.New(t, 0, pram.Seed(9))
	f := labeled.New(g.N)
	V := make([]int32, g.N)
	m.Iota32(V)
	p := DefaultParams(g.N)
	p.SmallN = 1 // force the sampling path
	p.SampleP64 = pram.P64(0.5)
	SampleSolve(solve.New(m), f, V, g.Edges, p)
	if !graph.SamePartition(truth, f.Labels()) {
		t.Fatal("dense expander lost connectivity through sampling")
	}
}

func TestSampleSolveContractionSafety(t *testing.T) {
	// Even when sampling disconnects components (low degree), the forest
	// must never merge across true components.
	g := gen.Union(gen.Path(300), gen.Cycle(200))
	truth := baseline.BFSLabels(g)
	m := pramtest.New(t, 0, pram.Seed(3))
	f := labeled.New(g.N)
	V := make([]int32, g.N)
	m.Iota32(V)
	p := DefaultParams(g.N)
	p.SmallN = 1
	p.SampleP64 = pram.P64(0.1)
	SampleSolve(solve.New(m), f, V, g.Edges, p)
	if err := labeled.CheckSameComponent(f, truth); err != nil {
		t.Fatal(err)
	}
}

func TestSampleSolveReportsSampledCount(t *testing.T) {
	g := gen.Complete(100)
	m := pramtest.New(t, 0, pram.Seed(7))
	f := labeled.New(g.N)
	V := make([]int32, g.N)
	m.Iota32(V)
	p := DefaultParams(g.N)
	p.SmallN = 1
	p.SampleP64 = pram.P64(0.25)
	got := SampleSolve(solve.New(m), f, V, g.Edges, p)
	frac := float64(got) / float64(g.M())
	if frac < 0.15 || frac > 0.35 {
		t.Errorf("sampled fraction %.3f, want ≈0.25", frac)
	}
}

func TestSampleSolveFlattensOriginalTrees(t *testing.T) {
	// Step 4's triple jump must leave trees of height ≤ 1 when entering
	// with height ≤ 3 (the Stage-2 postcondition).
	n := 10
	f := labeled.New(n)
	f.P[1] = 0
	f.P[2] = 1
	f.P[3] = 2 // height 3 chain
	m := pramtest.New(t, 0)
	p := DefaultParams(n)
	p.SmallN = n + 1
	SampleSolve(solve.New(m), f, []int32{0}, nil, p)
	if h := f.MaxHeight(); h > 1 {
		t.Fatalf("height %d after final jump", h)
	}
}

func TestSmallCut(t *testing.T) {
	if smallCut(10) < 8 {
		t.Error("small cut floor")
	}
	if smallCut(1<<60) <= smallCut(1<<10) {
		t.Error("small cut should grow with n (beyond the floor)")
	}
}

func TestDefaultParamsSeedStable(t *testing.T) {
	a := DefaultParams(1000)
	b := DefaultParams(1000)
	if a.SampleP64 != b.SampleP64 || a.Seed != b.Seed {
		t.Error("params must be deterministic")
	}
}
