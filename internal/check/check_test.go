package check

import (
	"testing"

	"parcc/internal/graph"
	"parcc/internal/graph/gen"
	"parcc/internal/labeled"
	"parcc/internal/ltz"
	"parcc/internal/pram"
	"parcc/internal/pram/pramtest"
	"parcc/internal/solve"
	"parcc/internal/stage1"
	"parcc/internal/stage2"
)

func TestSafetyDetectsCrossComponentParent(t *testing.T) {
	g := gen.Union(gen.Path(3), gen.Path(3))
	f := labeled.New(g.N)
	s := New(g, f)
	if err := s.Safety(); err != nil {
		t.Fatalf("fresh forest: %v", err)
	}
	f.P[0] = 4 // crosses components
	if s.Safety() == nil {
		t.Fatal("cross-component parent not detected")
	}
}

func TestSafetyDetectsCycle(t *testing.T) {
	g := gen.Path(4)
	f := labeled.New(g.N)
	f.P[1] = 2
	f.P[2] = 1
	if New(g, f).Safety() == nil {
		t.Fatal("cycle not detected")
	}
}

func TestFlatAndOnRoots(t *testing.T) {
	g := gen.Path(5)
	f := labeled.New(g.N)
	f.P[1] = 0
	f.P[2] = 1
	s := New(g, f)
	if s.FlatAndOnRoots(nil, 1) == nil {
		t.Fatal("height 2 not detected")
	}
	if err := s.FlatAndOnRoots(nil, 2); err != nil {
		t.Fatal(err)
	}
	if s.FlatAndOnRoots([]graph.Edge{{U: 2, V: 4}}, 2) == nil {
		t.Fatal("non-root edge end not detected")
	}
}

func TestRootsPerComponentAndMonotone(t *testing.T) {
	g := gen.Union(gen.Path(4), gen.Path(2))
	f := labeled.New(g.N)
	s := New(g, f)
	before := s.RootsPerComponent()
	if before[0] != 4 || before[4] != 2 {
		t.Fatalf("fresh counts: %v", before)
	}
	f.P[1] = 0
	f.P[2] = 0
	after := s.RootsPerComponent()
	if after[0] != 2 {
		t.Fatalf("after contraction: %v", after)
	}
	if err := Monotone(before, after); err != nil {
		t.Fatal(err)
	}
	if Monotone(after, before) == nil {
		t.Fatal("increase not detected")
	}
}

func TestFinished(t *testing.T) {
	g := gen.Path(3)
	f := labeled.New(g.N)
	s := New(g, f)
	if s.Finished() == nil {
		t.Fatal("unfinished forest declared finished")
	}
	f.P[1] = 0
	f.P[2] = 0
	if err := s.Finished(); err != nil {
		t.Fatal(err)
	}
}

// TestInstrumentedPipeline runs Stage 1 → Stage 2 → LTZ with invariants
// asserted at every boundary — the harness's raison d'être.
func TestInstrumentedPipeline(t *testing.T) {
	g := gen.Union(gen.RandomRegular(600, 4, 3), gen.Cycle(150), gen.GNM(300, 420, 5))
	m := pramtest.New(t, 0, pram.Seed(7))
	f := labeled.New(g.N)
	s := New(g, f)

	// Stage 1.
	r := stage1.NewRunner(solve.New(m), f, stage1.DefaultParams(g.N))
	red := r.Reduce(g)
	if err := s.Safety(); err != nil {
		t.Fatalf("after REDUCE: %v", err)
	}
	if err := s.FlatAndOnRoots(red.Edges, 1); err != nil {
		t.Fatalf("after REDUCE (Lemma 4.21): %v", err)
	}
	before := s.RootsPerComponent()

	// Stage 2.
	E := append([]graph.Edge(nil), red.Edges...)
	eclose := stage2.Increase(solve.New(m), f, red.Roots, E, stage2.DefaultParams(g.N, 8))
	if err := s.Safety(); err != nil {
		t.Fatalf("after INCREASE: %v", err)
	}
	if err := s.EdgesIntraComponent(eclose); err != nil {
		t.Fatalf("close edges: %v", err)
	}
	after := s.RootsPerComponent()
	if err := Monotone(before, after); err != nil {
		t.Fatalf("INCREASE regressed contraction: %v", err)
	}

	// Finish with Theorem 2 on the remaining edges, then flatten.
	E = labeled.Alter(m, f, E)
	if len(E) > 0 {
		V := make([]int32, 0, len(E)*2)
		seen := map[int32]bool{}
		for _, e := range E {
			if !seen[e.U] {
				seen[e.U] = true
				V = append(V, e.U)
			}
			if !seen[e.V] {
				seen[e.V] = true
				V = append(V, e.V)
			}
		}
		ltz.SolveOn(solve.New(m), f, V, E, ltz.DefaultParams(g.N))
	}
	labeled.FlattenAll(m, f)
	if err := s.Safety(); err != nil {
		t.Fatalf("after finish: %v", err)
	}
	if err := s.Finished(); err != nil {
		t.Fatalf("pipeline incomplete: %v", err)
	}
}

// TestInstrumentedMatchingRounds asserts the height discipline of REDUCE
// Step 5 ("MATCHING(E′); for each v ∈ V: v.p = v.p.p; ALTER(E′)"): each
// MATCHING call grows heights by at most one level (Lemma 4.5 applies to
// the roots; vertices contracted in earlier rounds ride along one level
// deeper), and the interleaved global shortcut keeps the forest within
// height 2 at every boundary.
func TestInstrumentedMatchingRounds(t *testing.T) {
	g := gen.GNM(500, 800, 21)
	m := pramtest.New(t, 0, pram.Seed(3))
	f := labeled.New(g.N)
	s := New(g, f)
	r := stage1.NewRunner(solve.New(m), f, stage1.DefaultParams(g.N))
	E := append([]graph.Edge(nil), g.Edges...)
	prevH := 0
	for round := 0; round < 8; round++ {
		r.Matching(E)
		if err := s.Safety(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if h := f.MaxHeight(); h > prevH+1 {
			t.Fatalf("round %d: height jumped %d -> %d (> +1 per MATCHING)", round, prevH, h)
		}
		labeled.ShortcutAll(m, f)
		E = labeled.Alter(m, f, E)
		if h := f.MaxHeight(); h > 2 {
			t.Fatalf("round %d: height %d after shortcut", round, h)
		}
		prevH = f.MaxHeight()
	}
}
