package core

import (
	"testing"

	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
	"parcc/internal/pram"
	"parcc/internal/pram/pramtest"
	"parcc/internal/solve"
)

func TestRemainOrBackstopCompletesSparseGraphs(t *testing.T) {
	// On a long path the sampled H₁ shatters and contracts quickly, so a
	// phase terminates via REMAIN (or, failing that, the backstop): the
	// completion mechanism must fire and the result must be exact.
	g := gen.Path(4000)
	m := pramtest.New(t, 0, pram.Seed(3))
	res := Connectivity(solve.New(m), g, Default(g.N), nil)
	if !graph.SamePartition(baseline.BFSLabels(g), res.Labels) {
		t.Fatal("path result wrong")
	}
	if !res.UsedRemain && !res.UsedBackstop {
		t.Error("neither REMAIN nor backstop fired on a sparse graph")
	}
}

func TestPhaseRoundsRecorded(t *testing.T) {
	g := gen.RandomRegular(2048, 6, 5)
	m := pramtest.New(t, 0, pram.Seed(5))
	res := Connectivity(solve.New(m), g, Default(g.N), nil)
	if len(res.PhaseRounds) != res.Phases {
		t.Fatalf("recorded %d phase-round entries for %d phases",
			len(res.PhaseRounds), res.Phases)
	}
	for i, r := range res.PhaseRounds {
		if r <= 0 {
			t.Errorf("phase %d charged %d rounds", i, r)
		}
	}
}

func TestStrictBudgetsEscalatePhases(t *testing.T) {
	// With minimal per-phase budgets, a low-λ graph cannot finish in phase
	// 0, so the schedule must escalate — and still end correct.
	g := gen.RingOfCliques(24, 12, 1, 3)
	p := Default(g.N)
	p.SolveRoundsC = 1
	p.H1Rounds = 1
	p.B0 = 4
	m := pramtest.New(t, 0, pram.Seed(9))
	res := Connectivity(solve.New(m), g, p, nil)
	if !graph.SamePartition(baseline.BFSLabels(g), res.Labels) {
		t.Fatal("strict-budget run wrong")
	}
	t.Logf("strict budgets: phases=%d finalB=%d remain=%v backstop=%v",
		res.Phases, res.FinalB, res.UsedRemain, res.UsedBackstop)
}

func TestRevertIsolatesFailedPhases(t *testing.T) {
	// Run with budgets so strict that early phases must fail; the final
	// partition must still be exact, which exercises the Step-5 revert (a
	// broken revert leaves the forest poisoned by the failed INCREASE).
	g := gen.Union(gen.Cycle(900), gen.Path(700), gen.RandomRegular(512, 4, 2))
	p := Default(g.N)
	p.SolveRoundsC = 1
	p.H1Rounds = 1
	p.MaxPhases = 3
	for seed := uint64(1); seed <= 6; seed++ {
		p.Seed = seed
		m := pramtest.New(t, 0, pram.Seed(seed))
		res := Connectivity(solve.New(m), g, p, nil)
		if !graph.SamePartition(baseline.BFSLabels(g), res.Labels) {
			t.Fatalf("seed %d: revert corrupted the run", seed)
		}
	}
}

func TestAdversarialRelabeling(t *testing.T) {
	// Hook-to-smaller algorithms are sensitive to label order; the paper's
	// algorithm must not be.  Run the same graph under identity, reversed,
	// and shuffled labelings.
	base := gen.Union(gen.Grid(20, 20), gen.Cycle(300))
	perms := map[string]func(i, n int) int32{
		"identity": func(i, n int) int32 { return int32(i) },
		"reversed": func(i, n int) int32 { return int32(n - 1 - i) },
		"shuffled": func(i, n int) int32 {
			return int32((uint64(i)*2654435761 + 7) % uint64(n))
		},
	}
	for name, pf := range perms {
		perm := make([]int32, base.N)
		used := make([]bool, base.N)
		for i := range perm {
			p := pf(i, base.N)
			for used[p] { // linear probe to a free slot keeps it a permutation
				p = (p + 1) % int32(base.N)
			}
			perm[i] = p
			used[p] = true
		}
		g := graph.New(base.N)
		for _, e := range base.Edges {
			g.Edges = append(g.Edges, graph.Edge{U: perm[e.U], V: perm[e.V]})
		}
		m := pramtest.New(t, 0, pram.Seed(4))
		res := Connectivity(solve.New(m), g, Default(g.N), nil)
		if !graph.SamePartition(baseline.BFSLabels(g), res.Labels) {
			t.Errorf("%s relabeling broke the run", name)
		}
	}
}

func TestManyComponentsAllRegimes(t *testing.T) {
	// A union mixing every gap regime plus singletons, solved with both
	// drivers and checked for exactness and component counts.
	g := gen.Union(
		gen.RandomRegular(512, 8, 1), // λ = Θ(1)
		gen.Hypercube(8),             // λ = Θ(1/log n)
		gen.Grid(16, 16),             // λ = Θ(1/n)
		gen.Cycle(256),               // λ = Θ(1/n²)
		graph.New(17),                // singletons
	)
	want := graph.NumLabels(baseline.BFSLabels(g))
	for _, known := range []bool{false, true} {
		m := pramtest.New(t, 0, pram.Seed(11))
		var res *Result
		if known {
			res = SolveKnownGap(solve.New(m), g, 8, Default(g.N), nil)
		} else {
			res = Connectivity(solve.New(m), g, Default(g.N), nil)
		}
		if res.NumComponents != want {
			t.Errorf("known=%v: %d components, want %d", known, res.NumComponents, want)
		}
	}
}

func TestBreakdownPartitionsTotals(t *testing.T) {
	g := gen.RandomRegular(1024, 4, 7)
	m := pramtest.New(t, 0, pram.Seed(2))
	res := Connectivity(solve.New(m), g, Default(g.N), nil)
	var steps, work int64
	for _, mk := range res.Breakdown {
		steps += mk.Steps
		work += mk.Work
	}
	if steps != res.Steps || work != res.Work {
		t.Errorf("breakdown sums (%d,%d) != totals (%d,%d)", steps, work, res.Steps, res.Work)
	}
}

func TestKnownGapBreakdownStages(t *testing.T) {
	g := gen.RandomRegular(1024, 6, 3)
	m := pramtest.New(t, 0, pram.Seed(2))
	res := SolveKnownGap(solve.New(m), g, 8, Default(g.N), nil)
	labels := map[string]bool{}
	for _, mk := range res.Breakdown {
		labels[mk.Label] = true
	}
	for _, want := range []string{"stage1-reduce", "stage2-increase", "stage3-samplesolve", "backstop"} {
		if !labels[want] {
			t.Errorf("known-gap breakdown missing %q (got %v)", want, labels)
		}
	}
}
