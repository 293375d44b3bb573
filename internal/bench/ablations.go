package bench

import (
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
	"parcc/internal/labeled"
	"parcc/internal/ltz"
	"parcc/internal/pram"
	"parcc/internal/solve"
	"parcc/internal/stage1"
)

// E16FilterDeletion ablates FILTER's per-round edge-deletion probability
// (paper: 10^-4).  Deletion is the work-reduction device of §4.2: too low
// and every round rescans all edges (work grows); too high and edges die
// before MATCHING can use them, leaving more live roots for later stages.
func E16FilterDeletion(c Config) *Table {
	t := &Table{
		ID:    "E16",
		Title: "ablation: FILTER edge-deletion probability",
		Claim: "§4.2: per-round deletion bounds FILTER's total work; the paper sets 10^-4",
		Columns: []string{"delete p", "live roots after REDUCE", "work/(m+n)",
			"steps"},
	}
	n := 1 << 13
	if c.Scale == Full {
		n = 1 << 15
	}
	g := gen.RandomRegular(n, 4, c.seed())
	for _, p := range []float64{0, 1e-4, 1e-2, 0.1, 0.3} {
		m := c.machine()
		f := labeled.New(g.N)
		prm := stage1.DefaultParams(g.N)
		prm.DeleteP64 = pram.P64(p)
		r := stage1.NewRunner(solve.New(m), f, prm)
		res := r.Reduce(g)
		live := map[int32]struct{}{}
		for _, e := range res.Edges {
			if e.U != e.V {
				live[e.U] = struct{}{}
				live[e.V] = struct{}{}
			}
		}
		t.Add(p, len(live), float64(m.Work())/float64(g.M()+g.N), m.Steps())
	}
	t.Note("p=0 never sheds edges (upper work bound); large p starves MATCHING")
	return t
}

// E17BudgetGrid ablates EXPAND-MAXLINK's two knobs: the base budget β₁
// (table size) and the level-up exponent x in P[level up] = β^(-x)
// (paper: β₁=(log n)^80, x=0.06).  Budgets control how fast neighborhoods
// square (the log d term); the exponent controls level diversity and hence
// how often MAXLINK can contract (the log log n term).
func E17BudgetGrid(c Config) *Table {
	t := &Table{
		ID:    "E17",
		Title: "ablation: EXPAND-MAXLINK budgets and level-up rate",
		Claim: "§5.2: budget growth + random level-ups drive the O(log d + log log n) bound",
		Columns: []string{"beta1", "level-up exp", "graph", "rounds",
			"work/(m+n)"},
	}
	n := 1 << 12
	if c.Scale == Full {
		n = 1 << 14
	}
	fams := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", gen.Path(n)},
		{"expander", gen.RandomRegular(n, 4, c.seed())},
	}
	for _, beta := range []int{4, 16, 64} {
		for _, exp := range []float64{0.06, 0.25, 0.5} {
			for _, fam := range fams {
				p := ltz.DefaultParams(fam.g.N)
				p.Beta1 = beta
				p.LevelUpExp = exp
				p.Seed = c.seed()
				m := c.machine()
				f := labeled.New(fam.g.N)
				V := make([]int32, fam.g.N)
				m.Iota32(V)
				rounds := ltz.SolveOn(solve.New(m), f, V, fam.g.Edges, p)
				t.Add(beta, exp, fam.name, rounds,
					float64(m.Work())/float64(fam.g.M()+fam.g.N))
			}
		}
	}
	t.Note("larger budgets square neighborhoods faster but cost table work; the exponent trades level diversity against wasted rounds")
	return t
}
