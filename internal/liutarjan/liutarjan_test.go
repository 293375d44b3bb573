package liutarjan

import (
	"testing"
	"testing/quick"

	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
	"parcc/internal/pram"
	"parcc/internal/pram/pramtest"
)

// labels runs Solve and returns the forest's component labels.
func labels(m *pram.Machine, g *graph.Graph, cfg Config) []int32 {
	f, _ := Solve(m, g, cfg)
	return f.Labels()
}

func battery() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"empty":    graph.New(0),
		"isolated": graph.New(13),
		"path":     gen.Path(200),
		"cycle":    gen.Cycle(128),
		"grid":     gen.Grid(9, 11),
		"expander": gen.RandomRegular(128, 4, 5),
		"gnm":      gen.GNM(150, 260, 7),
		"loops":    graph.FromPairs(4, [][2]int{{0, 0}, {1, 2}, {2, 2}}),
		"parallel": graph.FromPairs(3, [][2]int{{0, 1}, {0, 1}, {1, 2}}),
		"union":    gen.Union(gen.Path(30), gen.Star(20), graph.New(4)),
	}
}

// Variants enumerates the six canonical framework members.
func Variants() []Config {
	return []Config{
		{Connect: ParentConnect, Alter: false},
		{Connect: ParentConnect, Alter: true},
		{Connect: ExtremeConnect, Alter: false},
		{Connect: ExtremeConnect, Alter: true},
		{Connect: RootConnect, Alter: false},
		{Connect: RootConnect, Alter: true},
	}
}

func TestAllVariantsMatchBFS(t *testing.T) {
	for _, cfg := range Variants() {
		cfg := cfg
		t.Run(Name(cfg), func(t *testing.T) {
			for name, g := range battery() {
				m := pramtest.New(t, 0, pram.Seed(3))
				got := labels(m, g, cfg)
				if !graph.SamePartition(baseline.BFSLabels(g), got) {
					t.Errorf("%s: wrong partition", name)
				}
			}
		})
	}
}

func TestVariantsSequentialOrders(t *testing.T) {
	g := gen.Union(gen.Cycle(60), gen.Grid(7, 8))
	for _, cfg := range Variants() {
		for _, ord := range []pram.Order{pram.Forward, pram.Reverse, pram.Shuffled} {
			m := pram.New(pram.WriteOrder(ord), pram.Seed(5))
			got := labels(m, g, cfg)
			if !graph.SamePartition(baseline.BFSLabels(g), got) {
				t.Errorf("%s/%v: wrong partition", Name(cfg), ord)
			}
		}
	}
}

func TestRoundsPolylog(t *testing.T) {
	// Each variant should finish a 4096-path well within the O(log² n)
	// safety budget.
	g := gen.Path(4096)
	for _, cfg := range Variants() {
		m := pramtest.New(t, 0, pram.Seed(7))
		_, rounds := Solve(m, g, cfg)
		if rounds >= 8*12*12+64 {
			t.Errorf("%s: hit the round cap (%d)", Name(cfg), rounds)
		}
		if rounds < 2 {
			t.Errorf("%s: suspiciously few rounds (%d)", Name(cfg), rounds)
		}
	}
}

func TestForestInvariants(t *testing.T) {
	g := gen.GNM(300, 450, 9)
	truth := baseline.BFSLabels(g)
	for _, cfg := range Variants() {
		m := pramtest.New(t, 0, pram.Seed(11))
		f, _ := Solve(m, g, cfg)
		if err := f.CheckAcyclic(); err != nil {
			t.Fatalf("%s: %v", Name(cfg), err)
		}
		if h := f.MaxHeight(); h > 1 {
			t.Errorf("%s: final height %d", Name(cfg), h)
		}
		for v, l := range f.Labels() {
			if truth[v] != truth[l] {
				t.Fatalf("%s: label crosses components", Name(cfg))
			}
		}
	}
}

func TestQuickRandomGraphs(t *testing.T) {
	cfg := Config{Connect: ParentConnect, Alter: true}
	f := func(seed uint64) bool {
		g := gen.GNM(64, 90, seed)
		m := pramtest.New(t, 0, pram.Seed(seed))
		return graph.SamePartition(baseline.BFSLabels(g), labels(m, g, cfg))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestVariantStrings(t *testing.T) {
	if ParentConnect.String() != "parent-connect" ||
		ExtremeConnect.String() != "extreme-connect" ||
		RootConnect.String() != "root-connect" {
		t.Error("variant names wrong")
	}
	if Variant(9).String() == "" {
		t.Error("unknown variant should format")
	}
	if Name(Config{Connect: RootConnect, Alter: true}) != "root-connect+alter" {
		t.Error("Name format wrong")
	}
}

func TestMaxRoundsCap(t *testing.T) {
	// With MaxRounds=1 the algorithm must stop early but never corrupt the
	// forest (partial progress is a valid contraction).
	g := gen.Path(500)
	truth := baseline.BFSLabels(g)
	m := pramtest.New(t, 0, pram.Seed(1))
	f, rounds := Solve(m, g, Config{Connect: ParentConnect, MaxRounds: 1})
	if rounds != 1 {
		t.Fatalf("rounds = %d", rounds)
	}
	for v, l := range f.Labels() {
		if truth[v] != truth[l] {
			t.Fatal("partial run crossed components")
		}
	}
}
