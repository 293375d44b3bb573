package bench

import (
	"slices"
	"testing"

	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/liutarjan"
	"parcc/internal/ltz"
	"parcc/internal/par"
	"parcc/internal/pram"
)

// baselines are the classical comparators of E2 and E10, each run through
// its one machine-based entry point.  Forest-producing baselines report
// their roots by the sequential chase, so the labels depend only on the
// forest the machine built.
var baselines = []struct {
	name string
	run  func(m *pram.Machine, g *graph.Graph) []int32
}{
	{"ltz", func(m *pram.Machine, g *graph.Graph) []int32 {
		return ltz.Solve(m, g, ltz.DefaultParams(g.N)).Labels()
	}},
	{"sv", func(m *pram.Machine, g *graph.Graph) []int32 {
		return baseline.ShiloachVishkin(m, g).Labels()
	}},
	{"random-mate", func(m *pram.Machine, g *graph.Graph) []int32 {
		return baseline.RandomMate(m, g, 5).Labels()
	}},
	{"label-prop", baseline.LabelProp},
	{"liu-tarjan", func(m *pram.Machine, g *graph.Graph) []int32 {
		f, _ := liutarjan.Solve(m, g, liutarjan.Config{Connect: liutarjan.ParentConnect, Alter: true})
		return f.Labels()
	}},
	{"bfs", func(_ *pram.Machine, g *graph.Graph) []int32 { return baseline.BFSLabels(g) }},
}

// TestBaselineEquivalenceAcrossFamilies is the cross-check of every
// classical baseline, on every solve family plus the degenerate shapes
// that historically break contraction algorithms:
//   - the sequential simulator's partition matches BFS;
//   - the concurrent runtime at procs 4 gives the same partition;
//   - the runtime at procs 1 charges the same Steps and Work as the
//     simulator and returns the same labels (one worker runs every loop
//     in index order, so every concurrent-write winner is the same).
func TestBaselineEquivalenceAcrossFamilies(t *testing.T) {
	rt1, rt4 := par.New(par.Procs(1)), par.New(par.Procs(4))
	defer rt1.Close()
	defer rt4.Close()
	graphs := map[string]*graph.Graph{
		"empty":          graph.New(0),
		"all-loops":      graph.FromPairs(5, [][2]int{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}}),
		"heavy-parallel": graph.FromPairs(2, slices.Repeat([][2]int{{0, 1}}, 200)),
		"single-edge":    graph.FromPairs(100, [][2]int{{42, 77}}),
	}
	for _, f := range Families(1<<8, 1) {
		graphs[f.Name] = f.Make()
	}
	for _, name := range sortedKeys(graphs) {
		g := graphs[name]
		truth := baseline.BFSLabels(g)
		for _, b := range baselines {
			seq := pram.New(pram.Seed(5))
			one := pram.New(pram.Seed(5), pram.OnRuntime(rt1))
			seqL, oneL := b.run(seq, g), b.run(one, g)
			conL := b.run(pram.New(pram.Seed(5), pram.OnRuntime(rt4)), g)
			if !graph.SamePartition(truth, seqL) {
				t.Errorf("%s/%s: sequential partition differs from BFS", name, b.name)
			}
			if !graph.SamePartition(seqL, conL) {
				t.Errorf("%s/%s: procs-4 partition differs from sequential", name, b.name)
			}
			if seq.Steps() != one.Steps() || seq.Work() != one.Work() || !slices.Equal(seqL, oneL) {
				t.Errorf("%s/%s: sequential (steps=%d work=%d) and procs 1 (steps=%d work=%d) diverge (labels equal: %v)",
					name, b.name, seq.Steps(), seq.Work(), one.Steps(), one.Work(), slices.Equal(seqL, oneL))
			}
		}
	}
}
