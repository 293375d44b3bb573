package parcc

import (
	"slices"
	"testing"

	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
)

// TestFrontierEquivalenceAcrossFamilies is the cross-algorithm property
// suite for the frontier engine: on every generator family and both
// backends, `frontier` must produce exactly the component-minima labels of
// the sequential cas baseline (itself checked against BFS ground truth) —
// not merely the same partition, since both converge to per-component
// minima under any schedule.
func TestFrontierEquivalenceAcrossFamilies(t *testing.T) {
	for name, g := range familyGraphs() {
		truth := baseline.BFSLabels(g)
		casL := mustLabels(t, g, &Options{Algorithm: CASUnite, Backend: BackendSequential})
		if !graph.SamePartition(truth, casL) {
			t.Fatalf("%s: cas baseline wrong", name)
		}
		for _, backend := range []Backend{BackendSequential, BackendConcurrent} {
			res, err := ConnectedComponents(g, &Options{Algorithm: Frontier, Backend: backend, Procs: 4, Seed: 5})
			if err != nil {
				t.Fatalf("%s/%s frontier: %v", name, backend, err)
			}
			for v := range casL {
				if res.Labels[v] != casL[v] {
					t.Fatalf("%s/%s: frontier label[%d]=%d, want min-label %d",
						name, backend, v, res.Labels[v], casL[v])
				}
			}
			want := 0
			for v, l := range casL {
				if int32(v) == l {
					want++
				}
			}
			if res.NumComponents != want {
				t.Errorf("%s/%s: frontier counted %d components, want %d",
					name, backend, res.NumComponents, want)
			}
		}
	}
}

// TestFrontierMeshDispatch pins the auto dispatcher on the
// high-diameter lattice shapes the frontier engine targets: path, grid,
// and torus dispatch to union-find under the "sparse" row on a procs-2
// session and to cas under the "wide" row on a procs-4 one (the splicing
// union-find beats the engine there), and frontier, selected explicitly,
// still labels them with the same component minima.
func TestFrontierMeshDispatch(t *testing.T) {
	sq := 1 << 7
	for _, c := range []struct {
		name string
		g    *Graph
	}{
		{"path", gen.Path(1 << 14)},
		{"grid", gen.Grid(sq, sq)},
		{"torus", gen.Torus(sq, sq)},
	} {
		fr, err := ConnectedComponents(c.g, &Options{Algorithm: Frontier})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []struct {
			procs int
			algo  Algorithm
			rule  string
		}{{2, UnionFind, "sparse"}, {4, CASUnite, "wide"}} {
			s, err := NewSolver(&Options{Algorithm: Auto, Procs: w.procs, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Solve(c.g)
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
			if res.Algorithm != w.algo {
				t.Errorf("%s procs=%d: auto picked %q, want %q", c.name, w.procs, res.Algorithm, w.algo)
			}
			if d := res.Trace.Dispatch; d == nil || d.Rule != w.rule || d.Procs != w.procs {
				t.Fatalf("%s procs=%d: dispatch = %+v, want rule %s", c.name, w.procs, d, w.rule)
			}
			if res.Trace.Frontier != nil {
				t.Errorf("%s procs=%d: auto solve recorded frontier passes", c.name, w.procs)
			}
			if fr.Algorithm != Frontier || !slices.Equal(fr.Labels, res.Labels) {
				t.Errorf("%s procs=%d: frontier (%q) labels differ from auto's", c.name, w.procs, fr.Algorithm)
			}
		}
	}
}

// TestFrontierFewerInspections is the edge-inspection acceptance bar: on
// the high-diameter mesh families, the frontier engine must finish in at
// most two passes (flood, then hook the residual) reading at most 4m
// edge endpoints, and strictly fewer than the dense round structure,
// which pays the full 2m every round.  The trace's occupancy series must
// also account for the frontier shrinking rather than staying at n.
func TestFrontierFewerInspections(t *testing.T) {
	sq := 1 << 7
	for _, c := range []struct {
		name string
		g    *Graph
	}{
		{"path", gen.Path(1 << 14)},
		{"grid", gen.Grid(sq, sq)},
		{"torus", gen.Torus(sq, sq)},
	} {
		res, err := ConnectedComponents(c.g, &Options{Algorithm: Frontier, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		f := res.Trace.Frontier
		if f == nil || f.Rounds > 2 || f.Inspected > int64(4*c.g.M()) {
			t.Fatalf("%s: traced frontier solve must take ≤ 2 passes and ≤ 4m inspections, got %+v", c.name, f)
		}
		dense := int64(f.Rounds) * int64(2*c.g.M())
		if f.Inspected >= dense {
			t.Errorf("%s: frontier inspected %d edge endpoints over %d rounds, dense rounds would pay %d",
				c.name, f.Inspected, f.Rounds, dense)
		}
		var occ int64
		for _, o := range f.Occupancy {
			occ += o
		}
		if occ >= int64(f.Rounds)*int64(c.g.N) {
			t.Errorf("%s: occupancy sum %d never shrank below rounds×n = %d",
				c.name, occ, int64(f.Rounds)*int64(c.g.N))
		}
	}
}
