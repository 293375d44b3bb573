package parcc

import (
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
		truth := mustLabels(t, g, &Options{Algorithm: BFS})
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

// TestFrontierMeshDispatch pins the auto dispatcher's mesh rule on the
// high-diameter lattice shapes the frontier engine targets: path, grid,
// and torus all dispatch to frontier under the "mesh" rule, with the
// measured edge locality recorded in the decision.
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
		s, err := NewSolver(&Options{Algorithm: Auto, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(c.g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Algorithm != Frontier {
			t.Errorf("%s: auto picked %q, want frontier", c.name, res.Algorithm)
		}
		d := res.Trace.Dispatch
		if d == nil || d.Rule != "mesh" {
			t.Fatalf("%s: dispatch = %+v, want rule mesh", c.name, d)
		}
		if d.Locality < frontierMeshLocality {
			t.Errorf("%s: recorded locality %.3f below the mesh threshold %.2f",
				c.name, d.Locality, frontierMeshLocality)
		}
		s.Close()
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

// TestFrontierIncrementalPaths drives the incremental session over a mesh
// graph that qualifies for the frontier fast paths — Attach and the scoped
// re-solve of RemoveEdges both route through the frontier engine — and
// asserts the partition and maintained count against the from-scratch
// oracle after every step.  The traced AddEdges must record the batch's
// touched endpoints as the repair's seeded frontier.  NoForest pins the
// scoped deletion machinery itself: with the forest on, these deletions
// resolve through the replacement search and never reach it.
func TestFrontierIncrementalPaths(t *testing.T) {
	side := 128 // m = 2·side·(side−1) ≈ 2^15: past frontierIncMinEdges
	base := gen.Grid(side, side)
	if !frontierWorthwhile(base) {
		t.Fatal("test graph must qualify for the frontier attach path")
	}
	s, err := NewSolver(&Options{Backend: BackendConcurrent, Procs: 4, Seed: 2, Trace: true, NoForest: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	oracle := baseline.NewIncOracle(base)
	if err := s.Attach(base.Clone()); err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		res, err := s.Components()
		if err != nil {
			t.Fatal(err)
		}
		wantLabels := oracle.Labels()
		if !graph.SamePartition(wantLabels, res.Labels) {
			t.Fatalf("%s: partition differs from oracle", stage)
		}
		distinct := map[int32]bool{}
		for _, l := range wantLabels {
			distinct[l] = true
		}
		if wantN := len(distinct); res.NumComponents != wantN {
			t.Fatalf("%s: count = %d, want %d", stage, res.NumComponents, wantN)
		}
	}
	check("attach")
	if tr := s.LastTrace(); tr == nil || tr.Frontier == nil || tr.Frontier.Rounds == 0 {
		t.Fatal("frontier attach must record frontier rounds in its trace")
	}

	// Cut a corner off the grid: the dirty region is the giant component,
	// still mesh-shaped, so the scoped re-solve takes the frontier branch.
	rm := []Edge{base.Edges[0], base.Edges[1], base.Edges[2]}
	if err := s.RemoveEdges(rm); err != nil {
		t.Fatal(err)
	}
	if err := oracle.RemoveEdges(rm); err != nil {
		t.Fatal(err)
	}
	check("scoped re-solve")
	if tr := s.LastTrace(); tr == nil || tr.Frontier == nil || tr.Frontier.Rounds == 0 {
		t.Fatal("frontier scoped re-solve must record frontier rounds in its trace")
	}

	add := []Edge{{U: 0, V: 1}, {U: 17, V: 4000}, {U: 17, V: 4000}}
	if err := s.AddEdges(add); err != nil {
		t.Fatal(err)
	}
	if err := oracle.AddEdges(add); err != nil {
		t.Fatal(err)
	}
	check("insert after frontier paths")
	tr := s.LastTrace()
	if tr == nil || tr.Frontier == nil || tr.Frontier.Rounds != 1 {
		t.Fatalf("add-edges trace = %+v, want one seeded frontier round", tr)
	}
	// Four distinct endpoints across the three batch edges (one duplicate
	// pair): the seeded frontier dedups.
	if tr.Frontier.Occupancy[0] != 4 {
		t.Errorf("seeded frontier round = occ %d, want 4", tr.Frontier.Occupancy[0])
	}
}
