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
// and torus all dispatch to cas under the "sparse" row (the splicing
// union-find beats the engine there at procs 1 and 2), and frontier,
// selected explicitly, still labels them with the same component minima.
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
		if res.Algorithm != CASUnite {
			t.Errorf("%s: auto picked %q, want cas", c.name, res.Algorithm)
		}
		if d := res.Trace.Dispatch; d == nil || d.Rule != "sparse" {
			t.Fatalf("%s: dispatch = %+v, want rule sparse", c.name, d)
		}
		if res.Trace.Frontier != nil {
			t.Errorf("%s: auto solve recorded frontier passes", c.name)
		}
		s.Close()
		fr, err := ConnectedComponents(c.g, &Options{Algorithm: Frontier})
		if err != nil {
			t.Fatal(err)
		}
		if fr.Algorithm != Frontier || !slices.Equal(fr.Labels, res.Labels) {
			t.Errorf("%s: frontier (%q) labels differ from auto's", c.name, fr.Algorithm)
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

// incCheck asserts the session's partition and maintained count against
// the from-scratch oracle.
func incCheck(t *testing.T, stage string, s *Solver, oracle *baseline.IncOracle) {
	t.Helper()
	res, err := s.Components()
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.Labels()
	if !graph.SamePartition(want, res.Labels) {
		t.Fatalf("%s: partition differs from oracle", stage)
	}
	if wantN := graph.NumLabels(want); res.NumComponents != wantN {
		t.Fatalf("%s: count = %d, want %d", stage, res.NumComponents, wantN)
	}
}

// bridgeFallback attaches two copies of half joined by one bridge between
// id-adjacent vertices (the last of the first copy, the first of the
// second), then deletes the bridge.  Each side of the cut holds half the
// edges, so the two-sided replacement search must scan about m adjacency
// entries to prove the split — past the budget — and the deletion falls
// back to the scoped repair over the whole former component.  The test
// fails unless the fallback fires, the partition matches the oracle, and
// the repair's decision is the want/rule row of Auto's table and equals,
// field for field (kernel, rule, region size and average degree), the
// decision a fresh Solve(Auto) records for the same region graph.  Returns the session (open) and the oracle
// after the delete.
func bridgeFallback(t *testing.T, half *Graph, want Algorithm, rule string) (*Solver, *baseline.IncOracle) {
	t.Helper()
	base := gen.Union(half, half)
	bridge := Edge{U: int32(half.N - 1), V: int32(half.N)}
	base.Edges = append(base.Edges, bridge)
	s, err := NewSolver(&Options{Backend: BackendConcurrent, Procs: 4, Seed: 2, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	oracle := baseline.NewIncOracle(base)
	if err := s.Attach(base.Clone()); err != nil {
		t.Fatal(err)
	}
	incCheck(t, "attach", s, oracle)
	rm := []Edge{bridge}
	if err := s.RemoveEdges(rm); err != nil {
		t.Fatal(err)
	}
	if err := oracle.RemoveEdges(rm); err != nil {
		t.Fatal(err)
	}
	incCheck(t, "scoped repair", s, oracle)
	tr := s.LastTrace()
	if tr.Incremental.BudgetFallbacks < 1 {
		t.Fatalf("bridge delete must blow the replacement budget (trace %+v)", tr.Incremental)
	}
	d := tr.Dispatch
	if d == nil || d.Chosen != want || d.Rule != rule {
		t.Fatalf("repair dispatch = %+v, want %s under rule %q", d, want, rule)
	}

	// The region the repair re-solved: the bridge's former component, in
	// ascending vertex order, over the live edges after the delete.
	before := baseline.BFSLabels(base)
	vmap := make([]int32, base.N)
	k := int32(0)
	for v, l := range before {
		if l == before[bridge.U] {
			k++
			vmap[v] = k
		}
	}
	region := graph.InducedInto(s.Live(), vmap, int(k), nil)
	fresh, err := ConnectedComponents(region, &Options{Algorithm: Auto, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if *d != *fresh.Trace.Dispatch {
		t.Fatalf("repair dispatch = %+v, but Solve(Auto) of the region records %+v", d, fresh.Trace.Dispatch)
	}
	return s, oracle
}

// TestScopedRepairDispatchRows reaches the two repair rows the sampling
// test does not: a region under the tiny cutoff (two cycle halves) is
// labeled by the sequential union-find, and a sparse one (two GNM halves
// of average degree 8) by cas.  bridgeFallback checks the partition and
// pins each decision to Solve(Auto)'s on the same region.
func TestScopedRepairDispatchRows(t *testing.T) {
	for _, c := range []struct {
		half *Graph
		want Algorithm
		rule string
	}{
		{gen.Cycle(1000), UnionFind, "tiny"},
		{gen.GNM(1<<11, 1<<13, 9), CASUnite, "sparse"},
	} {
		s, _ := bridgeFallback(t, c.half, c.want, c.rule)
		s.Close()
	}
}

// TestFrontierIncrementalPaths drives a mesh-shaped dirty region through a
// real budget fallback: two id-local grid halves joined by one id-adjacent
// bridge, whose deletion blows the replacement budget.  The repair labels
// the region with cas, as Solve(Auto) would — no frontier passes in its
// trace — and the partition and count must match the oracle.  A traced
// AddEdges after it records no frontier passes either: inserts run the
// union-find alone.
func TestFrontierIncrementalPaths(t *testing.T) {
	half := gen.Grid(64, 128) // m = 2·16192+1 ≥ 2^14 in total, avg degree ≈ 4
	s, oracle := bridgeFallback(t, half, CASUnite, "sparse")
	defer s.Close()
	if tr := s.LastTrace(); tr.Frontier != nil {
		t.Fatalf("cas scoped repair recorded frontier passes %+v", tr.Frontier)
	}

	add := []Edge{{U: 0, V: 1}, {U: 17, V: 4000}, {U: 17, V: 4000}}
	if err := s.AddEdges(add); err != nil {
		t.Fatal(err)
	}
	if err := oracle.AddEdges(add); err != nil {
		t.Fatal(err)
	}
	incCheck(t, "insert after mesh repair", s, oracle)
	if tr := s.LastTrace(); tr == nil || tr.Op != "add-edges" || tr.Frontier != nil {
		t.Fatalf("add-edges trace = %+v, want no frontier passes", tr)
	}
}
