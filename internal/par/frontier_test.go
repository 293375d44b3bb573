package par

import (
	"math/bits"
	"testing"

	"parcc/internal/graph"
	"parcc/internal/graph/gen"
)

// refMinima computes the per-component minimum label by sequential DSU —
// the ground truth every frontier kernel must converge to.
func refMinima(g *graph.Graph, init []int32) []int32 {
	p := make([]int32, g.N)
	for v := range p {
		p[v] = int32(v)
	}
	var find func(v int32) int32
	find = func(v int32) int32 {
		for p[v] != v {
			p[v] = p[p[v]]
			v = p[v]
		}
		return v
	}
	for _, e := range g.Edges {
		ru, rv := find(e.U), find(e.V)
		if ru != rv {
			p[ru] = rv
		}
	}
	min := make([]int32, g.N)
	for v := range min {
		min[v] = -1
	}
	for v := 0; v < g.N; v++ {
		r := find(int32(v))
		if min[r] == -1 || init[v] < min[r] {
			min[r] = init[v]
		}
	}
	out := make([]int32, g.N)
	for v := 0; v < g.N; v++ {
		out[v] = min[find(int32(v))]
	}
	return out
}

func identity(n int) []int32 {
	l := make([]int32, n)
	for v := range l {
		l[v] = int32(v)
	}
	return l
}

// bitRevPath is a path whose vertex numbering is the bit-reversal of the
// path position, decoupling scan order from path order: the in-order
// flood cannot carry the minimum along it and leaves about a quarter of
// the vertices in the residual — the shape that leans hardest on the hook
// pass (and that a label-round loop crawls through one hop per round).
func bitRevPath(logN int) *graph.Graph {
	n := 1 << logN
	g := graph.New(n)
	rev := func(k int) int { return int(bits.Reverse(uint(k)) >> (bits.UintSize - logN)) }
	for k := 0; k+1 < n; k++ {
		g.AddEdge(rev(k), rev(k+1))
	}
	return g
}

// TestFrontierPropagateComponents pins FrontierPropagate's fixpoint to the
// per-component minima across graph shapes and proc counts, from a full
// cold-solve seed, and its cost to the two-pass bound on every shape: at
// most two passes and 4m adjacency inspections (the 2m flood plus a hook
// pass over at most every vertex), whatever the diameter.
func TestFrontierPropagateComponents(t *testing.T) {
	shapes := []struct {
		name string
		g    *graph.Graph
	}{
		{"empty", graph.New(257)},
		{"path", gen.Path(1 << 10)},
		{"path-64k", gen.Path(1 << 16)},
		{"cycle", gen.Cycle(1 << 10)},
		{"two-cycles", gen.TwoCycles(1 << 10)},
		{"grid", gen.Grid(48, 48)},
		{"star", gen.Star(1 << 10)},
		{"binary-tree", gen.BinaryTree(1 << 10)},
		{"gnm", gen.GNM(1<<10, 1<<12, 7)},
		{"cliques", gen.RingOfCliques(16, 24, 2, 7)},
		{"bitrev-path", bitRevPath(10)},
	}
	for _, procs := range []int{1, 4} {
		rt := New(Procs(procs), Seed(1))
		for _, s := range shapes {
			csr := graph.BuildCSR(s.g)
			labels := identity(s.g.N)
			want := refMinima(s.g, labels)
			cur := NewFrontier(nil, s.g.N)
			next := NewFrontier(nil, s.g.N)
			cur.SeedAll()
			var occ []int64
			st := FrontierPropagate(rt, labels, csr, cur, next, func(o int64) { occ = append(occ, o) })
			for v := range labels {
				if labels[v] != want[v] {
					t.Fatalf("procs=%d %s: label[%d]=%d, want %d", procs, s.name, v, labels[v], want[v])
				}
			}
			if cur.Count() != 0 || next.Count() != 0 {
				t.Fatalf("procs=%d %s: frontiers not left empty (%d, %d)", procs, s.name, cur.Count(), next.Count())
			}
			if s.g.N > 0 && len(s.g.Edges) > 0 && st.Rounds == 0 {
				t.Fatalf("procs=%d %s: no rounds recorded", procs, s.name)
			}
			if m := int64(len(s.g.Edges)); st.Rounds > 2 || st.Inspected > 4*m {
				t.Fatalf("procs=%d %s: %d rounds, %d inspected; want ≤ 2 rounds and ≤ 4m = %d",
					procs, s.name, st.Rounds, st.Inspected, 4*m)
			}
			// The trace hook sees every pass: the full seed first, then a
			// non-empty residual.
			if len(occ) != st.Rounds || occ[0] != int64(s.g.N) || (len(occ) == 2 && occ[1] < 1) {
				t.Fatalf("procs=%d %s: onRound saw %v over %d rounds, want [n, residual ≥ 1]",
					procs, s.name, occ, st.Rounds)
			}
		}
		rt.Close()
	}
}

// TestFrontierPartialSeedRepair pins the scoped-repair contract: labels
// already settled except inside a damaged region, the region's vertices
// seeded sparse, and propagation restoring the exact global fixpoint while
// inspecting far fewer adjacency entries than a cold solve.
func TestFrontierPartialSeedRepair(t *testing.T) {
	g := gen.Path(1 << 12)
	csr := graph.BuildCSR(g)
	rt := New(Procs(1), Seed(1))
	defer rt.Close()

	labels := identity(g.N)
	want := refMinima(g, labels)
	cur := NewFrontier(nil, g.N)
	next := NewFrontier(nil, g.N)
	cur.SeedAll()
	cold := FrontierPropagate(rt, labels, csr, cur, next, nil)

	// Damage a region: reset its labels to identity and seed exactly the
	// dirty vertices (every unsettled edge is incident to the region).
	lo, hi := 1024, 1536
	cur.BeginCollect(true)
	for v := lo; v < hi; v++ {
		labels[v] = int32(v)
		cur.Add(int32(v))
	}
	warm := FrontierPropagate(rt, labels, csr, cur, next, nil)
	for v := range labels {
		if labels[v] != want[v] {
			t.Fatalf("after repair label[%d]=%d, want %d", v, labels[v], want[v])
		}
	}
	if warm.Inspected >= cold.Inspected/2 {
		t.Fatalf("scoped repair inspected %d entries, cold solve %d — repair should be much cheaper", warm.Inspected, cold.Inspected)
	}
}

// TestFrontierUniteMatchesSkipUnite pins FrontierUnite as the same finish
// pass as SkipUnite: a full frontier reproduces SkipUnite's partition in
// both majority and filtered modes, and a partial seed over a damaged
// forest restores the full-pass partition.
func TestFrontierUniteMatchesSkipUnite(t *testing.T) {
	g := gen.GNM(1<<12, 1<<14, 3)
	csr := graph.BuildCSR(g)
	want := refMinima(g, identity(g.N))
	for _, procs := range []int{1, 4} {
		rt := New(Procs(procs), Seed(1))
		for _, maj := range []int32{-1, 0} {
			pSkip := identity(g.N)
			SkipUnite(rt, pSkip, csr, maj)
			Compress(rt, pSkip)

			pFr := identity(g.N)
			f := NewFrontier(nil, g.N)
			f.SeedAll()
			FrontierUnite(rt, pFr, csr, f, maj)
			Compress(rt, pFr)
			if f.Count() != 0 {
				t.Fatalf("procs=%d maj=%d: frontier not consumed", procs, maj)
			}
			for v := range pFr {
				if pFr[v] != pSkip[v] || pFr[v] != want[v] {
					t.Fatalf("procs=%d maj=%d: root[%d] frontier=%d skip=%d want=%d",
						procs, maj, v, pFr[v], pSkip[v], want[v])
				}
			}
		}
		// Partial seed: damage a vertex range of the settled forest, seed
		// it, and finish with the skip-nothing sentinel maj = n.
		p := identity(g.N)
		SkipUnite(rt, p, csr, -1)
		Compress(rt, p)
		f := NewFrontier(nil, g.N)
		f.BeginCollect(true)
		for v := 100; v < 612; v++ {
			p[v] = int32(v)
			f.Add(int32(v))
		}
		FrontierUnite(rt, p, csr, f, int32(g.N))
		Compress(rt, p)
		for v := range p {
			if p[v] != want[v] {
				t.Fatalf("procs=%d partial: root[%d]=%d, want %d", procs, v, p[v], want[v])
			}
		}
		rt.Close()
	}
}

// TestFrontierSetOps pins the Frontier container itself: dedup, sparse
// collection, Len/At, Clear in every representation, and Resize reuse.
func TestFrontierSetOps(t *testing.T) {
	a := NewArena()
	f := NewFrontier(a, 300)
	f.BeginCollect(true)
	for _, v := range []int32{7, 7, 64, 7, 299, 64} {
		f.Add(v)
	}
	if f.Count() != 3 || f.Len() != 3 || !f.Sparse() {
		t.Fatalf("sparse collect: count=%d len=%d sparse=%v", f.Count(), f.Len(), f.Sparse())
	}
	got := map[int32]bool{}
	for i := 0; i < f.Len(); i++ {
		got[f.At(i)] = true
	}
	if !got[7] || !got[64] || !got[299] {
		t.Fatalf("sparse list missing vertices: %v", got)
	}
	f.Clear()
	if f.Count() != 0 || f.Len() != 0 {
		t.Fatalf("clear left count=%d len=%d", f.Count(), f.Len())
	}

	f.BeginCollect(false)
	f.Add(13)
	f.Add(13)
	if f.Count() != 1 || f.Len() != 0 || f.Sparse() {
		t.Fatalf("dense collect: count=%d len=%d sparse=%v", f.Count(), f.Len(), f.Sparse())
	}
	f.Clear()

	f.SeedAll()
	if f.Count() != 300 || f.Len() != 300 || f.At(42) != 42 {
		t.Fatalf("full: count=%d len=%d at(42)=%d", f.Count(), f.Len(), f.At(42))
	}
	f.Clear()

	if f.Cap() < 300 {
		t.Fatalf("cap %d < 300", f.Cap())
	}
	f.Resize(128)
	f.SeedAll()
	if f.Count() != 128 || f.Len() != 128 {
		t.Fatalf("after resize: count=%d len=%d", f.Count(), f.Len())
	}
	f.Clear()
	f.Free(a)
}

// TestFrontierAllocs pins the zero-alloc contract of the warm frontier
// engine: with arena-backed frontiers and a nil onRound (tracing off), a
// full propagate run costs only its fixed set of hoisted closures —
// nothing proportional to n, m, or rounds.
func TestFrontierAllocs(t *testing.T) {
	rt := New(Procs(1), Seed(1))
	defer rt.Close()
	a := NewArena()
	g := bitRevPath(11)
	csr := graph.BuildCSR(g)
	labels := make([]int32, g.N)
	cur := NewFrontier(a, g.N)
	next := NewFrontier(a, g.N)
	if allocs := testing.AllocsPerRun(10, func() {
		for v := range labels {
			labels[v] = int32(v)
		}
		cur.SeedAll()
		FrontierPropagate(rt, labels, csr, cur, next, nil)
	}); allocs > 9 {
		t.Errorf("warm FrontierPropagate allocates %v per run, want ≤ 9 (the fixed hoisted-closure set, nothing per round)", allocs)
	}
	f := NewFrontier(a, g.N)
	p := make([]int32, g.N)
	if allocs := testing.AllocsPerRun(10, func() {
		for v := range p {
			p[v] = int32(v)
		}
		f.SeedAll()
		FrontierUnite(rt, p, csr, f, -1)
	}); allocs > 5 {
		t.Errorf("warm FrontierUnite allocates %v per run, want ≤ 5 (one mode closure and its captures)", allocs)
	}
}
