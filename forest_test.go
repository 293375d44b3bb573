package parcc

import (
	"errors"
	"slices"
	"testing"

	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
)

// This file is the adversarial test battery of the spanning-forest
// deletion path: delete streams engineered to hit each verdict of the
// replacement search (non-forest O(1), replacement found, true split,
// budget fallback), checked against the from-scratch oracle and the
// session's own trace counters.  The randomized equivalence and
// forest-invariant coverage lives in TestIncrementalRandomizedVsScratch;
// here the streams are deterministic worst cases.

// forestSession attaches g on the given backend with tracing on and
// returns the solver plus an oracle over the same graph.
func forestSession(t *testing.T, g *graph.Graph, be Backend) (*Solver, *baseline.IncOracle) {
	t.Helper()
	s, err := NewSolver(&Options{Backend: be, Procs: 3, Seed: 7, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Attach(g.Clone()); err != nil {
		t.Fatal(err)
	}
	return s, baseline.NewIncOracle(g)
}

// forestCheckAgainstOracle asserts the live partition matches the oracle
// and the maintained forest is a valid certificate of the live graph.
func forestCheckAgainstOracle(t *testing.T, stage string, s *Solver, oracle *baseline.IncOracle) {
	t.Helper()
	res, err := s.Components()
	if err != nil {
		t.Fatalf("%s: Components: %v", stage, err)
	}
	want := oracle.Labels()
	if !graph.SamePartition(want, res.Labels) {
		t.Fatalf("%s: live partition differs from oracle", stage)
	}
	if wantN := graph.NumLabels(want); res.NumComponents != wantN {
		t.Fatalf("%s: count %d, want %d", stage, res.NumComponents, wantN)
	}
	if err := s.inc.forest.Check(s.inc.g, res.Labels); err != nil {
		t.Fatalf("%s: forest invariant: %v", stage, err)
	}
}

// TestForestNonForestDeleteIsO1 is the acceptance counter test: deleting
// a non-forest edge (a cycle chord, a parallel copy) must resolve through
// the O(1) path — no replacement search, no dirty component, no scoped
// repair — observable in the trace counters.
func TestForestNonForestDeleteIsO1(t *testing.T) {
	// A triangle with a parallel copy of one side: {0,1},{1,2},{2,0},{1,0}.
	g := graph.FromPairs(3, [][2]int{{0, 1}, {1, 2}, {2, 0}, {1, 0}})
	for _, be := range []Backend{BackendSequential, BackendConcurrent} {
		s, oracle := forestSession(t, g, be)
		// Two copies of {0,1} live and at most one is a forest edge, so
		// PickRemovable takes a non-forest copy; {2,0} closes the triangle
		// cycle, so after the first removal one of the remaining three
		// edges is still non-forest.
		for step, rm := range [][]Edge{{{U: 0, V: 1}}, {{U: 2, V: 0}}} {
			if err := s.RemoveEdges(rm); err != nil {
				t.Fatalf("%s step %d: %v", be, step, err)
			}
			if err := oracle.RemoveEdges(rm); err != nil {
				t.Fatal(err)
			}
			tr := s.LastTrace()
			if tr == nil || tr.Incremental == nil {
				t.Fatalf("%s step %d: missing incremental trace", be, step)
			}
			inc := tr.Incremental
			if inc.NonForestDeletes != 1 || inc.ForestDeletes != 0 {
				t.Errorf("%s step %d: deletes forest=%d non-forest=%d, want 0/1",
					be, step, inc.ForestDeletes, inc.NonForestDeletes)
			}
			if inc.ReplaceScans != 0 {
				t.Errorf("%s step %d: non-forest delete scanned %d adjacency entries, want 0",
					be, step, inc.ReplaceScans)
			}
			if inc.DirtyComponents != 0 || inc.ScopedVertices != 0 {
				t.Errorf("%s step %d: non-forest delete triggered a repair (dirty=%d scoped=%dv)",
					be, step, inc.DirtyComponents, inc.ScopedVertices)
			}
			if d := tr.Phase("scoped"); d != 0 {
				t.Errorf("%s step %d: non-forest delete recorded a scoped phase (%v)", be, step, d)
			}
			forestCheckAgainstOracle(t, "non-forest delete", s, oracle)
		}
		s.Close()
	}
}

// TestForestBridgeOnlyDeletes drives the worst case for the forest flags:
// families where every edge is a bridge (path, binary tree), so every
// delete hits a forest edge and every verdict is a true split.  The small
// sizes keep every search far under budget — the scoped fallback must
// never fire.
func TestForestBridgeOnlyDeletes(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path", gen.Path(256)},
		{"tree", gen.BinaryTree(255)},
	} {
		for _, be := range []Backend{BackendSequential, BackendConcurrent} {
			s, oracle := forestSession(t, tc.g, be)
			var splits, fallbacks int64
			// Delete every edge, a few per batch, in a scattered order.
			live := append([]Edge(nil), tc.g.Edges...)
			for len(live) > 0 {
				k := 3
				if k > len(live) {
					k = len(live)
				}
				batch := make([]Edge, 0, k)
				for i := 0; i < k; i++ {
					// Stride through the remaining edges for scattered cuts.
					j := (i * 97) % len(live)
					batch = append(batch, live[j])
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				if err := s.RemoveEdges(batch); err != nil {
					t.Fatalf("%s/%s: RemoveEdges: %v", tc.name, be, err)
				}
				if err := oracle.RemoveEdges(batch); err != nil {
					t.Fatal(err)
				}
				tr := s.LastTrace().Incremental
				if tr.NonForestDeletes != 0 {
					t.Fatalf("%s/%s: bridge-only family recorded %d non-forest deletes",
						tc.name, be, tr.NonForestDeletes)
				}
				splits += tr.Splits
				fallbacks += tr.BudgetFallbacks
				forestCheckAgainstOracle(t, tc.name+" delete batch", s, oracle)
			}
			if fallbacks != 0 {
				t.Errorf("%s/%s: %d budget fallbacks on a tiny bridge-only family", tc.name, be, fallbacks)
			}
			// Every delete of a bridge in a forest-only graph is a split:
			// the end state is n isolated vertices.
			if want := int64(tc.g.M()); splits != want {
				t.Errorf("%s/%s: %d splits across the full delete stream, want %d", tc.name, be, splits, want)
			}
			res, err := s.Components()
			if err != nil {
				t.Fatal(err)
			}
			if res.NumComponents != tc.g.N {
				t.Errorf("%s/%s: fully deleted graph has %d components, want %d",
					tc.name, be, res.NumComponents, tc.g.N)
			}
			s.Close()
		}
	}
}

// TestForestCliqueBridgeEarlyStop: a clique with one pendant bridge.
// Deleting clique edges must never split or scan past the first crossing
// edge, and deleting the bridge must split after scanning work bounded by
// the interleaving quantum — the smaller side (the pendant) exhausts
// immediately, so the search never pays for the clique's density.
func TestForestCliqueBridgeEarlyStop(t *testing.T) {
	const k = 24 // clique vertices 0..23, pendant 24, m = 277
	pairs := make([][2]int, 0, k*(k-1)/2+1)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	pairs = append(pairs, [2]int{k - 1, k})
	g := graph.FromPairs(k+1, pairs)
	for _, be := range []Backend{BackendSequential, BackendConcurrent} {
		s, oracle := forestSession(t, g, be)
		// Thin the clique: delete a scattered half of its edges.  Each hit
		// is either non-forest (free) or a forest edge whose replacement is
		// found among the clique's dense chords.
		var batch []Edge
		for i, p := range pairs[:len(pairs)-1] {
			if i%2 == 0 {
				batch = append(batch, Edge{U: int32(p[0]), V: int32(p[1])})
			}
		}
		if err := s.RemoveEdges(batch); err != nil {
			t.Fatalf("%s: thinning: %v", be, err)
		}
		if err := oracle.RemoveEdges(batch); err != nil {
			t.Fatal(err)
		}
		tr := s.LastTrace().Incremental
		if tr.Splits != 0 || tr.DirtyComponents != 0 || tr.BudgetFallbacks != 0 {
			t.Errorf("%s: thinning a clique split/dirtied (splits=%d dirty=%d fallbacks=%d)",
				be, tr.Splits, tr.DirtyComponents, tr.BudgetFallbacks)
		}
		forestCheckAgainstOracle(t, "clique thinning", s, oracle)

		// The bridge: a real split whose smaller side is one vertex.  The
		// pendant side exhausts after scanning its (now empty) adjacency,
		// so the whole search costs at most one quantum of the clique side
		// plus the pendant's empty crossing scan.
		bridge := []Edge{{U: int32(k - 1), V: int32(k)}}
		if err := s.RemoveEdges(bridge); err != nil {
			t.Fatalf("%s: bridge: %v", be, err)
		}
		if err := oracle.RemoveEdges(bridge); err != nil {
			t.Fatal(err)
		}
		tr = s.LastTrace().Incremental
		if tr.Splits != 1 {
			t.Errorf("%s: bridge delete recorded %d splits, want 1", be, tr.Splits)
		}
		if tr.ReplaceScans > 64 {
			t.Errorf("%s: bridge split scanned %d entries; the smaller side must bound the search (want ≤ 64)",
				be, tr.ReplaceScans)
		}
		forestCheckAgainstOracle(t, "bridge split", s, oracle)
		s.Close()
	}
}

// TestForestChurnReturnsToOriginal: a delete-then-reinsert loop over a
// ring of cliques must return to the exact original partition after every
// round, with the forest invariant holding at both half-steps.
func TestForestChurnReturnsToOriginal(t *testing.T) {
	g := gen.RingOfCliques(8, 12, 1, 5)
	for _, be := range []Backend{BackendSequential, BackendConcurrent} {
		s, oracle := forestSession(t, g, be)
		orig, err := s.Components()
		if err != nil {
			t.Fatal(err)
		}
		origLabels := append([]int32(nil), orig.Labels...)
		for round := 0; round < 8; round++ {
			// A churn batch mixing bridges (ring edges between cliques) and
			// intra-clique chords, shifted each round.
			var batch []Edge
			for i := round; i < g.M(); i += 13 {
				batch = append(batch, g.Edges[i])
			}
			if err := s.RemoveEdges(batch); err != nil {
				t.Fatalf("%s round %d: remove: %v", be, round, err)
			}
			if err := oracle.RemoveEdges(batch); err != nil {
				t.Fatal(err)
			}
			forestCheckAgainstOracle(t, "churn remove", s, oracle)
			if err := s.AddEdges(batch); err != nil {
				t.Fatalf("%s round %d: reinsert: %v", be, round, err)
			}
			if err := oracle.AddEdges(batch); err != nil {
				t.Fatal(err)
			}
			forestCheckAgainstOracle(t, "churn reinsert", s, oracle)
			res, err := s.Components()
			if err != nil {
				t.Fatal(err)
			}
			if !graph.SamePartition(origLabels, res.Labels) {
				t.Fatalf("%s round %d: churn did not return to the original partition", be, round)
			}
		}
		s.Close()
	}
}

// TestForestBudgetFallback forces the replacement search over budget — a
// long cycle whose only replacement edge is maximally far from the cut —
// and asserts the scoped fallback repairs the labels, the region's forest
// flags, and the snapshot page mirror: a snapshot published before the
// delete builds the mirror, and the one published after it must be
// byte-identical to an eager flatten.  The second batch entry lands in
// the same component and must take the dirty short-circuit (no second
// search).
func TestForestBudgetFallback(t *testing.T) {
	defer func(old int64) { replaceBudgetFloor = old }(replaceBudgetFloor)
	replaceBudgetFloor = 16 // cycle m/4 stays the binding budget: 128 « the ~1000-entry search

	g := gen.Cycle(512)
	// Sequential attach unites the edge list in order, so the cycle-closing
	// edge {511,0} is the one non-forest edge; cutting {256,257} puts the
	// only replacement half a cycle from both BFS seeds.
	s, oracle := forestSession(t, g, BackendSequential)
	mirrorCheck(t, "before fallback", s)
	batch := []Edge{{U: 256, V: 257}, {U: 100, V: 101}}
	if err := s.RemoveEdges(batch); err != nil {
		t.Fatal(err)
	}
	if err := oracle.RemoveEdges(batch); err != nil {
		t.Fatal(err)
	}
	// The repair relabels the region in place; no solve kernel runs.
	if d := s.LastTrace().Dispatch; d != nil {
		t.Errorf("repair recorded a kernel dispatch %+v, want none", d)
	}
	tr := s.LastTrace().Incremental
	if tr.BudgetFallbacks != 1 {
		t.Errorf("budget fallbacks = %d, want 1 (first delete blows the 128-entry budget)", tr.BudgetFallbacks)
	}
	if tr.ForestDeletes != 2 {
		t.Errorf("forest deletes = %d, want 2 (second entry takes the dirty short-circuit)", tr.ForestDeletes)
	}
	if tr.DirtyComponents < 1 || tr.ScopedVertices == 0 {
		t.Errorf("fallback must dirty the component and repair it scoped (dirty=%d scoped=%dv)",
			tr.DirtyComponents, tr.ScopedVertices)
	}
	forestCheckAgainstOracle(t, "budget fallback", s, oracle)
	mirrorCheck(t, "after fallback", s)
	s.Close()
}

// mirrorCheck publishes a snapshot and asserts its labels and count are
// byte-identical to an eager flatten of the live partition.
func mirrorCheck(t *testing.T, stage string, s *Solver) {
	t.Helper()
	sn, err := s.PublishSnapshot()
	if err != nil {
		t.Fatalf("%s: publish: %v", stage, err)
	}
	res, err := s.Components()
	if err != nil {
		t.Fatalf("%s: flatten: %v", stage, err)
	}
	if !slices.Equal(sn.Labels(), res.Labels) || sn.NumComponents() != res.NumComponents {
		t.Fatalf("%s: snapshot labels/count diverge from eager flatten", stage)
	}
}

// bridgeGraph returns two copies of half joined by one bridge between
// id-adjacent vertices (the last of the first copy, the first of the
// second), and the bridge.  Each side of the cut holds half the edges, so
// the two-sided replacement search must scan about m adjacency entries
// to prove the split — past the budget — and deleting the bridge falls
// back to the scoped repair over the whole former component.
func bridgeGraph(half *Graph) (*Graph, Edge) {
	g := gen.Union(half, half)
	bridge := Edge{U: int32(half.N - 1), V: int32(half.N)}
	g.Edges = append(g.Edges, bridge)
	return g, bridge
}

// TestForestSplitSeedChain pins the live forest's flatten after a split
// leaves a leaf pointing up: removing {1,7} from 0–1–7–4 relabels the
// split-off side to its seed 7, so p[4] = 7 > 4.  Two later batches hook
// 7 under 2 and 2 under 0, which leaves the chain 4 → 7 → 2 → 0; a
// one-pass ascending flatten would label 4 with 2 (7 is not flat yet when
// 4 is read), so both Components and a published snapshot must see
// {0,1,2,4,7} as one component of 4, on either backend.
func TestForestSplitSeedChain(t *testing.T) {
	g := graph.FromPairs(8, [][2]int{{0, 1}, {1, 7}, {7, 4}})
	for _, be := range []Backend{BackendSequential, BackendConcurrent} {
		s, oracle := forestSession(t, g, be)
		if _, err := s.PublishSnapshot(); err != nil {
			t.Fatal(err)
		}
		if err := s.RemoveEdges([]Edge{{U: 1, V: 7}}); err != nil {
			t.Fatal(err)
		}
		if p := s.inc.parent; p[7] != 7 || p[4] != 7 {
			t.Fatalf("%s: split relabel p[7], p[4] = %d, %d, want the seed 7 for both", be, p[7], p[4])
		}
		for _, b := range [][]Edge{{{U: 7, V: 2}}, {{U: 2, V: 1}}} {
			if err := s.AddEdges(b); err != nil {
				t.Fatal(err)
			}
			if err := oracle.AddEdges(b); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Components()
		if err != nil {
			t.Fatal(err)
		}
		sn, err := s.PublishSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		for name, l := range map[string][]int32{"Components": res.Labels, "snapshot": sn.Labels()} {
			for _, v := range []int32{1, 2, 4, 7} {
				if l[v] != l[0] {
					t.Fatalf("%s %s: label[%d] = %d, label[0] = %d: want one component {0,1,2,4,7}", be, name, v, l[v], l[0])
				}
			}
			if c := graph.NumLabels(l); c != 4 {
				t.Fatalf("%s %s: %d components, want 4", be, name, c)
			}
		}
		if res.NumComponents != 4 || sn.NumComponents() != 4 {
			t.Fatalf("%s: NumComponents = %d (Components), %d (snapshot), want 4", be, res.NumComponents, sn.NumComponents())
		}
		forestCheckAgainstOracle(t, string(be), s, oracle)
		s.Close()
	}
}

// TestScopedRepairRegions deletes the bridge of bridgeGraph over four
// region shapes — cycle, sparse and dense GNM, and grid halves — on a
// concurrent session with a published snapshot, and asserts the budget
// fallback fires once and relabels the region in place with no kernel
// dispatch, sized exactly as the bridge's former component (vertices, and
// live edges after the delete); that partition, count and forest
// certificate match the oracle; that the next publish's snapshot equals
// an eager flatten; and that an insert batch on top stays exact.
func TestScopedRepairRegions(t *testing.T) {
	for _, c := range []struct {
		name string
		half *Graph
	}{
		{"cycle", gen.Cycle(1000)},
		{"gnm-sparse", gen.GNM(1<<11, 1<<13, 9)}, // avg degree 8
		{"gnm-dense", gen.GNM(1<<11, 1<<15, 9)},  // avg degree 32
		{"grid", gen.Grid(64, 128)},
	} {
		g, bridge := bridgeGraph(c.half)
		s, err := NewSolver(&Options{Backend: BackendConcurrent, Procs: 4, Seed: 2, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		oracle := baseline.NewIncOracle(g)
		if err := s.Attach(g.Clone()); err != nil {
			t.Fatal(err)
		}
		mirrorCheck(t, c.name+" attach", s)
		rm := []Edge{bridge}
		if err := s.RemoveEdges(rm); err != nil {
			t.Fatal(err)
		}
		if err := oracle.RemoveEdges(rm); err != nil {
			t.Fatal(err)
		}
		tr := s.LastTrace()
		if tr.Incremental.BudgetFallbacks != 1 {
			t.Fatalf("%s: bridge delete must blow the replacement budget once (trace %+v)", c.name, tr.Incremental)
		}
		if tr.Dispatch != nil {
			t.Errorf("%s: repair recorded a kernel dispatch %+v, want none", c.name, tr.Dispatch)
		}
		before := baseline.BFSLabels(g)
		region := before[bridge.U]
		var nv, ne int64
		for _, l := range before {
			if l == region {
				nv++
			}
		}
		for _, ed := range s.Live().Edges {
			if before[ed.U] == region {
				ne++
			}
		}
		if tr.Incremental.ScopedVertices != nv || tr.Incremental.ScopedEdges != ne {
			t.Errorf("%s: repair scoped %dv/%de, want the former component's %dv/%de",
				c.name, tr.Incremental.ScopedVertices, tr.Incremental.ScopedEdges, nv, ne)
		}
		forestCheckAgainstOracle(t, c.name+" scoped repair", s, oracle)
		mirrorCheck(t, c.name+" scoped repair", s)

		add := []Edge{{U: 0, V: 1}, {U: 17, V: int32(g.N - 5)}, {U: 17, V: int32(g.N - 5)}}
		if err := s.AddEdges(add); err != nil {
			t.Fatal(err)
		}
		if err := oracle.AddEdges(add); err != nil {
			t.Fatal(err)
		}
		forestCheckAgainstOracle(t, c.name+" insert after repair", s, oracle)
		s.Close()
	}
}

// TestRemoveEdgesMultisetRegression pins the PR 3 multiset contract on
// the forest path's O(|batch|) validation: a batch referencing more
// occurrences than the live multiset holds — the same edge twice with one
// copy live, in same or mixed orientation — errors with the exact
// shortfall and mutates nothing; with enough copies live, the same batch
// removes one occurrence per entry.
func TestRemoveEdgesMultisetRegression(t *testing.T) {
	for _, be := range []Backend{BackendSequential, BackendConcurrent} {
		g := gen.Path(4) // one copy each of {0,1},{1,2},{2,3}
		s, oracle := forestSession(t, g, be)
		for _, batch := range [][]Edge{
			{{U: 1, V: 2}, {U: 1, V: 2}}, // same orientation twice
			{{U: 1, V: 2}, {U: 2, V: 1}}, // mixed orientation: same undirected edge
		} {
			err := s.RemoveEdges(batch)
			var miss *MissingEdgeError
			if !errors.As(err, &miss) {
				t.Fatalf("%s: double-remove of a single copy returned %v, want *MissingEdgeError", be, err)
			}
			if miss.Count != 1 {
				t.Errorf("%s: shortfall = %d, want 1 (two references, one copy)", be, miss.Count)
			}
			// No mutation: graph, partition, count, and forest unchanged.
			if got := s.Live().M(); got != 3 {
				t.Fatalf("%s: failed remove mutated the live graph (m = %d, want 3)", be, got)
			}
			forestCheckAgainstOracle(t, "failed remove", s, oracle)
		}
		// With a second (reversed) copy inserted, the mixed-orientation
		// batch is satisfiable and removes both copies.
		if err := s.AddEdges([]Edge{{U: 2, V: 1}}); err != nil {
			t.Fatal(err)
		}
		if err := oracle.AddEdges([]Edge{{U: 2, V: 1}}); err != nil {
			t.Fatal(err)
		}
		if err := s.RemoveEdges([]Edge{{U: 1, V: 2}, {U: 2, V: 1}}); err != nil {
			t.Fatalf("%s: removing two live copies: %v", be, err)
		}
		if err := oracle.RemoveEdges([]Edge{{U: 1, V: 2}, {U: 2, V: 1}}); err != nil {
			t.Fatal(err)
		}
		if got := s.Live().M(); got != 2 {
			t.Fatalf("%s: after removing both copies m = %d, want 2", be, got)
		}
		forestCheckAgainstOracle(t, "mixed-orientation remove", s, oracle)
		s.Close()
	}
}
