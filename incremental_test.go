package parcc

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
)

// TestAttachMatchesScratch: the partition right after Attach must equal a
// cold ConnectedComponents solve, with the exact component count.
func TestAttachMatchesScratch(t *testing.T) {
	g := solverTestGraph()
	want := baseline.BFSLabels(g)
	s, err := NewSolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Attach(g.Clone()); err != nil {
		t.Fatal(err)
	}
	res, err := s.Components()
	if err != nil {
		t.Fatal(err)
	}
	if wantN := graph.NumLabels(want); res.NumComponents != wantN {
		t.Fatalf("components = %d, want %d", res.NumComponents, wantN)
	}
	if !graph.SamePartition(want, res.Labels) {
		t.Fatal("attach partition differs from scratch solve")
	}
	if res.Algorithm != Incremental {
		t.Fatalf("Algorithm echo = %q, want %q", res.Algorithm, Incremental)
	}
}

// TestAddEdgesMerges: inserts must merge components and keep the count
// exact, without a re-solve.
func TestAddEdgesMerges(t *testing.T) {
	s, err := NewSolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Attach(NewGraph(6)); err != nil {
		t.Fatal(err)
	}
	check := func(want int) {
		t.Helper()
		res, err := s.Components()
		if err != nil {
			t.Fatal(err)
		}
		if res.NumComponents != want {
			t.Fatalf("components = %d, want %d", res.NumComponents, want)
		}
	}
	check(6)
	if err := s.AddEdges([]Edge{{U: 0, V: 1}, {U: 2, V: 3}}); err != nil {
		t.Fatal(err)
	}
	check(4)
	// Parallel edge and self-loop change nothing; a bridge merges.
	if err := s.AddEdges([]Edge{{U: 1, V: 0}, {U: 4, V: 4}, {U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	check(3)
}

// TestRemoveEdgesSplits: deleting a bridge must split a component;
// deleting one copy of a parallel edge must not.
func TestRemoveEdgesSplits(t *testing.T) {
	s, err := NewSolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := FromPairs(5, [][2]int{{0, 1}, {1, 2}, {2, 1}, {3, 4}})
	if err := s.Attach(g); err != nil {
		t.Fatal(err)
	}
	comps := func() int {
		t.Helper()
		res, err := s.Components()
		if err != nil {
			t.Fatal(err)
		}
		return res.NumComponents
	}
	if c := comps(); c != 2 {
		t.Fatalf("start: %d components, want 2", c)
	}
	// One copy of the parallel pair (1,2)/(2,1): still connected.
	if err := s.RemoveEdges([]Edge{{U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	if c := comps(); c != 2 {
		t.Fatalf("after parallel-copy removal: %d components, want 2", c)
	}
	// The remaining copy (matched in reversed orientation): splits.
	if err := s.RemoveEdges([]Edge{{U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	if c := comps(); c != 3 {
		t.Fatalf("after bridge removal: %d components, want 3", c)
	}
	if err := s.RemoveEdges([]Edge{{U: 3, V: 4}, {U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	if c := comps(); c != 5 {
		t.Fatalf("fully disconnected: %d components, want 5", c)
	}
	if s.Live().M() != 0 {
		t.Fatalf("live graph still has %d edges", s.Live().M())
	}
}

// TestAttachEdgeRangeError: Attach reports an out-of-range edge as the
// *EdgeRangeError AddEdges returns, carrying the edge and the bound, and
// binds nothing.
func TestAttachEdgeRangeError(t *testing.T) {
	s, err := NewSolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := NewGraph(4)
	g.Edges = []Edge{{U: 0, V: 1}, {U: 2, V: 4}}
	var re *EdgeRangeError
	if err := s.Attach(g); !errors.As(err, &re) || re.Edge != (Edge{U: 2, V: 4}) || re.N != 4 {
		t.Fatalf("Attach = %v, want *EdgeRangeError for (2,4) in [0,4)", err)
	}
	if s.Live() != nil {
		t.Fatal("a rejected Attach bound a live graph")
	}
}

// TestIncrementalErrors: the API must reject misuse without corrupting the
// live state.
func TestIncrementalErrors(t *testing.T) {
	s, err := NewSolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AddEdges([]Edge{{U: 0, V: 1}}); err == nil {
		t.Fatal("AddEdges before Attach must error")
	}
	if _, err := s.Components(); err == nil {
		t.Fatal("Components before Attach must error")
	}
	for _, n := range []int{-5, 1 << 31} {
		if err := s.Attach(NewGraph(n)); err == nil {
			t.Fatalf("Attach(NewGraph(%d)) must error", n)
		}
	}
	if err := s.Attach(gen.Path(4)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdges([]Edge{{U: 0, V: 9}}); err == nil {
		t.Fatal("out-of-range endpoint must error")
	}
	if err := s.RemoveEdges([]Edge{{U: 0, V: 3}}); err == nil {
		t.Fatal("removing a missing edge must error")
	}
	// The failed removal must not have mutated anything.
	res, err := s.Components()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumComponents != 1 || s.Live().M() != 3 {
		t.Fatalf("failed removal corrupted state: comps=%d m=%d", res.NumComponents, s.Live().M())
	}
	closed, err := NewSolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := closed.Attach(gen.Path(3)); err != nil {
		t.Fatal(err)
	}
	closed.Close()
	if err := closed.AddEdges([]Edge{{U: 0, V: 1}}); err == nil {
		t.Fatal("closed solver must refuse incremental updates")
	}
}

// TestIncrementalRandomizedVsScratch is the equivalence satellite: 1000
// random add/remove batches — 25 per generator family per backend, over
// all 20 families on both backends — each checked against a from-scratch
// solve of the mutated graph.  The referee is baseline.IncOracle (an
// independent union-find reimplementation of the multiset semantics), and
// the cold solve of the oracle's graph must match the live partition
// exactly (partition equality; component count is compared exactly).
// After every batch the session's maintained spanning forest must also be
// a valid certificate of the live graph — acyclic, spanning each
// component exactly, forest edges ⊆ live edges (DynForest.Check) —
// the property the whole deletion fast path rests on.
func TestIncrementalRandomizedVsScratch(t *testing.T) {
	const batchesPerCase = 25
	for name, g0 := range familyGraphs() {
		for _, be := range []Backend{BackendSequential, BackendConcurrent} {
			rng := rand.New(rand.NewSource(int64(len(name)) * 2654435761))
			s, err := NewSolver(&Options{Backend: be, Procs: 3, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Attach(g0.Clone()); err != nil {
				t.Fatal(err)
			}
			oracle := baseline.NewIncOracle(g0)
			res := &Result{}
			for b := 0; b < batchesPerCase; b++ {
				live := oracle.Graph()
				if rng.Intn(10) < 6 || live.M() == 0 {
					// Insert batch: random pairs, occasional loop/parallel.
					k := 1 + rng.Intn(8)
					batch := make([]Edge, k)
					for i := range batch {
						u := int32(rng.Intn(live.N))
						v := int32(rng.Intn(live.N))
						if rng.Intn(8) == 0 && live.M() > 0 {
							e := live.Edges[rng.Intn(live.M())]
							u, v = e.U, e.V // duplicate an existing edge
						}
						batch[i] = Edge{U: u, V: v}
					}
					if err := s.AddEdges(batch); err != nil {
						t.Fatalf("%s/%s batch %d: AddEdges: %v", name, be, b, err)
					}
					if err := oracle.AddEdges(batch); err != nil {
						t.Fatalf("%s/%s batch %d: oracle AddEdges: %v", name, be, b, err)
					}
				} else {
					// Remove batch: distinct random occurrences.
					k := 1 + rng.Intn(6)
					if k > live.M() {
						k = live.M()
					}
					idx := rng.Perm(live.M())[:k]
					batch := make([]Edge, 0, k)
					for _, i := range idx {
						batch = append(batch, live.Edges[i])
					}
					if err := s.RemoveEdges(batch); err != nil {
						t.Fatalf("%s/%s batch %d: RemoveEdges: %v", name, be, b, err)
					}
					if err := oracle.RemoveEdges(batch); err != nil {
						t.Fatalf("%s/%s batch %d: oracle RemoveEdges: %v", name, be, b, err)
					}
				}
				if err := s.ComponentsInto(res); err != nil {
					t.Fatalf("%s/%s batch %d: Components: %v", name, be, b, err)
				}
				want := oracle.Labels()
				if !graph.SamePartition(want, res.Labels) {
					t.Fatalf("%s/%s batch %d: live partition differs from scratch", name, be, b)
				}
				if wantN := graph.NumLabels(want); res.NumComponents != wantN {
					t.Fatalf("%s/%s batch %d: count %d, want %d", name, be, b, res.NumComponents, wantN)
				}
				if err := s.inc.forest.Check(s.inc.g, res.Labels); err != nil {
					t.Fatalf("%s/%s batch %d: forest invariant: %v", name, be, b, err)
				}
				// Snapshot equivalence: the COW-published labels must be
				// byte-identical to the eager flatten ComponentsInto just
				// computed from the same parent array — not merely the
				// same partition.
				sn, err := s.PublishSnapshot()
				if err != nil {
					t.Fatalf("%s/%s batch %d: publish: %v", name, be, b, err)
				}
				if !slices.Equal(sn.Labels(), res.Labels) {
					t.Fatalf("%s/%s batch %d: snapshot labels diverge from eager flatten", name, be, b)
				}
				if sn.NumComponents() != res.NumComponents {
					t.Fatalf("%s/%s batch %d: snapshot count %d, want %d", name, be, b, sn.NumComponents(), res.NumComponents)
				}
				counts := map[int32]int{}
				for _, l := range res.Labels {
					counts[l]++
				}
				for v := 0; v < sn.N(); v += 37 {
					if got, want := sn.ComponentSize(v), counts[res.Labels[v]]; got != want {
						t.Fatalf("%s/%s batch %d: ComponentSize(%d) = %d, want %d", name, be, b, v, got, want)
					}
				}
			}
			s.Close()
		}
	}
}

// TestIncrementalInterleavedWithSolve: a live session and plain Solve
// calls share the solver; the plan cache must follow the live graph
// through appends and removals (each forces a rebuild).
func TestIncrementalInterleavedWithSolve(t *testing.T) {
	s, err := NewSolver(&Options{Algorithm: Frontier})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Attach(gen.Grid(8, 9).Clone()); err != nil {
		t.Fatal(err)
	}
	g := s.Live()
	for step := 0; step < 4; step++ {
		res, err := s.Solve(g) // frontier reads the cached plan
		if err != nil {
			t.Fatal(err)
		}
		live, err := s.Components()
		if err != nil {
			t.Fatal(err)
		}
		if !graph.SamePartition(res.Labels, live.Labels) {
			t.Fatalf("step %d: Solve and Components disagree", step)
		}
		if step%2 == 0 {
			if err := s.AddEdges([]Edge{{U: int32(step), V: int32(70 - step)}}); err != nil {
				t.Fatal(err)
			}
		} else {
			// Remove the chord the previous step added.
			if err := s.RemoveEdges([]Edge{{U: int32(step - 1), V: int32(71 - step)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestTrustGraphSkipsFingerprint is the Options.TrustGraph satellite: by
// default the plan cache catches in-place mutation (the regression of the
// stale-CSR bug); with TrustGraph the O(m) fingerprint pass is skipped, so
// the same mutation is — by documented contract — not noticed, while
// appends still invalidate via the length check.
func TestTrustGraphSkipsFingerprint(t *testing.T) {
	mutate := func(trust bool) (stale bool) {
		g := graph.FromPairs(4, [][2]int{{0, 1}, {2, 3}})
		s, err := NewSolver(&Options{Algorithm: Frontier, TrustGraph: trust})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Solve(g); err != nil {
			t.Fatal(err)
		}
		g.Edges[1] = graph.Edge{U: 1, V: 2} // in-place, same length
		res, err := s.Solve(g)
		if err != nil {
			t.Fatal(err)
		}
		return !Verify(g, res.Labels)
	}
	if mutate(false) {
		t.Fatal("default solver must catch in-place mutation (fingerprint regression)")
	}
	if !mutate(true) {
		t.Fatal("TrustGraph solver re-fingerprinted the graph (the O(m) scan it promises to skip)")
	}
	// Remove-then-append under TrustGraph (net length growth): the plan
	// extension path must verify the prefix it builds on, not trust it —
	// the documented promise is that only same-length overwrites go
	// unnoticed.  Regression for a stale-CSR bug caught in review.
	gm := graph.FromPairs(6, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	sm, err := NewSolver(&Options{Algorithm: Frontier, TrustGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	if _, err := sm.Solve(gm); err != nil {
		t.Fatal(err)
	}
	gm.Edges = append(gm.Edges[:0], graph.Edge{U: 1, V: 2}, graph.Edge{U: 3, V: 4})
	gm.AddEdge(4, 5)
	gm.AddEdge(2, 3)
	res, err := sm.Solve(gm)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(gm, res.Labels) {
		t.Fatal("TrustGraph plan extension served labels from an unverified mutated prefix")
	}

	// Appends are still caught under TrustGraph: the length check is kept.
	g := graph.FromPairs(4, [][2]int{{0, 1}})
	s, err := NewSolver(&Options{Algorithm: Frontier, TrustGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Solve(g); err != nil {
		t.Fatal(err)
	}
	g.AddEdge(2, 3)
	res2, err := s.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(g, res2.Labels) {
		t.Fatal("TrustGraph must still detect appended edges via the length check")
	}
}

// TestComponentsIntoReusesBuffer: the re-query path must be allocation-
// friendly — the label backing is kept once it has the capacity.
func TestComponentsIntoReusesBuffer(t *testing.T) {
	s, err := NewSolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Attach(gen.Cycle(64).Clone()); err != nil {
		t.Fatal(err)
	}
	res := &Result{}
	if err := s.ComponentsInto(res); err != nil {
		t.Fatal(err)
	}
	first := &res.Labels[0]
	if err := s.AddEdges([]Edge{{U: 0, V: 32}}); err != nil {
		t.Fatal(err)
	}
	if err := s.ComponentsInto(res); err != nil {
		t.Fatal(err)
	}
	if &res.Labels[0] != first {
		t.Fatal("ComponentsInto reallocated the label buffer despite sufficient capacity")
	}
}

// TestRemoveEdgesLocalBatchCostFlat: a deletion batch whose edges have a
// small endpoint costs O(|batch|), not O(n) or O(max degree).  Three
// cases, each timing the same rounds at a small and a large size on the
// sequential backend, and asserting the per-round time at the larger
// within 3× of the smaller:
//
//   - local: 200 batches, all inside the first 2^14 vertices of a union of
//     1024-vertex GNM blocks with 1100 edges each (near-trees, so most
//     removes are forest deletes whose replacement search or split stays
//     inside its block), at n = 2^14 and n = 2^20.  A batch that zeroes an
//     n-sized buffer fails it (≈30× at these sizes).
//   - hub: a star whose every spoke is doubled, hub degree 2^10 and 2^16;
//     64 batches remove the non-forest copies of the first 512 spokes.
//     The hub is vertex 0, the first endpoint of every key, so a key
//     lookup that walks only that endpoint's incidence list fails it; the
//     edge store's walk ends with the spoke's two-entry list.
//   - merge-then-remove: on the local case's graphs, 200 rounds each add
//     one edge joining two isolated vertices of the 2^14-vertex prefix (a
//     merge) and then remove it (a forest delete whose search is O(1)).
//     A remove that flattens the whole forest after a merge fails it.
func TestRemoveEdgesLocalBatchCostFlat(t *testing.T) {
	const batches, per, block = 200, 8, 1024
	blocks := func(n int) *Graph {
		return gen.ManyComponents(n/block, func(i int) *Graph {
			return gen.GNM(block, 1100, uint64(i)+1)
		})
	}
	local := func(n int) time.Duration {
		g := blocks(n)
		rm := make([]Edge, batches*per)
		for i := range rm {
			rm[i] = g.Edges[11*i]
			if rm[i].U >= 1<<14 || rm[i].V >= 1<<14 {
				t.Fatalf("n=%d: removed edge %v lies outside the shared prefix", n, rm[i])
			}
		}
		return removeBatchCost(t, g, rm, per)
	}
	hub := func(deg int) time.Duration {
		g := gen.Star(deg/2 + 1)
		rm := g.Edges[:512]
		g.Edges = append(g.Edges, g.Edges...)
		return removeBatchCost(t, g, rm, per)
	}
	mergeRemove := func(n int) time.Duration {
		g := blocks(n)
		deg := make([]int, 1<<14)
		for _, e := range g.Edges {
			if e.U < 1<<14 {
				deg[e.U]++
			}
			if e.V < 1<<14 {
				deg[e.V]++
			}
		}
		var isolated []int32
		for v, d := range deg {
			if d == 0 {
				isolated = append(isolated, int32(v))
			}
		}
		if len(isolated) < 2*batches {
			t.Fatalf("n=%d: %d isolated vertices in the prefix, want %d", n, len(isolated), 2*batches)
		}
		return liveRoundCost(t, g, batches, func(s *Solver, i int) error {
			e := []Edge{{U: isolated[2*i], V: isolated[2*i+1]}}
			if err := s.AddEdges(e); err != nil {
				return err
			}
			return s.RemoveEdges(e)
		})
	}
	for _, c := range []struct {
		name         string
		cost         func(int) time.Duration
		small, large int
		size         string
	}{
		{"local", local, 1 << 14, 1 << 20, "n=2^14 / n=2^20"},
		{"hub", hub, 1 << 10, 1 << 16, "hub degree 2^10 / 2^16"},
		{"merge-then-remove", mergeRemove, 1 << 14, 1 << 20, "n=2^14 / n=2^20"},
	} {
		small, large := c.cost(c.small), c.cost(c.large)
		t.Logf("%s: per round %v / %v at %s (%.2f×)", c.name, small, large, c.size, float64(large)/float64(small))
		if large > 3*small {
			t.Errorf("%s: round costs %v at the larger size vs %v (%s): want within 3×", c.name, large, small, c.size)
		}
	}
}

// TestBudgetFallbackCostNearAttach bars the scoped repair's cost:
// deleting the bridge of bridgeGraph blows the replacement budget, and
// the delete — the search that blew it, then the fallback that relabels
// the whole former component in place with one vertex gather and one
// union pass over the live edge array — must cost at most 2× a fresh
// Attach of the same graph, whose union pass does the same order of work
// (medians of 9 passes, a sequential session, each pass on a fresh copy).
func TestBudgetFallbackCostNearAttach(t *testing.T) {
	const passes = 9
	for _, c := range []struct {
		name string
		half *Graph
	}{
		{"cycle 2×2^12", gen.Cycle(1 << 12)},
		{"gnm 2×2^15 degree 8", gen.GNM(1<<15, 1<<17, 3)},
		{"gnm 2×2^14 degree 32", gen.GNM(1<<14, 1<<18, 3)},
		{"grid 2×256²", gen.Grid(256, 256)},
	} {
		g, bridge := bridgeGraph(c.half)
		s, err := NewSolver(&Options{Backend: BackendSequential, Seed: 1, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		var attach, repair [passes]time.Duration
		for i := range passes {
			live := g.Clone()
			t0 := time.Now()
			if err := s.Attach(live); err != nil {
				t.Fatal(err)
			}
			attach[i] = time.Since(t0)
			t0 = time.Now()
			if err := s.RemoveEdges([]Edge{bridge}); err != nil {
				t.Fatal(err)
			}
			repair[i] = time.Since(t0)
			if fb := s.LastTrace().Incremental.BudgetFallbacks; fb != 1 {
				t.Fatalf("%s: bridge delete took %d budget fallbacks, want 1", c.name, fb)
			}
		}
		s.Close()
		slices.Sort(attach[:])
		slices.Sort(repair[:])
		a, r := attach[passes/2], repair[passes/2]
		t.Logf("%s: fallback delete %v, attach %v (%.2f×)", c.name, r, a, float64(r)/float64(a))
		if r > 2*a {
			t.Errorf("%s: fallback delete costs %v vs attach %v: want within 2×", c.name, r, a)
		}
	}
}

// removeBatchCost returns the per-batch time of removing rm from g in
// batches of per on a sequential session (liveRoundCost).
func removeBatchCost(t *testing.T, g *Graph, rm []Edge, per int) time.Duration {
	t.Helper()
	return liveRoundCost(t, g, len(rm)/per, func(s *Solver, i int) error {
		return s.RemoveEdges(rm[i*per : (i+1)*per])
	})
}

// liveRoundCost returns the per-round time of rounds calls of round on a
// sequential session attached to g, best of five passes.  Each pass
// attaches a fresh copy of g, so every pass walks the same incidence
// lists (edges added back would sit at the lists' fronts), and warms the
// session's per-remove buffers untimed by adding and removing a loop at
// g's last vertex.
func liveRoundCost(t *testing.T, g *Graph, rounds int, round func(s *Solver, i int) error) time.Duration {
	t.Helper()
	s, err := NewSolver(&Options{Backend: BackendSequential, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	warm := []Edge{{U: int32(g.N - 1), V: int32(g.N - 1)}}
	best := time.Duration(math.MaxInt64)
	for pass := 0; pass < 5; pass++ {
		if err := s.Attach(g.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := s.AddEdges(warm); err != nil {
			t.Fatal(err)
		}
		if err := s.RemoveEdges(warm); err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		for i := range rounds {
			if err := round(s, i); err != nil {
				t.Fatal(err)
			}
		}
		best = min(best, time.Since(t0))
	}
	return best / time.Duration(rounds)
}
