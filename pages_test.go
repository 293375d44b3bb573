package parcc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
)

// pathBatch builds a path over k+1 consecutive vertices starting at lo —
// a write group whose touched set lives in a known page range.
func pathBatch(lo, k int) []Edge {
	batch := make([]Edge, k)
	for i := range batch {
		batch[i] = Edge{U: int32(lo + i), V: int32(lo + i + 1)}
	}
	return batch
}

// TestPublishCostIsDeltaBounded pins the O(⌈k/pageSize⌉) publish claim
// structurally: a k-vertex write group confined to one page republishes by
// cloning O(1) pages — not O(n/pageSize) — and an untouched session
// republishes with zero clones.  The same write groups run at n =
// 4·pageSize and 64·pageSize and must clone exactly the same page counts
// at both sizes.  These are exact-count pins, not timings, so they hold on
// any machine.
func TestPublishCostIsDeltaBounded(t *testing.T) {
	var clones [][3]int
	for _, n := range []int{4 * pageSize, 64 * pageSize} {
		clones = append(clones, publishClones(t, n))
	}
	if clones[0] != clones[1] {
		t.Fatalf("write groups cloned %v pages at n=%d but %v at n=%d: publish cost must not grow with n",
			clones[0], 4*pageSize, clones[1], 64*pageSize)
	}
}

// publishClones runs the write groups of TestPublishCostIsDeltaBounded on
// an n-vertex session and returns the pages each delta publish cloned.
func publishClones(t *testing.T, n int) (clones [3]int) {
	t.Helper()
	s, err := NewSolver(&Options{Backend: BackendSequential, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Attach(&Graph{N: n}); err != nil {
		t.Fatal(err)
	}

	// The first publish shares the mirror Attach built.
	if _, err := s.PublishSnapshot(); err != nil {
		t.Fatal(err)
	}

	// A 512-edge path inside page 0 touches one label page and one size
	// page: exactly 2 clones, regardless of n.
	if err := s.AddEdges(pathBatch(0, 512)); err != nil {
		t.Fatal(err)
	}
	sn2, err := s.PublishSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if clones[0] = sn2.ClonedPages(); clones[0] < 1 || clones[0] > 2 {
		t.Fatalf("n=%d: single-page write group cloned %d pages, want 1..2", n, clones[0])
	}

	// Same shape in the last page: the cost tracks the touched pages, not
	// their position or the pages dirtied by earlier publishes.
	if err := s.AddEdges(pathBatch(n-pageSize, 512)); err != nil {
		t.Fatal(err)
	}
	sn3, err := s.PublishSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if clones[1] = sn3.ClonedPages(); clones[1] < 1 || clones[1] > 2 {
		t.Fatalf("n=%d: far-page write group cloned %d pages, want 1..2", n, clones[1])
	}

	// A group straddling a page boundary clones both sides — still
	// ⌈k/pageSize⌉-bounded, still far below numPages(n).
	if err := s.AddEdges(pathBatch(pageSize+pageSize/2, pageSize)); err != nil {
		t.Fatal(err)
	}
	sn4, err := s.PublishSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if clones[2] = sn4.ClonedPages(); clones[2] < 2 || clones[2] > 4 {
		t.Fatalf("n=%d: two-page write group cloned %d pages, want 2..4", n, clones[2])
	}

	// Published snapshots are immutable: the clones that served sn4 must
	// not have touched sn2's view of page 1..2.
	for v := pageSize + pageSize/2; v < 2*pageSize; v++ {
		if sn2.ComponentOf(v) != int32(v) {
			t.Fatalf("n=%d: sn2 label of %d mutated to %d after later publishes", n, v, sn2.ComponentOf(v))
		}
	}

	// Untouched republish: no pages clone and the steady-state allocation
	// budget stays flat (snapshot header + two page-table copies — the
	// per-page payloads are all shared).
	snPrev, err := s.PublishSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if c := snPrev.ClonedPages(); c != 0 {
		t.Fatalf("n=%d: untouched publish cloned %d pages, want 0", n, c)
	}
	allocs := testing.AllocsPerRun(20, func() {
		sn, err := s.PublishSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if sn.ClonedPages() != 0 {
			t.Fatal("untouched publish cloned a page")
		}
	})
	if allocs > 8 {
		t.Fatalf("n=%d: untouched publish allocates %v objects, want <= 8", n, allocs)
	}
	// Reads off the published view stay allocation-free.
	view := s.ReadView()
	if a := testing.AllocsPerRun(100, func() {
		_ = view.ComponentOf(17)
		_ = view.ComponentSize(n - pageSize + 100)
		_ = view.Connected(0, 511)
	}); a != 0 {
		t.Fatalf("n=%d: point reads allocate %v objects, want 0", n, a)
	}
	return clones
}

// TestSnapshotEquivalenceRandomized is the regression referee for the COW
// mirror and the flat live forest: across a long randomized add/remove
// stream on both backends, every published version's labels must be
// byte-identical to the parent array ComponentsInto copies, with
// matching counts and sizes, and after every publish and every
// ComponentsInto the parent array must be flat and the mirror must match
// it exactly (checkPagesAgainstParent) — the mirror flush is the live
// forest's only flattening.  SamePartition would hide a mirror that
// drifted to a different-but-isomorphic labeling; byte equality does
// not.  (The mirror after a scoped repair is pinned by
// TestForestBudgetFallback.)
func TestSnapshotEquivalenceRandomized(t *testing.T) {
	const (
		n       = 2500
		batches = 140
	)
	for _, be := range []Backend{BackendSequential, BackendConcurrent} {
		name := string(be)
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name)) * 7919))
			g0 := gen.GNM(n, 3*n/2, 5)
			s, err := NewSolver(&Options{Backend: be, Procs: 3, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Attach(g0.Clone()); err != nil {
				t.Fatal(err)
			}
			oracle := baseline.NewIncOracle(g0)
			res := &Result{}
			for b := 0; b < batches; b++ {
				live := oracle.Graph()
				if rng.Intn(10) < 6 || live.M() == 0 {
					k := 1 + rng.Intn(12)
					batch := make([]Edge, k)
					for i := range batch {
						batch[i] = Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
					}
					if err := s.AddEdges(batch); err != nil {
						t.Fatalf("batch %d: AddEdges: %v", b, err)
					}
					if err := oracle.AddEdges(batch); err != nil {
						t.Fatal(err)
					}
				} else {
					k := 1 + rng.Intn(8)
					if k > live.M() {
						k = live.M()
					}
					idx := rng.Perm(live.M())[:k]
					batch := make([]Edge, 0, k)
					for _, i := range idx {
						batch = append(batch, live.Edges[i])
					}
					if err := s.RemoveEdges(batch); err != nil {
						t.Fatalf("batch %d: RemoveEdges: %v", b, err)
					}
					if err := oracle.RemoveEdges(batch); err != nil {
						t.Fatal(err)
					}
				}
				sn, err := s.PublishSnapshot()
				if err != nil {
					t.Fatalf("batch %d: publish: %v", b, err)
				}
				batchName := fmt.Sprintf("%s/batch %d publish", name, b)
				checkPagesAgainstParent(t, batchName, s.pages, s.inc.parent)
				if err := s.ComponentsInto(res); err != nil {
					t.Fatalf("batch %d: components: %v", b, err)
				}
				checkPagesAgainstParent(t, batchName+"+components", s.pages, s.inc.parent)
				if !slices.Equal(sn.Labels(), res.Labels) {
					t.Fatalf("batch %d: COW labels diverge from the live parent array", b)
				}
				if sn.NumComponents() != res.NumComponents {
					t.Fatalf("batch %d: count %d, want %d", b, sn.NumComponents(), res.NumComponents)
				}
				want := oracle.Labels()
				if !graph.SamePartition(want, res.Labels) {
					t.Fatalf("batch %d: partition differs from oracle", b)
				}
				counts := map[int32]int{}
				for _, l := range res.Labels {
					counts[l]++
				}
				for v := 0; v < n; v += 97 {
					if got, wantC := sn.ComponentSize(v), counts[res.Labels[v]]; got != wantC {
						t.Fatalf("batch %d: ComponentSize(%d) = %d, want %d", b, v, got, wantC)
					}
				}
			}
		})
	}
}

// TestAttachPagesMatchReference pins the page mirror Attach builds, and
// the mirror the first publish shares after one write batch, against a
// reference taken from the flat parent array (checkPagesAgainstParent):
// a flat parent, exact labels, size tallies at the roots' slots and zero
// elsewhere, and member circles that each cover their component exactly.
// Three sessions per backend, over a sparse GNM with a loop and a
// parallel copy and a ragged last page: a fresh attach, an attach plus an
// insert batch (the publish's flush flattens it), and an attach plus a
// batch of forest deletes, whose split-off sides are labeled by their
// search seeds — the case asserts that some label is not its component's
// minimum, so the mirror is exercised off minima.
func TestAttachPagesMatchReference(t *testing.T) {
	const n = 3*pageSize + 77
	base := gen.GNM(n, n, 11)
	base.Edges = append(base.Edges, Edge{U: 5, V: 5}, base.Edges[0])
	splitBatch := func(s *Solver) []Edge {
		var batch []Edge
		df := s.inc.forest
		for h := int32(0); int(h) < df.M() && len(batch) < 60; h += 7 {
			if df.IsForest(h) {
				batch = append(batch, Edge{U: df.U(h), V: df.V(h)})
			}
		}
		return batch
	}
	for _, be := range []Backend{BackendSequential, BackendConcurrent} {
		for _, c := range []struct {
			name   string
			mutate func(*Solver) error
		}{
			{"attach", func(*Solver) error { return nil }},
			{"attach+add", func(s *Solver) error { return s.AddEdges(gen.GNM(n, 40, 12).Edges) }},
			{"attach+split", func(s *Solver) error { return s.RemoveEdges(splitBatch(s)) }},
		} {
			name := string(be) + "/" + c.name
			s, err := NewSolver(&Options{Backend: be, Procs: 2, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Attach(base.Clone()); err != nil {
				t.Fatal(err)
			}
			checkPagesAgainstParent(t, name+" at attach", s.pages, s.inc.parent)
			if err := c.mutate(s); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sn, err := s.PublishSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			nonMin := checkPagesAgainstParent(t, name, s.pages, s.inc.parent)
			if c.name == "attach+split" && nonMin == 0 {
				t.Fatalf("%s: every label is its component's minimum; the case must split off a non-minimum seed", name)
			}
			res, err := s.Components()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sn.Labels(), res.Labels) || sn.NumComponents() != res.NumComponents {
				t.Fatalf("%s: snapshot labels/count diverge from the live partition", name)
			}
			s.Close()
		}
	}
}

// checkPagesAgainstParent asserts st mirrors the flat forest parent
// exactly — labels, sizes at root slots and zero elsewhere, one member
// circle per component holding exactly its vertices with intact back
// links — and returns how many labels are not their component's minimum.
func checkPagesAgainstParent(t *testing.T, name string, st *pageStore, parent []int32) (nonMin int) {
	t.Helper()
	n := len(parent)
	count := make([]int32, n)
	minOf := make(map[int32]int32)
	for v, r := range parent {
		if parent[r] != r {
			t.Fatalf("%s: parent is not flat at %d", name, v)
		}
		if got := st.label(int32(v)); got != r {
			t.Fatalf("%s: label(%d) = %d, want root %d", name, v, got, r)
		}
		count[r]++
		if m, ok := minOf[r]; !ok || int32(v) < m {
			minOf[r] = int32(v)
		}
	}
	covered := 0
	for v := range int32(n) {
		if got := st.size(v); got != count[v] {
			t.Fatalf("%s: size slot %d = %d, want %d", name, v, got, count[v])
		}
		if parent[v] != v {
			continue
		}
		if minOf[v] != v {
			nonMin++
		}
		members := int32(0)
		for x := v; ; {
			if parent[x] != v || st.prev[st.next[x]] != x {
				t.Fatalf("%s: circle of %d reaches %d (root %d) or breaks its back link", name, v, x, parent[x])
			}
			if members++; members > count[v] {
				t.Fatalf("%s: circle of %d holds more than its %d members", name, v, count[v])
			}
			if x = st.next[x]; x == v {
				break
			}
		}
		if members != count[v] {
			t.Fatalf("%s: circle of %d holds %d members, want %d", name, v, members, count[v])
		}
		covered += int(members)
	}
	if covered != n {
		t.Fatalf("%s: circles cover %d vertices, want %d", name, covered, n)
	}
	return nonMin
}
