package parcc

import (
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

	// First publish builds the mirror from scratch: a full flatten.
	sn1, err := s.PublishSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !sn1.PublishedFull() {
		t.Fatalf("n=%d: first publish must be a full build", n)
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
	if sn2.PublishedFull() {
		t.Fatalf("n=%d: second publish must be a delta", n)
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
// mirror: across a long randomized add/remove stream on both backends,
// every published version's labels must be byte-identical to an eager
// flatten of the same parent array, with matching counts and sizes.
// SamePartition would hide a mirror that drifted to a different-but-
// isomorphic labeling; byte equality does not.  (The mirror after a
// scoped repair is pinned by TestForestBudgetFallback.)
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
				if err := s.ComponentsInto(res); err != nil {
					t.Fatalf("batch %d: flatten: %v", b, err)
				}
				if !slices.Equal(sn.Labels(), res.Labels) {
					t.Fatalf("batch %d: COW labels diverge from eager flatten", b)
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
