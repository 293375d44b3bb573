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
// republishes with zero clones.  These are exact-count pins, not timings,
// so they hold on any machine.
func TestPublishCostIsDeltaBounded(t *testing.T) {
	const n = 4 * pageSize // 4096: big enough that full-vs-delta is visible
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
		t.Fatal("first publish must be a full build")
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
		t.Fatal("second publish must be a delta")
	}
	if c := sn2.ClonedPages(); c < 1 || c > 2 {
		t.Fatalf("single-page write group cloned %d pages, want 1..2", c)
	}

	// Same shape in the last page: the cost tracks the touched pages, not
	// their position or the pages dirtied by earlier publishes.
	if err := s.AddEdges(pathBatch(3*pageSize, 512)); err != nil {
		t.Fatal(err)
	}
	sn3, err := s.PublishSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if c := sn3.ClonedPages(); c < 1 || c > 2 {
		t.Fatalf("far-page write group cloned %d pages, want 1..2", c)
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
	if c := sn4.ClonedPages(); c < 2 || c > 4 {
		t.Fatalf("two-page write group cloned %d pages, want 2..4", c)
	}

	// Published snapshots are immutable: the clones that served sn4 must
	// not have touched sn2's view of page 1..2.
	for v := pageSize + pageSize/2; v < 2*pageSize; v++ {
		if sn2.ComponentOf(v) != int32(v) {
			t.Fatalf("sn2 label of %d mutated to %d after later publishes", v, sn2.ComponentOf(v))
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
		t.Fatalf("untouched publish cloned %d pages, want 0", c)
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
		t.Fatalf("untouched publish allocates %v objects, want <= 8", allocs)
	}
	// Reads off the published view stay allocation-free.
	view := s.ReadView()
	if a := testing.AllocsPerRun(100, func() {
		_ = view.ComponentOf(17)
		_ = view.ComponentSize(3*pageSize + 100)
		_ = view.Connected(0, 511)
	}); a != 0 {
		t.Fatalf("point reads allocate %v objects, want 0", a)
	}
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
