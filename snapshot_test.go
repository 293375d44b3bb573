package parcc

import (
	"errors"
	"sync"
	"testing"

	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
)

// TestErrorTaxonomy pins the typed errors of the session and incremental
// API: every failure mode is a sentinel or a typed error the caller can
// dispatch on with errors.Is / errors.As — never an ad-hoc string.
func TestErrorTaxonomy(t *testing.T) {
	if _, err := ConnectedComponents(nil, nil); !errors.Is(err, ErrNilGraph) {
		t.Fatalf("ConnectedComponents(nil) = %v, want ErrNilGraph", err)
	}
	// Negative parallelism is a caller bug: a typed rejection, not a
	// silent clamp (zero still means "use the default").
	var pe *ProcsRangeError
	if _, err := NewSolver(&Options{Procs: -2}); !errors.As(err, &pe) {
		t.Fatalf("NewSolver(Procs: -2) = %v, want *ProcsRangeError", err)
	} else if pe.Procs != -2 {
		t.Fatalf("ProcsRangeError carries %d, want -2", pe.Procs)
	}
	if _, err := ConnectedComponents(gen.Path(3), &Options{Procs: -1}); !errors.As(err, &pe) {
		t.Fatalf("ConnectedComponents(Procs: -1) = %v, want *ProcsRangeError", err)
	}
	if s, err := NewSolver(&Options{Procs: 0}); err != nil {
		t.Fatalf("Procs: 0 must stay the defaulted happy path, got %v", err)
	} else {
		s.Close()
	}

	s, err := NewSolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.Attach(nil); !errors.Is(err, ErrNilGraph) {
		t.Fatalf("Attach(nil) = %v, want ErrNilGraph", err)
	}
	// Every incremental entry point before Attach: ErrNotAttached.
	if err := s.AddEdges([]Edge{{U: 0, V: 1}}); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("AddEdges unattached = %v, want ErrNotAttached", err)
	}
	if err := s.RemoveEdges([]Edge{{U: 0, V: 1}}); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("RemoveEdges unattached = %v, want ErrNotAttached", err)
	}
	if _, err := s.Components(); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("Components unattached = %v, want ErrNotAttached", err)
	}
	if err := s.ComponentsInto(&Result{}); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("ComponentsInto unattached = %v, want ErrNotAttached", err)
	}
	if _, err := s.PublishSnapshot(); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("PublishSnapshot unattached = %v, want ErrNotAttached", err)
	}

	if err := s.Attach(gen.Path(4)); err != nil {
		t.Fatal(err)
	}
	// Out-of-range endpoints carry the edge and the bound.
	var re *EdgeRangeError
	if err := s.AddEdges([]Edge{{U: 1, V: 9}}); !errors.As(err, &re) {
		t.Fatalf("AddEdges out-of-range = %v, want *EdgeRangeError", err)
	} else if re.Edge.V != 9 || re.N != 4 {
		t.Fatalf("EdgeRangeError carries (%d,%d)/%d, want (1,9)/4", re.Edge.U, re.Edge.V, re.N)
	}
	if err := s.RemoveEdges([]Edge{{U: 0, V: 9}}); !errors.As(err, &re) {
		t.Fatalf("RemoveEdges out-of-range = %v, want *EdgeRangeError", err)
	}
	// Removing more occurrences than the multiset holds: MissingEdgeError
	// with the shortfall, and no mutation.
	var me *MissingEdgeError
	if err := s.RemoveEdges([]Edge{{U: 0, V: 2}, {U: 0, V: 1}}); !errors.As(err, &me) {
		t.Fatalf("RemoveEdges missing = %v, want *MissingEdgeError", err)
	} else if me.Count != 1 {
		t.Fatalf("MissingEdgeError.Count = %d, want 1", me.Count)
	}
	if s.Live().M() != 3 {
		t.Fatalf("failed remove mutated the live graph: m=%d, want 3", s.Live().M())
	}

	// Closed solver: ErrSolverClosed from the whole surface — including
	// ComponentsInto after a RemoveEdges-bearing session (the exact
	// sequence that used to yield an untyped string).
	if err := s.RemoveEdges([]Edge{{U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.ComponentsInto(&Result{}); !errors.Is(err, ErrSolverClosed) {
		t.Fatalf("ComponentsInto closed = %v, want ErrSolverClosed", err)
	}
	if err := s.SolveInto(gen.Path(3), &Result{}); !errors.Is(err, ErrSolverClosed) {
		t.Fatalf("SolveInto closed = %v, want ErrSolverClosed", err)
	}
	if err := s.AddEdges([]Edge{{U: 0, V: 1}}); !errors.Is(err, ErrSolverClosed) {
		t.Fatalf("AddEdges closed = %v, want ErrSolverClosed", err)
	}
	if err := s.Attach(gen.Path(3)); !errors.Is(err, ErrSolverClosed) {
		t.Fatalf("Attach closed = %v, want ErrSolverClosed", err)
	}
	if _, err := s.PublishSnapshot(); !errors.Is(err, ErrSolverClosed) {
		t.Fatalf("PublishSnapshot closed = %v, want ErrSolverClosed", err)
	}
}

// TestSnapshotPublishAndReadView drives a live session through publishes,
// mutations, and a re-attach, asserting the snapshot semantics: immutable
// views, monotone versions, point queries consistent with the partition,
// and the unpublish on Attach.
func TestSnapshotPublishAndReadView(t *testing.T) {
	s, err := NewSolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if s.ReadView() != nil {
		t.Fatal("ReadView before any publish must be nil")
	}
	if err := s.Attach(gen.Path(6)); err != nil { // 0-1-2-3-4-5
		t.Fatal(err)
	}
	if s.ReadView() != nil {
		t.Fatal("Attach must not publish implicitly")
	}

	sn1, err := s.PublishSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ReadView(); got != sn1 {
		t.Fatalf("ReadView = %p, want the published snapshot %p", got, sn1)
	}
	if sn1.Version() != 1 || sn1.N() != 6 || sn1.NumComponents() != 1 {
		t.Fatalf("snapshot 1: version=%d n=%d comps=%d", sn1.Version(), sn1.N(), sn1.NumComponents())
	}
	if !sn1.Connected(0, 5) || sn1.ComponentSize(3) != 6 {
		t.Fatal("snapshot 1 must see the connected path")
	}
	checkSnapshotAgainstLive(t, s, sn1)

	// Split the path: the published view is untouched (historically
	// valid), the next publish sees the split.
	if err := s.RemoveEdges([]Edge{{U: 2, V: 3}}); err != nil {
		t.Fatal(err)
	}
	if got := s.ReadView(); got != sn1 || !got.Connected(0, 5) {
		t.Fatal("mutation must not alter the published snapshot")
	}
	sn2, err := s.PublishSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sn2.Version() != 2 || sn2.NumComponents() != 2 {
		t.Fatalf("snapshot 2: version=%d comps=%d, want 2/2", sn2.Version(), sn2.NumComponents())
	}
	if sn2.Connected(0, 5) || !sn2.Connected(0, 2) || sn2.ComponentSize(4) != 3 {
		t.Fatal("snapshot 2 must see the split")
	}
	if sn2.ComponentOf(0) == sn2.ComponentOf(5) {
		t.Fatal("split endpoints must have distinct representatives")
	}
	checkSnapshotAgainstLive(t, s, sn2)

	// Rejoin through the insert path (the publish's flush flattens the
	// merged side).
	if err := s.AddEdges([]Edge{{U: 2, V: 3}}); err != nil {
		t.Fatal(err)
	}
	sn3, err := s.PublishSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sn3.Version() != 3 || sn3.NumComponents() != 1 || !sn3.Connected(0, 5) {
		t.Fatalf("snapshot 3: version=%d comps=%d", sn3.Version(), sn3.NumComponents())
	}
	checkSnapshotAgainstLive(t, s, sn3)

	// Re-attach: unpublished, but the version counter keeps running.
	if err := s.Attach(gen.TwoCycles(8)); err != nil {
		t.Fatal(err)
	}
	if s.ReadView() != nil {
		t.Fatal("Attach must unpublish the previous graph's snapshot")
	}
	sn4, err := s.PublishSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sn4.Version() != 4 || sn4.NumComponents() != 2 {
		t.Fatalf("snapshot 4: version=%d comps=%d, want 4/2", sn4.Version(), sn4.NumComponents())
	}
	checkSnapshotAgainstLive(t, s, sn4)
}

// checkSnapshotAgainstLive asserts a snapshot is exactly the partition of
// the solver's live graph (BFS referee), with exact per-component sizes.
func checkSnapshotAgainstLive(t *testing.T, s *Solver, sn *Snapshot) {
	t.Helper()
	want := baseline.BFSLabels(s.Live())
	if !graph.SamePartition(want, sn.Labels()) {
		t.Fatal("snapshot partition diverges from a from-scratch solve of the live graph")
	}
	count := map[int32]int{}
	for _, l := range sn.Labels() {
		count[l]++
	}
	if len(count) != sn.NumComponents() {
		t.Fatalf("snapshot has %d distinct labels but claims %d components",
			len(count), sn.NumComponents())
	}
	for v := 0; v < sn.N(); v++ {
		if sn.ComponentSize(v) != count[sn.ComponentOf(v)] {
			t.Fatalf("ComponentSize(%d) = %d, want %d", v, sn.ComponentSize(v), count[sn.ComponentOf(v)])
		}
	}
}

// TestSnapshotLockFreeReaders runs readers against a mutating writer on
// one Solver: every ReadView must be internally consistent (label-derived
// component count and sizes match the snapshot's own claims) — the
// immutability contract under -race.
func TestSnapshotLockFreeReaders(t *testing.T) {
	s, err := NewSolver(&Options{Backend: BackendConcurrent, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := 256
	if err := s.Attach(gen.Cycle(n)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PublishSnapshot(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := s.ReadView()
				count := map[int32]int{}
				for _, l := range sn.Labels() {
					count[l]++
				}
				if len(count) != sn.NumComponents() {
					t.Errorf("torn snapshot: %d labels vs %d components", len(count), sn.NumComponents())
					return
				}
				for v := 0; v < sn.N(); v += 17 {
					if sn.ComponentSize(v) != count[sn.ComponentOf(v)] {
						t.Errorf("torn snapshot: size mismatch at %d", v)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		e := Edge{U: int32(i % n), V: int32((i * 7) % n)}
		if err := s.AddEdges([]Edge{e}); err != nil {
			t.Error(err)
			break
		}
		if _, err := s.PublishSnapshot(); err != nil {
			t.Error(err)
			break
		}
		if err := s.RemoveEdges([]Edge{e}); err != nil {
			t.Error(err)
			break
		}
		if _, err := s.PublishSnapshot(); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
