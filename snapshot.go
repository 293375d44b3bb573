package parcc

import "sync"

// Snapshot is an immutable point-in-time view of a live session's
// component partition: the flattened labels, per-component sizes, and the
// exact component count, stamped with a monotonically increasing version.
// A Snapshot never changes after PublishSnapshot returns it, so any number
// of goroutines may query it concurrently, lock-free, while the session
// keeps mutating — readers holding an old snapshot simply observe the
// partition as it was at that version (a historically valid partition,
// never a torn one).  This is the read side of the serving layer's
// single-writer/many-reader discipline (internal/service publishes one
// snapshot per coalesced mutation batch; see docs/OPERATIONS.md for the
// memory model).
//
// Storage is paged copy-on-write (pages.go): consecutive snapshots share
// every label/size page the intervening write groups did not touch, so a
// version costs O(pages touched), not O(n), in both time and memory.
// Sharing is invisible to readers — a shared page is immutable for as
// long as any snapshot references it; the session clones before writing.
//
// Point queries are O(1) lookups (one page indirection); none of them
// allocates.  Vertex arguments must be in [0, N()) — the methods index
// slices directly and panic on out-of-range input, exactly like the
// slices themselves (the serving layer validates before calling).
type Snapshot struct {
	n       int
	labels  [][]int32 // labels[v>>pageShift][v&pageMask] = v's representative
	sizes   [][]int32 // component size at the root's slot, zero elsewhere
	ncomp   int
	edges   int // live edge count at version
	version uint64
	cloned  int // pages the write groups since the previous publish cloned

	// flat is the lazily materialized flat label array behind Labels();
	// built at most once per snapshot, only for bulk readers.
	flatOnce sync.Once
	flat     []int32
}

// N returns the number of vertices the snapshot covers.
func (sn *Snapshot) N() int { return sn.n }

// Version is the publish counter of the owning Solver: strictly increasing
// across PublishSnapshot calls, never reused within a Solver's lifetime
// (re-Attach keeps counting, and a service-layer recovery advances past
// every version that could have been observed before the crash).  Readers
// use it to order snapshots and to key them to an external history.
func (sn *Snapshot) Version() uint64 { return sn.version }

// NumComponents is the exact number of connected components at the
// snapshot's version.
func (sn *Snapshot) NumComponents() int { return sn.ncomp }

// NumEdges is the live graph's edge count (a multiset: parallel edges and
// self-loops count) at the snapshot's version.
func (sn *Snapshot) NumEdges() int { return sn.edges }

// ComponentOf returns u's component representative.  Representatives are
// stable within one snapshot (ComponentOf(u) == ComponentOf(v) iff u and v
// are connected) but may differ across snapshots even for an unchanged
// partition — compare partitions, not raw labels, across versions.
func (sn *Snapshot) ComponentOf(u int) int32 {
	return sn.labels[u>>pageShift][u&pageMask]
}

// Connected reports whether u and v are in the same component.
func (sn *Snapshot) Connected(u, v int) bool {
	return sn.ComponentOf(u) == sn.ComponentOf(v)
}

// ComponentSize returns the number of vertices in u's component.
func (sn *Snapshot) ComponentSize(u int) int {
	r := sn.ComponentOf(u)
	return int(sn.sizes[r>>pageShift][r&pageMask])
}

// Labels returns the flattened label array (labels[v] is v's
// representative).  The flat copy is materialized from the pages on first
// call — O(n), amortized across all callers of the same snapshot — and is
// the snapshot's own storage afterwards: treat it as read-only.  Point
// queries never pay this; only bulk readers (the /snapshot endpoint,
// equivalence tests) do.
func (sn *Snapshot) Labels() []int32 {
	sn.flatOnce.Do(func() {
		flat := make([]int32, sn.n)
		for pg, page := range sn.labels {
			copy(flat[pg<<pageShift:], page)
		}
		sn.flat = flat
	})
	return sn.flat
}

// ClonedPages is the number of label/size pages the write groups between
// the previous publish and this one cloned — the publish's cost in pages
// (zero for a publish with no intervening writes, and for the first
// publish after an Attach, whose mirror Attach built).
func (sn *Snapshot) ClonedPages() int { return sn.cloned }

// PublishSnapshot captures the live partition into a fresh immutable
// Snapshot and atomically installs it as the session's read view.  The
// capture runs under the session lock (it serializes with AddEdges/
// RemoveEdges, so it always sees a batch boundary, never a half-applied
// one).  Every publish is O(delta) plus the O(n/pageSize) page-header
// copy: deferred merge relabels are flushed through the copy-on-write
// mirror Attach built (pages.go), the page headers are copied, and every
// page untouched since the previous version is shared with it.  The swap itself is a single atomic pointer store: readers
// calling ReadView never block, and readers holding the previous snapshot
// keep a consistent view for as long as they keep the pointer.
//
// Publishing is explicit rather than automatic so the incremental fast
// path keeps its O(batch·α) cost: callers that want a fresh read view
// after every mutation batch publish once per batch (what internal/service
// does, amortizing the cost across all writes it coalesced into the
// batch); callers that only use Components/ComponentsInto never pay it.
// Errors are the incremental taxonomy's: ErrSolverClosed, ErrNotAttached.
func (s *Solver) PublishSnapshot() (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	inc, err := s.incReady()
	if err != nil {
		return nil, err
	}
	st := s.pages
	st.flush(inc.parent)
	sn := &Snapshot{
		n:      st.n,
		labels: append([][]int32(nil), st.labels...),
		sizes:  append([][]int32(nil), st.sizes...),
		ncomp:  inc.ncomp,
		edges:  inc.g.M(),
		cloned: st.cloned,
	}
	st.share()
	s.snapVersion++
	sn.version = s.snapVersion
	s.snap.Store(sn)
	return sn, nil
}

// AdvanceSnapshotVersion floors the session's publish counter at v: the
// next PublishSnapshot stamps at least v+1.  It never moves the counter
// backwards.  This is the recovery hook of the serving layer's write-ahead
// log: replay applies the logged batches without their original
// per-publish stamps, then advances the counter to the log's last durable
// sequence number so the single post-replay publish is strictly newer than
// any version a reader could have observed before the crash (the log is
// fsync'd before the publish it seeds, so observed versions never exceed
// durable sequence numbers).
func (s *Solver) AdvanceSnapshotVersion(v uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snapVersion < v {
		s.snapVersion = v
	}
}

// ReadView returns the most recently published snapshot without taking the
// session lock — one atomic pointer load, safe to call from any number of
// goroutines concurrently with mutations on the same Solver.  It is nil
// until the first PublishSnapshot after an Attach (Attach unpublishes:
// a snapshot of the previous live graph must not answer for the new one).
// Close does not unpublish — a drained server may keep answering reads
// from the last view while it shuts down.
func (s *Solver) ReadView() *Snapshot { return s.snap.Load() }
