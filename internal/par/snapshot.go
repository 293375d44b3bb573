package par

import (
	"math/bits"
	"sync/atomic"
)

// SnapshotPages is the snapshot-publish kernel behind Solver
// .PublishSnapshot's full build of the copy-on-write page mirror: it
// resolves every vertex of the parent forest p to its root without
// mutating p, writing the flattened labels into
// labels[v/pageSize][v%pageSize] and tallying per-component sizes into
// sizes at the root's page/offset.  pageSize must be a power of two;
// every page is pageSize long (the last one simply has unused tail slots)
// and the caller supplies the size pages zeroed.  O(n · depth) work — the
// caller flattens the forest first (Compress) when chains may be long,
// making the chases O(1) and the kernel a straight parallel copy+count.
// Parallel over pages rather than vertices, so each goroutine writes one
// label page exclusively; the size tallies cross pages and stay atomic.
//
// p is only read (atomically), so the kernel tolerates a forest that
// concurrent Find calls are still path-halving; labels and sizes must not
// be shared with any concurrent writer.  Uncharged serving helper.
func SnapshotPages(e Exec, p []int32, pageSize int, labels, sizes [][]int32) {
	shift := uint(bits.TrailingZeros(uint(pageSize)))
	mask := int32(pageSize - 1)
	n := len(p)
	e.Run(len(labels), func(pg int) {
		base := pg * pageSize
		end := pageSize
		if base+end > n {
			end = n - base
		}
		lp := labels[pg]
		for i := 0; i < end; i++ {
			r := chase(p, int32(base+i))
			lp[i] = r
			atomic.AddInt32(&sizes[r>>shift][r&mask], 1)
		}
	})
}
