// Package prim provides the classical PRAM building blocks the paper relies
// on, each with the (time, work) contract of its citation charged on the
// simulator:
//
//   - approximate compaction [Goo91], Definition 4.1 / Lemma 4.2:
//     O(log* n) time, O(n) work;
//   - padded sort [HR92], Lemma 7.9: O(log log m) time, O(m) work;
//   - PRAM perfect hashing [GMV91] used for removing parallel edges and
//     loops: O(log* n) time, O(m) work;
//   - prefix sums and binary-tree occupancy counting.
//
// The implementations are functionally exact (our compaction is one-to-one
// into ≤ 2k cells, the sort is a real sort, the dedup is a real dedup); the
// published contracts are charged through Machine.Contract so measured time
// and work match what the paper charges.
package prim

import (
	"parcc/internal/graph"
	"parcc/internal/par"
	"parcc/internal/pram"
)

// LogStar returns the iterated logarithm of n (number of times log2 must be
// applied before the value drops to at most 1).
func LogStar(n int) int64 {
	s := int64(0)
	for n > 1 {
		n = Log2Floor(n)
		s++
	}
	return s
}

// Log2Floor returns floor(log2(n)) for n >= 1, and 0 below.
func Log2Floor(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// Log2Ceil returns ceil(log2(n)) for n >= 1.
func Log2Ceil(n int) int64 {
	if n <= 1 {
		return 0
	}
	b := int64(0)
	v := 1
	for v < n {
		v <<= 1
		b++
	}
	return b
}

// LogLog returns max(1, ceil(log2(log2(n)))), the ubiquitous round count.
func LogLog(n int) int64 {
	l := Log2Ceil(n)
	if l <= 1 {
		return 1
	}
	ll := Log2Ceil(int(l))
	if ll < 1 {
		ll = 1
	}
	return ll
}

// LogLogLog returns max(1, ceil(log2 log2 log2 n)).
func LogLogLog(n int) int64 {
	ll := LogLog(n)
	lll := Log2Ceil(int(ll))
	if lll < 1 {
		lll = 1
	}
	return lll
}

// CompactIndices returns the indices i in [0,n) for which keep(i) is true,
// in increasing order.  It fulfils the approximate-compaction contract of
// Lemma 4.2 (in fact exactly: the k distinguished items land one-to-one in a
// length-k array): charged O(log* n) time and O(n) work.
func CompactIndices(m *pram.Machine, n int, keep func(i int) bool) []int32 {
	var out []int32
	m.Contract(LogStar(n)+1, int64(n), func() {
		out = par.CompactIndices(m.Runtime(), n, keep)
	})
	return out
}

// Hash is a seeded universal-style hash into [0, size).
type Hash struct {
	seed uint64
	size uint64
}

// NewHash returns a hash function onto [0,size).
func NewHash(seed uint64, size int) Hash {
	if size < 1 {
		size = 1
	}
	return Hash{seed: seed, size: uint64(size)}
}

// Apply hashes x into [0,size).
func (h Hash) Apply(x int32) int {
	return int(pram.SplitMix64(h.seed^uint64(uint32(x))) % h.size)
}

// DedupPairs removes duplicate (u,v) pairs (and, when dropLoops is set, pairs
// with u == v) from packed edge keys, returning the distinct keys.  Charged
// with the PRAM perfect-hashing contract of [GMV91]: O(log* n) time, O(n)
// work.
func DedupPairs(m *pram.Machine, keys []int64, dropLoops bool) []int64 {
	var out []int64
	m.Contract(LogStar(len(keys))+1, int64(len(keys)), func() {
		seen := make(map[int64]struct{}, len(keys))
		out = keys[:0]
		for _, k := range keys {
			if dropLoops {
				if int32(k>>32) == int32(k) {
					continue
				}
			}
			if _, ok := seen[k]; ok {
				continue
			}
			seen[k] = struct{}{}
			out = append(out, k)
		}
	})
	return out
}

// DedupEdges returns the distinct non-loop edges of E, each with the
// smaller endpoint first, through DedupPairs (and its charge).
func DedupEdges(m *pram.Machine, E []graph.Edge) []graph.Edge {
	keys := make([]int64, len(E))
	for i, e := range E {
		keys[i] = e.CanonKey()
	}
	keys = DedupPairs(m, keys, true)
	out := make([]graph.Edge, len(keys))
	for i, k := range keys {
		u, v := UnpackEdge(k)
		out[i] = graph.Edge{U: u, V: v}
	}
	return out
}

// DeleteEdges deletes each edge of E independently with probability
// p64/2^64, the coin of edge i drawn from seed and i, compacting the
// survivors in place (E's order kept).  Charged O(1) time, O(|E|) work.
func DeleteEdges(m *pram.Machine, E []graph.Edge, p64 uint64, seed uint64) []graph.Edge {
	out := E[:0]
	m.Contract(1, int64(len(E)), func() {
		for i, e := range E {
			if pram.SplitMix64(seed^uint64(i)*0x9e3779b97f4a7c15) >= p64 {
				out = append(out, e)
			}
		}
	})
	return out
}

// UnpackEdge inverts graph.Edge.CanonKey.
func UnpackEdge(k int64) (u, v int32) {
	return int32(k >> 32), int32(uint32(k))
}
