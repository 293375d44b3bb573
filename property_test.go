package parcc

import (
	"testing"
	"testing/quick"

	"parcc/internal/pram"
)

// Cross-cutting properties of the public API, checked with testing/quick.

// TestPropertyLabelsAreRepresentatives: every label is a member of its own
// component (labels are representatives, not arbitrary ints).
func TestPropertyLabelsAreRepresentatives(t *testing.T) {
	f := func(seed uint64) bool {
		g := GNM(80, 110, seed)
		res, err := ConnectedComponents(g, &Options{Seed: seed + 1})
		if err != nil {
			return false
		}
		for v, l := range res.Labels {
			if res.Labels[l] != l {
				return false
			}
			_ = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPropertyEdgeEndpointsShareLabels: each edge's endpoints always share
// a label.
func TestPropertyEdgeEndpointsShareLabels(t *testing.T) {
	f := func(seed uint64) bool {
		g := GNM(70, 130, seed)
		res, err := ConnectedComponents(g, &Options{Seed: seed})
		if err != nil {
			return false
		}
		for _, e := range g.Edges {
			if res.Labels[e.U] != res.Labels[e.V] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPropertyComponentCountVsEdges: adding an edge never increases the
// component count, and decreases it by at most one.
func TestPropertyComponentCountVsEdges(t *testing.T) {
	f := func(seed uint64) bool {
		g := GNM(50, 40, seed)
		r1, err := ConnectedComponents(g, &Options{Algorithm: UnionFind})
		if err != nil {
			return false
		}
		u := int(pram.SplitMix64(seed) % uint64(g.N))
		v := int(pram.SplitMix64(seed+1) % uint64(g.N))
		g2 := g.Clone()
		g2.AddEdge(u, v)
		r2, err := ConnectedComponents(g2, &Options{Seed: seed})
		if err != nil {
			return false
		}
		d := r1.NumComponents - r2.NumComponents
		return d == 0 || d == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertySamplingMonotone: a sampled subgraph never has fewer
// components than the original.
func TestPropertySamplingMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		g := GNM(60, 90, seed)
		full, err := ConnectedComponents(g, &Options{Algorithm: UnionFind})
		if err != nil {
			return false
		}
		s := SampleEdges(g, 0.5, seed)
		sub, err := ConnectedComponents(s, &Options{Algorithm: UnionFind})
		if err != nil {
			return false
		}
		return sub.NumComponents >= full.NumComponents
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyUnionAddsComponents: components(g1 ⊎ g2) = components(g1) +
// components(g2).
func TestPropertyUnionAddsComponents(t *testing.T) {
	f := func(s1, s2 uint64) bool {
		g1 := GNM(40, 50, s1)
		g2 := GNM(30, 25, s2)
		u := UnionGraphs(g1, g2)
		c1, err1 := ConnectedComponents(g1, &Options{Seed: 1})
		c2, err2 := ConnectedComponents(g2, &Options{Seed: 1})
		cu, err3 := ConnectedComponents(u, &Options{Seed: 1})
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return cu.NumComponents == c1.NumComponents+c2.NumComponents
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestPropertyAlgorithmsAgreePairwise: FLS, its known-gap pipeline and the
// CAS union-find induce the same partition on arbitrary random
// multigraphs.  The classical baselines are cross-checked in
// internal/bench's TestBaselineEquivalenceAcrossFamilies.
func TestPropertyAlgorithmsAgreePairwise(t *testing.T) {
	f := func(seed uint64) bool {
		g := GNM(64, 100, seed)
		a, err1 := ConnectedComponents(g, &Options{Algorithm: FLS, Seed: seed})
		b, err2 := ConnectedComponents(g, &Options{Algorithm: FLSKnownGap, Seed: seed})
		c, err3 := ConnectedComponents(g, &Options{Algorithm: CASUnite, Seed: seed})
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return samePartition(a.Labels, b.Labels) && samePartition(b.Labels, c.Labels)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// samePartition mirrors graph.SamePartition for the root package tests.
func samePartition(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[int32]int32{}
	bwd := map[int32]int32{}
	for i := range a {
		if x, ok := fwd[a[i]]; ok && x != b[i] {
			return false
		}
		fwd[a[i]] = b[i]
		if y, ok := bwd[b[i]]; ok && y != a[i] {
			return false
		}
		bwd[b[i]] = a[i]
	}
	return true
}
