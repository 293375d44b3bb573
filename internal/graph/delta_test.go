package graph

import (
	"math/rand"
	"testing"
)

func randomGraph(n, m int, rng *rand.Rand) *Graph {
	g := New(n)
	for i := 0; i < m; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return g
}

// TestExtendPlanMatchesFullBuild: the extended CSR must be byte-identical
// to a from-scratch BuildCSR of the grown graph — offsets and neighbor
// order — and carry a fingerprint that still validates.
func TestExtendPlanMatchesFullBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(200)
		g := randomGraph(n, rng.Intn(3*n), rng)
		p := NewPlan(g)
		// Grow in two rounds to exercise chained extension.
		for round := 0; round < 2; round++ {
			k := 1 + rng.Intn(2*n)
			for i := 0; i < k; i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if rng.Intn(6) == 0 {
					v = u // self-loop
				}
				g.AddEdge(u, v)
			}
			np := ExtendPlanOn(nil, p, g)
			if np == nil {
				t.Fatalf("trial %d round %d: extension refused", trial, round)
			}
			want := BuildCSR(g)
			if len(np.CSR.Off) != len(want.Off) || len(np.CSR.Nbr) != len(want.Nbr) {
				t.Fatalf("trial %d: CSR shape differs", trial)
			}
			for i := range want.Off {
				if np.CSR.Off[i] != want.Off[i] {
					t.Fatalf("trial %d: Off[%d] = %d, want %d", trial, i, np.CSR.Off[i], want.Off[i])
				}
			}
			for i := range want.Nbr {
				if np.CSR.Nbr[i] != want.Nbr[i] {
					t.Fatalf("trial %d: Nbr[%d] = %d, want %d", trial, i, np.CSR.Nbr[i], want.Nbr[i])
				}
			}
			if !np.Valid() {
				t.Fatalf("trial %d: extended plan's carried fingerprint does not validate", trial)
			}
			p = np
		}
	}
}

// TestExtendPlanRefusals: extension must return nil whenever the prefix
// contract cannot hold.
func TestExtendPlanRefusals(t *testing.T) {
	g := FromPairs(4, [][2]int{{0, 1}, {1, 2}})
	p := NewPlan(g)
	if ExtendPlanOn(nil, p, g) != nil {
		t.Error("nothing appended: must refuse")
	}
	other := FromPairs(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if ExtendPlanOn(nil, p, other) != nil {
		t.Error("different graph: must refuse")
	}
	g.Edges = g.Edges[:1]
	if ExtendPlanOn(nil, p, g) != nil {
		t.Error("edges removed: must refuse")
	}
	if ExtendPlanOn(nil, nil, g) != nil {
		t.Error("nil plan: must refuse")
	}
}

// TestExtendPlanDetectsPrefixMutation: the carried fingerprint is the
// prefix's fold, so a mutated prefix makes the extended plan invalid under
// the default (untrusting) validation.
func TestExtendPlanDetectsPrefixMutation(t *testing.T) {
	g := FromPairs(5, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	p := NewPlan(g)
	g.Edges[0] = Edge{U: 2, V: 3} // in-place prefix mutation
	g.AddEdge(0, 4)
	np := ExtendPlanOn(nil, p, g)
	if np == nil {
		t.Fatal("extension itself proceeds (it trusts the prefix)")
	}
	if np.Valid() {
		t.Fatal("Valid must catch the mutated prefix behind an extension")
	}
	if !np.ValidQuick() {
		t.Fatal("ValidQuick (TrustGraph) sees matching lengths by design")
	}
}

// TestInducedInto: compact relabeling, +1 vmap convention, and backing
// reuse.
func TestInducedInto(t *testing.T) {
	g := FromPairs(6, [][2]int{{0, 1}, {1, 0}, {2, 2}, {3, 4}, {4, 5}})
	vmap := make([]int32, 6)
	// Select {0,1,2} -> compact ids 0,1,2: edges (0,1), (1,0), loop at 2.
	vmap[0], vmap[1], vmap[2] = 1, 2, 3
	sub := InducedInto(g, vmap, 3, nil)
	if sub.N != 3 || sub.M() != 3 {
		t.Fatalf("sub = (n=%d, m=%d), want (3, 3)", sub.N, sub.M())
	}
	if sub.Edges[0] != (Edge{U: 0, V: 1}) || sub.Edges[1] != (Edge{U: 1, V: 0}) || sub.Edges[2] != (Edge{U: 2, V: 2}) {
		t.Fatalf("sub edges = %v", sub.Edges)
	}
	// Reuse: the smaller selection {3,4,5} fits the warm backing.
	clear(vmap)
	for i, v := range []int32{3, 4, 5} {
		vmap[v] = int32(i) + 1
	}
	before := &sub.Edges[0]
	sub2 := InducedInto(g, vmap, 3, sub)
	if sub2 != sub || &sub2.Edges[0] != before {
		t.Fatal("InducedInto must reuse the provided backing")
	}
	if sub2.M() != 2 || sub2.Edges[0] != (Edge{U: 0, V: 1}) || sub2.Edges[1] != (Edge{U: 1, V: 2}) {
		t.Fatalf("reused sub edges = %v", sub2.Edges)
	}
}
