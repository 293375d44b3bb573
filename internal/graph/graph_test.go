package graph

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestNewAndAddEdge(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(4, 4)
	if g.N != 5 || g.M() != 2 {
		t.Fatalf("n=%d m=%d", g.N, g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	g := New(2)
	g.Edges = append(g.Edges, Edge{U: 0, V: 5})
	if g.Validate() == nil {
		t.Fatal("expected validation error")
	}
}

func TestFromPairs(t *testing.T) {
	g := FromPairs(3, [][2]int{{0, 1}, {1, 2}})
	if g.M() != 2 {
		t.Fatalf("m=%d", g.M())
	}
}

func TestClone(t *testing.T) {
	g := FromPairs(3, [][2]int{{0, 1}})
	h := g.Clone()
	h.AddEdge(1, 2)
	if g.M() != 1 || h.M() != 2 {
		t.Fatal("clone must not share edge storage")
	}
}

func TestDegreesSelfLoopCountsOnce(t *testing.T) {
	// §2.1: each self-loop counts once toward the degree.
	g := FromPairs(3, [][2]int{{0, 0}, {0, 1}, {1, 2}, {2, 2}})
	deg := g.Degrees()
	want := []int32{2, 2, 2}
	for i := range want {
		if deg[i] != want[i] {
			t.Fatalf("deg = %v, want %v", deg, want)
		}
	}
}

func TestBuildCSR(t *testing.T) {
	g := FromPairs(4, [][2]int{{0, 1}, {1, 2}, {3, 3}, {0, 1}})
	c := BuildCSR(g)
	if c.Deg(0) != 2 || c.Deg(1) != 3 || c.Deg(2) != 1 {
		t.Fatalf("degrees: %d %d %d", c.Deg(0), c.Deg(1), c.Deg(2))
	}
	// self-loop appears once
	if c.Deg(3) != 1 || c.Neighbors(3)[0] != 3 {
		t.Fatalf("self-loop adjacency wrong: %v", c.Neighbors(3))
	}
}

// TestCanonKeyReversedParallelEdges is the regression test for the
// canonical edge key: parallel edges recorded in opposite orientations
// must share one key, including at vertex ids large enough to exercise
// the packed key's word boundaries, and distinct edges must not.
func TestCanonKeyReversedParallelEdges(t *testing.T) {
	n := 1 << 21
	big := int32(n - 1)
	g := FromPairs(n, [][2]int{
		{3, 9}, {9, 3}, {9, 3}, {3, 9},
		{0, int(big)}, {int(big), 0},
		{int(big) - 1, int(big)}, {int(big), int(big) - 1},
	})
	keys := map[int64]int{}
	for _, e := range g.Edges {
		keys[e.CanonKey()]++
	}
	want := map[Edge]int{{U: 3, V: 9}: 4, {U: 0, V: big}: 2, {U: big - 1, V: big}: 2}
	if len(keys) != len(want) {
		t.Fatalf("%d distinct keys, want %d (reversed parallels must share a key)", len(keys), len(want))
	}
	for e, c := range want {
		if keys[e.CanonKey()] != c {
			t.Errorf("key of %v counted %d times, want %d", e, keys[e.CanonKey()], c)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := FromPairs(6, [][2]int{{0, 1}, {2, 3}, {4, 4}, {5, 0}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N != g.N || h.M() != g.M() {
		t.Fatalf("round trip changed size: n=%d m=%d", h.N, h.M())
	}
	for i := range g.Edges {
		if g.Edges[i] != h.Edges[i] {
			t.Fatal("round trip changed edges")
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(bytes.NewBufferString("")); err == nil {
		t.Error("empty input should error")
	}
	if _, err := ReadEdgeList(bytes.NewBufferString("2 1\n0")); err == nil {
		t.Error("truncated edge should error")
	}
	if _, err := ReadEdgeList(bytes.NewBufferString("-1 0\n")); err == nil {
		t.Error("negative n should error")
	}
	if _, err := ReadEdgeList(bytes.NewBufferString("2 1\n0 7\n")); err == nil {
		t.Error("out-of-range endpoint should error")
	}
}

func TestSamePartition(t *testing.T) {
	a := []int32{0, 0, 2, 2}
	b := []int32{5, 5, 9, 9}
	if !SamePartition(a, b) {
		t.Error("relabeled identical partitions should match")
	}
	c := []int32{0, 0, 0, 2}
	if SamePartition(a, c) {
		t.Error("different partitions should not match")
	}
	if SamePartition(a, []int32{0}) {
		t.Error("length mismatch should not match")
	}
	// Injectivity both ways: merging in either direction must fail.
	if SamePartition([]int32{0, 1}, []int32{0, 0}) {
		t.Error("coarser partition should not match")
	}
	if SamePartition([]int32{0, 0}, []int32{0, 1}) {
		t.Error("finer partition should not match")
	}
}

func TestSamePartitionReflexive(t *testing.T) {
	f := func(labels []int32) bool {
		return SamePartition(labels, labels)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComponentsOf(t *testing.T) {
	comps := ComponentsOf([]int32{7, 7, 3, 3, 3})
	if len(comps) != 2 {
		t.Fatalf("got %d components", len(comps))
	}
	if comps[0][0] != 0 || comps[1][0] != 2 {
		t.Fatalf("components not sorted by smallest member: %v", comps)
	}
}

func TestNumLabels(t *testing.T) {
	if NumLabels([]int32{1, 1, 2, 3}) != 3 {
		t.Error("NumLabels wrong")
	}
	if NumLabels(nil) != 0 {
		t.Error("NumLabels(nil) should be 0")
	}
}
