package labeled

import (
	"testing"
	"testing/quick"

	"parcc/internal/graph"
	"parcc/internal/pram"
	"parcc/internal/pram/pramtest"
)

func TestNewForestIsFlat(t *testing.T) {
	f := New(10)
	for v := int32(0); v < 10; v++ {
		if !f.IsRoot(v) {
			t.Fatal("fresh forest should be all roots")
		}
	}
	if f.MaxHeight() != 0 {
		t.Fatal("fresh forest height should be 0")
	}
}

func TestRootChase(t *testing.T) {
	f := New(5)
	f.P[3] = 2
	f.P[2] = 1
	f.P[1] = 0
	if f.Root(3) != 0 {
		t.Fatalf("Root(3) = %d", f.Root(3))
	}
	if f.Root(4) != 4 {
		t.Fatal("isolated root should be itself")
	}
}

func TestAlterMovesAndDropsLoops(t *testing.T) {
	m := pramtest.New(t, 0)
	f := New(6)
	f.P[1] = 0
	f.P[2] = 0
	E := []graph.Edge{{U: 1, V: 2}, {U: 1, V: 3}, {U: 4, V: 5}}
	out := Alter(m, f, E)
	// (1,2) -> (0,0) loop dropped; (1,3) -> (0,3); (4,5) unchanged
	if len(out) != 2 {
		t.Fatalf("alter kept %d edges, want 2", len(out))
	}
	if out[0] != (graph.Edge{U: 0, V: 3}) {
		t.Fatalf("altered edge = %v", out[0])
	}
}

func TestAlterKeepRetainsLoops(t *testing.T) {
	m := pramtest.New(t, 0)
	f := New(4)
	f.P[1] = 0
	E := []graph.Edge{{U: 0, V: 1}}
	AlterKeep(m, f, E)
	if E[0] != (graph.Edge{U: 0, V: 0}) {
		t.Fatalf("altered = %v", E[0])
	}
}

func TestShortcutHalvesDepth(t *testing.T) {
	m := pramtest.New(t, 0)
	f := New(8)
	for v := 1; v < 8; v++ {
		f.P[v] = int32(v - 1) // chain of depth 7
	}
	h0 := f.MaxHeight()
	ShortcutAll(m, f)
	if f.MaxHeight() >= h0 {
		t.Fatal("shortcut must reduce height")
	}
	FlattenAll(m, f)
	if f.MaxHeight() > 1 {
		t.Fatalf("flatten left height %d", f.MaxHeight())
	}
	for v := int32(0); v < 8; v++ {
		if f.Root(v) != 0 {
			t.Fatal("flatten changed roots")
		}
	}
}

func TestShortcutSubset(t *testing.T) {
	m := pramtest.New(t, 0)
	f := New(4)
	f.P[3] = 2
	f.P[2] = 1
	Shortcut(m, f, []int32{3})
	if f.P[3] != 1 {
		t.Fatalf("p[3] = %d, want 1", f.P[3])
	}
	if f.P[2] != 1 {
		t.Fatal("untouched vertex changed")
	}
}

func TestLabels(t *testing.T) {
	f := New(6)
	f.P[1] = 0
	f.P[2] = 1 // height 2: labels must still resolve to 0
	f.P[4] = 5
	l := f.Labels()
	want := []int32{0, 0, 0, 3, 5, 5}
	for i := range want {
		if l[i] != want[i] {
			t.Fatalf("labels = %v, want %v", l, want)
		}
	}
}

func TestLabelsDeepChain(t *testing.T) {
	n := 50000
	f := New(n)
	for v := 1; v < n; v++ {
		f.P[v] = int32(v - 1)
	}
	l := f.Labels()
	for v := 0; v < n; v++ {
		if l[v] != 0 {
			t.Fatalf("deep chain label[%d] = %d", v, l[v])
		}
	}
}

func TestSnapshotRestore(t *testing.T) {
	f := New(4)
	sub := make([]int32, 2)
	f.SnapshotOfInto([]int32{1, 3}, sub)
	f.P[1] = 0
	f.P[3] = 0
	f.RestoreOf([]int32{1, 3}, sub)
	if f.P[1] != 1 || f.P[3] != 3 {
		t.Fatal("partial restore failed")
	}
}

func TestCheckAcyclic(t *testing.T) {
	f := New(4)
	f.P[1] = 2
	f.P[2] = 1 // 2-cycle among non-roots
	if f.CheckAcyclic() == nil {
		t.Fatal("cycle not detected")
	}
	g := New(4)
	g.P[1] = 0
	if err := g.CheckAcyclic(); err != nil {
		t.Fatalf("false positive: %v", err)
	}
}

func TestCheckEdgesOnRoots(t *testing.T) {
	f := New(4)
	f.P[1] = 0
	E := []graph.Edge{{U: 1, V: 2}}
	if CheckEdgesOnRoots(f, E) == nil {
		t.Fatal("non-root end not detected")
	}
	if err := CheckEdgesOnRoots(f, []graph.Edge{{U: 0, V: 2}}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckSameComponent(t *testing.T) {
	f := New(4)
	truth := []int32{0, 0, 2, 2}
	f.P[1] = 0
	if err := CheckSameComponent(f, truth); err != nil {
		t.Fatal(err)
	}
	f.P[2] = 0 // crosses components
	if CheckSameComponent(f, truth) == nil {
		t.Fatal("cross-component parent not detected")
	}
}

func TestRoots(t *testing.T) {
	f := New(5)
	f.P[1] = 0
	f.P[3] = 4
	all := f.Roots(nil)
	if len(all) != 3 {
		t.Fatalf("roots = %v", all)
	}
	some := f.Roots([]int32{0, 1, 3, 4})
	if len(some) != 2 {
		t.Fatalf("subset roots = %v", some)
	}
}

func TestFlattenAllProperty(t *testing.T) {
	// Any acyclic parent assignment flattens to the same root labels.
	f := func(seed int64) bool {
		n := 64
		fo := New(n)
		// build random forest: p[v] < v or v itself
		s := uint64(seed)
		for v := 1; v < n; v++ {
			s = pram.SplitMix64(s)
			if s&1 == 0 {
				fo.P[v] = int32(s % uint64(v))
			}
		}
		want := fo.Labels()
		m := pramtest.New(t, 0)
		FlattenAll(m, fo)
		if fo.MaxHeight() > 1 {
			return false
		}
		got := fo.Labels()
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
