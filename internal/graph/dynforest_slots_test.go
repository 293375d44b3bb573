package graph

import "testing"

// First and NextIncident walk x's incidence list by handle, for the
// tests that check list membership by position: First returns the handle
// of x's first entry and NextIncident the one after h in x's list (-1 at
// the end, since -1 >> 1 is -1; h must be incident to x).
func (df *DynForest) First(x int32) int32 { return Handle(df.head[x]) }

func (df *DynForest) NextIncident(x, h int32) int32 {
	s := 2 * h
	if df.g.Edges[h].U != x {
		s++
	}
	return Handle(df.next[s])
}

// TestDynForestSlotEdgeCases pins the slot links on the shapes where a
// slot, not a handle, decides the outcome: a self-loop takes one slot
// (its second is on no list), and swap-remove re-homes the moving edge's
// slots correctly when the removed edge is the last one, when either the
// removed or the moved edge is a loop, and when the moved edge sits next
// to the removed one on a list (parallel copies, loops at one vertex).
// checkIndex verifies every list, both links and the loop slots after
// each step.
func TestDynForestSlotEdgeCases(t *testing.T) {
	g := FromPairs(4, [][2]int{{0, 1}, {2, 2}, {0, 1}, {1, 0}, {2, 2}, {3, 2}, {2, 2}})
	df := NewDynForest(g, []bool{true, false, false, false, false, true, false})
	check := func(step string) {
		t.Helper()
		if err := df.checkIndex(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	check("fresh")
	// Three loops at 2 and {3,2}: vertex 2 lists four entries, each loop
	// once, all through slot 2h.
	loops := 0
	for s := df.Head(2); s >= 0; s = df.Next(s) {
		if e := g.Edges[Handle(s)]; e.U == e.V {
			loops++
			if s&1 != 0 || df.Far(s) != 2 {
				t.Fatalf("loop %d listed through slot %d (far %d), want its first slot", Handle(s), s, df.Far(s))
			}
		}
	}
	if loops != 3 {
		t.Fatalf("vertex 2 lists %d loop entries, want 3", loops)
	}
	steps := []struct {
		name string
		h    int32
		want Edge // the last edge, which moves into the hole; none when h is last
	}{
		{"remove the last edge, a loop", 6, Edge{}},
		{"remove a loop; the non-loop next to it on 2's list moves in", 4, Edge{U: 3, V: 2}},
		{"remove the last edge, a non-loop", 4, Edge{}},
		{"remove a copy; its twin, next to it on both lists, moves in", 2, Edge{U: 1, V: 0}},
		{"remove a non-loop; a non-loop moves in", 0, Edge{U: 1, V: 0}},
		{"remove a non-loop; a loop moves in", 0, Edge{U: 2, V: 2}},
		{"remove the only edge, a loop", 0, Edge{}},
	}
	for _, st := range steps {
		last := Edge{}
		if int(st.h) < df.M()-1 {
			last = g.Edges[df.M()-1]
		}
		df.Remove(st.h)
		check(st.name)
		if last != st.want {
			t.Fatalf("%s: moved edge %v, want %v", st.name, last, st.want)
		}
		if last != (Edge{}) && g.Edges[st.h] != last {
			t.Fatalf("%s: hole %d holds %v, want the moved %v", st.name, st.h, g.Edges[st.h], last)
		}
	}
	if df.M() != 0 {
		t.Fatalf("left %v, want none", g.Edges)
	}
	check("emptied")
	for x := range int32(g.N) {
		if df.Head(x) != -1 {
			t.Fatalf("vertex %d keeps slot %d after the store emptied", x, df.Head(x))
		}
	}
}
