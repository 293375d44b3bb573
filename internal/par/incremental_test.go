package par

import (
	"testing"

	"parcc/internal/graph"
)

// TestUniteBatchMergeCount: the reported merge count must equal the drop
// in the number of sets and the number of marked edges, under every procs
// count, with loops and parallel edges in the batch.
func TestUniteBatchMergeCount(t *testing.T) {
	edges := []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 0}, {U: 2, V: 3}, {U: 3, V: 4},
		{U: 5, V: 5}, {U: 6, V: 7}, {U: 0, V: 4},
	}
	for _, procs := range []int{1, 2, 4} {
		rt := New(Procs(procs))
		p := make([]int32, 9)
		for i := range p {
			p[i] = int32(i)
		}
		marks := make([]bool, len(edges))
		merges := UniteBatch(rt, p, edges, marks, nil)
		if merges != 5 { // {0,1}+{2,3,4} fuse into {0..4}; {6,7}; loop & dup no-ops
			t.Fatalf("procs=%d: merges = %d, want 5", procs, merges)
		}
		marked := 0
		for _, ok := range marks {
			if ok {
				marked++
			}
		}
		if marked != merges || marks[4] {
			t.Fatalf("procs=%d: marks = %v, want %d marked and the loop unmarked", procs, marks, merges)
		}
		Compress(rt, p)
		for _, pair := range [][2]int{{0, 4}, {2, 1}, {6, 7}} {
			if p[pair[0]] != p[pair[1]] {
				t.Fatalf("procs=%d: %d and %d not merged", procs, pair[0], pair[1])
			}
		}
		if p[5] != 5 || p[8] != 8 {
			t.Fatalf("procs=%d: singletons moved", procs)
		}
		rt.Close()
	}
}
