package par

import (
	"slices"
	"testing"

	"parcc/internal/graph"
)

// TestSnapshotLabels checks the publish kernel (SnapshotPages) against a
// sequential reference on a forest built by UniteBatch: every label
// slot holds v's root, the size slots count each root's component
// exactly, and p itself is not mutated beyond what the chases read.
func TestSnapshotLabels(t *testing.T) {
	for _, procs := range []int{1, 4} {
		e := New(Procs(procs))
		defer e.Close()

		n := 500
		g := graph.New(n)
		for i := 0; i < n-1; i += 2 {
			g.AddEdge(i, i+1)
		}
		for i := 0; i+10 < n; i += 10 {
			g.AddEdge(i, i+10)
		}
		p := make([]int32, n)
		for v := range p {
			p[v] = int32(v)
		}
		UniteBatch(e, p, g.Edges, make([]bool, g.M()), nil)

		before := make([]int32, n)
		copy(before, p)

		// Pages of 64 with a ragged last page: flatten them back to dense
		// arrays for the checks below.
		const pageSize = 64
		pages := (n + pageSize - 1) / pageSize
		lpages, spages := make([][]int32, pages), make([][]int32, pages)
		for i := range lpages {
			lpages[i], spages[i] = make([]int32, pageSize), make([]int32, pageSize)
		}
		SnapshotPages(e, p, pageSize, lpages, spages)
		dst := slices.Concat(lpages...)[:n]
		sizes := slices.Concat(spages...)[:n]

		// The forest is untouched (the kernel only reads p).
		for v := range p {
			if p[v] != before[v] {
				t.Fatalf("procs=%d: kernel mutated p[%d]: %d -> %d", procs, v, before[v], p[v])
			}
		}
		// dst matches sequential root-chasing, and sizes tally exactly.
		want := make([]int32, n)
		total := int32(0)
		for v := 0; v < n; v++ {
			want[v] = chase(p, int32(v))
			if dst[v] != want[v] {
				t.Fatalf("procs=%d: dst[%d] = %d, want root %d", procs, v, dst[v], want[v])
			}
			total += sizes[v]
		}
		if int(total) != n {
			t.Fatalf("procs=%d: sizes sum to %d, want %d", procs, total, n)
		}
		count := make([]int32, n)
		for v := 0; v < n; v++ {
			count[want[v]]++
		}
		for v := 0; v < n; v++ {
			if sizes[v] != count[v] {
				t.Fatalf("procs=%d: sizes[%d] = %d, want %d", procs, v, sizes[v], count[v])
			}
		}
	}
}
