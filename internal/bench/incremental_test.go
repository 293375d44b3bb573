package bench

import (
	"strconv"
	"strings"
	"testing"
)

// TestINCSpeedupAndShape: the small-scale INC experiment must produce the
// four workloads and show the insert-only live path beating cold
// re-solves (the full-scale acceptance bar is 5× at n=2^16; small scale
// must already clear 2× or the incremental path is broken).  The
// delete-dominated row compares the forest deletion path against the cold
// re-solve of the mutated graph and must clear a conservative 4× at small
// scale (the ≥10× acceptance verdict is recorded in the table notes for
// the published BENCH_inc.json runs).
func TestINCSpeedupAndShape(t *testing.T) {
	tab := INCIncrementalUpdates(Config{Scale: Small, Seed: 3})
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 workloads", len(tab.Rows))
	}
	if tab.Rows[0][0] != "insert-only" {
		t.Fatalf("first workload = %q", tab.Rows[0][0])
	}
	speedup, err := strconv.ParseFloat(tab.Rows[0][len(tab.Columns)-1], 64)
	if err != nil {
		t.Fatalf("speedup cell %q: %v", tab.Rows[0][len(tab.Columns)-1], err)
	}
	if speedup < 2 {
		t.Errorf("insert-only incremental speedup = %.2fx, want ≥ 2x even at small scale", speedup)
	}
	last := tab.Rows[3]
	if last[0] != "delete-dominated" {
		t.Fatalf("last workload = %q, want delete-dominated", last[0])
	}
	forestSpeedup, err := strconv.ParseFloat(last[len(tab.Columns)-1], 64)
	if err != nil {
		t.Fatalf("speedup cell %q: %v", last[len(tab.Columns)-1], err)
	}
	if forestSpeedup < 4 {
		t.Errorf("delete-dominated forest-vs-cold speedup = %.2fx, want ≥ 4x at small scale", forestSpeedup)
	}
	found := false
	for _, n := range tab.Notes {
		found = found || strings.Contains(n, "acceptance bar ≥10x")
	}
	if !found {
		t.Error("delete-dominated verdict note missing from the table")
	}
}

// TestTableJSON: the published BENCH_inc.json format is valid and carries
// the table contents.
func TestTableJSON(t *testing.T) {
	tab := &Table{ID: "X", Title: "t", Columns: []string{"a", "b"}}
	tab.Add("1", 2.5)
	tab.Note("n")
	j := tab.JSON()
	for _, want := range []string{`"id": "X"`, `"columns"`, `"2.5"`, `"notes"`} {
		if !strings.Contains(j, want) {
			t.Errorf("JSON missing %s in:\n%s", want, j)
		}
	}
}

func BenchmarkINCIncrementalUpdates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		INCIncrementalUpdates(Config{Scale: Small, Seed: 1})
	}
}
