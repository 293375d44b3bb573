package main

import (
	"fmt"
	"testing"

	"parcc/internal/baseline"
	"parcc/internal/cmdtest"
	"parcc/internal/graph"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// TestTourFindsThePartition: after the three stages the tour reports the
// BFS component count and an exact partition.
func TestTourFindsThePartition(t *testing.T) {
	truth := graph.NumLabels(baseline.BFSLabels(input()))
	out, stderr, code := cmdtest.Run(t)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if got, want := cmdtest.Field(t, out, "  components found:"), fmt.Sprintf("%d (truth: %d)", truth, truth); got != want {
		t.Errorf("components found: %q, BFS says %q", got, want)
	}
	if got := cmdtest.Field(t, out, "  exact partition:"); got != "true" {
		t.Errorf("exact partition: %q, want true", got)
	}
}
