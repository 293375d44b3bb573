package main

import (
	"runtime"

	"parcc"
	"parcc/internal/baseline"
	"parcc/internal/graph"
)

// checkLabels verifies a labeling of g against a sequential BFS
// (parcc.Verify).  The labels pass through cfg.corrupt first, so the
// self-tests can prove a wrong partition fails the run.
func checkLabels(cfg *config, rep *report, what string, g *parcc.Graph, labels []int32) {
	rep.checks++
	if cfg.corrupt != nil {
		labels = append([]int32(nil), labels...)
		cfg.corrupt(labels)
	}
	if len(labels) != g.N || !parcc.Verify(g, labels) {
		rep.fail("%s: labels do not match the BFS partition", what)
	}
}

// checkPartition compares an observed partition with the oracle's.
func checkPartition(cfg *config, rep *report, what string, want, got []int32) {
	rep.checks++
	if cfg.corrupt != nil {
		got = append([]int32(nil), got...)
		cfg.corrupt(got)
	}
	if len(want) != len(got) || !graph.SamePartition(want, got) {
		rep.fail("%s: partition differs from the oracle's", what)
	}
}

// referenceComponents counts g's components with the sequential oracle.
func referenceComponents(g *parcc.Graph) int {
	labels := baseline.UnionFindLabels(g)
	seen := map[int32]bool{}
	for _, l := range labels {
		seen[l] = true
	}
	return len(seen)
}

// gcPauseP99 is the p99 stop-the-world pause, in microseconds, of the
// collections between two MemStats reads (the runtime keeps the last 256).
func gcPauseP99(a, b *runtime.MemStats) float64 {
	var pauses []float64
	lo := a.NumGC + 1
	if b.NumGC > 256 {
		lo = max(lo, b.NumGC-255)
	}
	for k := lo; k <= b.NumGC; k++ {
		pauses = append(pauses, float64(b.PauseNs[(k+255)%256])/1e3)
	}
	return quantile(pauses, 0.99)
}
