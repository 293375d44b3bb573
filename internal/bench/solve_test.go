package bench

import (
	"math"
	"runtime"
	"testing"
	"time"

	"parcc"
	"parcc/internal/graph"
)

// BenchmarkSolveFamilies is the raw-solve sweep: every generator family at
// n = 2^16 (the scale its bars bind at) solved by the four wall-clock
// algorithms — the cas union-find baseline, the Afforest-style sampling
// fast path, the two-pass frontier engine and the auto dispatcher — on
// warm sessions of the concurrent backend with GOMAXPROCS procs (`-cpu`
// picks it).  It reports one metric per bar, recorded but not asserted
// (wall-clock ratios on a shared host are too noisy to gate on):
//
//   - sample/cas-min: cas wall over sample wall, the minimum over the
//     block/community families; bar ≥ 2;
//   - frontier/fix-min: the best other fixed algorithm's wall over
//     frontier's, the minimum over the path/grid/torus -xl cells; bar > 1;
//   - auto/best-max: auto wall over the best fixed algorithm's, the
//     maximum over all families; bar ≤ 1.1.
//
// Wall times are per-algorithm minima: each session is warmed once
// untimed (plan cache, label buffers), then the algorithms take turns in
// 3 rounds of 3-solve bursts, so machine-wide drift lands on every
// algorithm alike.  The warm solves also check that the four partitions
// agree, so no ratio comes from a wrong answer.
func BenchmarkSolveFamilies(b *testing.B) {
	const n = 1 << 16
	algos := []parcc.Algorithm{parcc.CASUnite, parcc.Sample, parcc.Frontier, parcc.Auto}
	solvers := map[parcc.Algorithm]*parcc.Solver{}
	for _, a := range algos {
		s, err := parcc.NewSolver(&parcc.Options{
			Algorithm: a, Backend: parcc.BackendConcurrent, Procs: runtime.GOMAXPROCS(0), Seed: 1,
			// The sweep never mutates a graph after generating it, so the
			// O(m) per-solve fingerprint revalidation would only blur the
			// kernel costs being compared.
			TrustGraph: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		solvers[a] = s
	}
	fams := solveFamilies(n, 1)
	graphs := make([]*graph.Graph, len(fams))
	for i, f := range fams {
		graphs[i] = f.make()
	}
	res := &parcc.Result{}
	for b.Loop() {
		sampleMin, frontierMin, autoMax := math.Inf(1), math.Inf(1), 0.0
		for i, f := range fams {
			g := graphs[i]
			wall := map[parcc.Algorithm]float64{}
			var casLabels []int32
			for _, a := range algos {
				if err := solvers[a].SolveInto(g, res); err != nil {
					b.Fatal(err)
				}
				if a == parcc.CASUnite {
					casLabels = append(casLabels[:0], res.Labels...)
				} else if !graph.SamePartition(casLabels, res.Labels) {
					b.Fatalf("%s: %s partition differs from cas", f.name, a)
				}
				wall[a] = math.Inf(1)
			}
			const rounds, burst = 3, 3
			for r := 0; r < rounds; r++ {
				for _, a := range algos {
					for j := 0; j < burst; j++ {
						t0 := time.Now()
						if err := solvers[a].SolveInto(g, res); err != nil {
							b.Fatal(err)
						}
						wall[a] = math.Min(wall[a], time.Since(t0).Seconds())
					}
				}
			}
			cas, sample, frontier := wall[parcc.CASUnite], wall[parcc.Sample], wall[parcc.Frontier]
			switch {
			case f.barred:
				sampleMin = math.Min(sampleMin, cas/sample)
			case f.hidiam:
				frontierMin = math.Min(frontierMin, math.Min(cas, sample)/frontier)
			}
			autoMax = math.Max(autoMax, wall[parcc.Auto]/math.Min(frontier, math.Min(cas, sample)))
		}
		b.ReportMetric(sampleMin, "sample/cas-min")
		b.ReportMetric(frontierMin, "frontier/fix-min")
		b.ReportMetric(autoMax, "auto/best-max")
	}
}
