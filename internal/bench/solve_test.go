package bench

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"parcc"
	"parcc/internal/graph"
)

// solveAlgos are the five wall-clock algorithms the solve sweep compares:
// the four fixed kernels (cas first, the partition the others are checked
// against), then the auto dispatcher.
var solveAlgos = []parcc.Algorithm{parcc.CASUnite, parcc.UnionFind, parcc.Sample, parcc.Frontier, parcc.Auto}

// solveSessions opens one warm session per algorithm of solveAlgos on the
// concurrent backend with GOMAXPROCS procs.  The sweep never mutates a
// graph after generating it, so TrustGraph skips the O(m) per-solve
// fingerprint revalidation, which would only blur the kernel costs being
// compared.  The sessions close when the test ends.
func solveSessions(tb testing.TB) map[parcc.Algorithm]*parcc.Solver {
	solvers := map[parcc.Algorithm]*parcc.Solver{}
	for _, a := range solveAlgos {
		s, err := parcc.NewSolver(&parcc.Options{
			Algorithm: a, Backend: parcc.BackendConcurrent, Procs: runtime.GOMAXPROCS(0), Seed: 1,
			TrustGraph: true,
		})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(s.Close)
		solvers[a] = s
	}
	return solvers
}

// solveBursts times the warm solves of g on every session: each is
// warmed once untimed (plan cache, label buffers), then the algorithms
// take turns in `rounds` rounds of `burst`-solve bursts, so machine-wide
// drift lands on every algorithm alike.  Round r starts at the r-th
// algorithm, so over len(solveAlgos) rounds every algorithm runs in every
// position: a solve that runs slower right after another algorithm's
// (cache and allocator state left by the one before) is not always
// charged to the same algorithm.  The warm solves also check that
// the five partitions agree, so no ratio comes from a wrong answer.
// Returns each algorithm's wall samples in seconds.
func solveBursts(tb testing.TB, solvers map[parcc.Algorithm]*parcc.Solver, name string, g *graph.Graph, rounds, burst int) map[parcc.Algorithm][]float64 {
	res := &parcc.Result{}
	var casLabels []int32
	for _, a := range solveAlgos {
		if err := solvers[a].SolveInto(g, res); err != nil {
			tb.Fatal(err)
		}
		if a == parcc.CASUnite {
			casLabels = append(casLabels[:0], res.Labels...)
		} else if !graph.SamePartition(casLabels, res.Labels) {
			tb.Fatalf("%s: %s partition differs from cas", name, a)
		}
	}
	walls := map[parcc.Algorithm][]float64{}
	for r := 0; r < rounds; r++ {
		for k := range solveAlgos {
			a := solveAlgos[(r+k)%len(solveAlgos)]
			for j := 0; j < burst; j++ {
				t0 := time.Now()
				if err := solvers[a].SolveInto(g, res); err != nil {
					tb.Fatal(err)
				}
				walls[a] = append(walls[a], time.Since(t0).Seconds())
			}
		}
	}
	return walls
}

// BenchmarkSolveFamilies is the raw-solve sweep: every generator family at
// n = 2^16 (the scale its bars bind at) solved by the five wall-clock
// algorithms — the cas union-find baseline, the one-worker union-find,
// the Afforest-style sampling fast path, the two-pass frontier engine
// and the auto dispatcher — on
// warm sessions of the concurrent backend with GOMAXPROCS procs (`-cpu`
// picks it), timed by solveBursts in 3 rounds of 3-solve bursts.  Wall
// times are per-algorithm minima.  It reports one metric per bar,
// recorded but not asserted here (TestAutoWithinBestFixed asserts the
// third at 2^15 on medians):
//
//   - sample/cas-min: cas wall over sample wall, the minimum over the
//     block/community families; bar ≥ 2;
//   - frontier/fix-min: the best other fixed algorithm's wall over
//     frontier's, the minimum over the path/grid/torus -xl cells; bar > 1.
//     Against the splicing cas it measured 0.83 and 0.95 (two runs, procs
//     2, 2-vCPU host): the bar fails, since cas beats frontier on path-xl
//     at every procs and on all three -xl cells at procs 1, which is why
//     Auto has no frontier row;
//   - auto/best-max: auto wall over the best fixed algorithm's, the
//     maximum over all families; bar ≤ 1.1.
func BenchmarkSolveFamilies(b *testing.B) {
	const n = 1 << 16
	solvers := solveSessions(b)
	fams := solveFamilies(n, 1)
	graphs := make([]*graph.Graph, len(fams))
	for i, f := range fams {
		graphs[i] = f.make()
	}
	for b.Loop() {
		sampleMin, frontierMin, autoMax := math.Inf(1), math.Inf(1), 0.0
		for i, f := range fams {
			walls := solveBursts(b, solvers, f.name, graphs[i], 3, 3)
			cas, sample := slices.Min(walls[parcc.CASUnite]), slices.Min(walls[parcc.Sample])
			frontier, auto := slices.Min(walls[parcc.Frontier]), slices.Min(walls[parcc.Auto])
			others := min(cas, slices.Min(walls[parcc.UnionFind]), sample)
			switch {
			case f.barred:
				sampleMin = math.Min(sampleMin, cas/sample)
			case f.hidiam:
				frontierMin = math.Min(frontierMin, others/frontier)
			}
			autoMax = math.Max(autoMax, auto/math.Min(frontier, others))
		}
		b.ReportMetric(sampleMin, "sample/cas-min")
		b.ReportMetric(frontierMin, "frontier/fix-min")
		b.ReportMetric(autoMax, "auto/best-max")
	}
}

// TestAutoWithinBestFixed asserts the auto/best-max bar: on every
// generator family at n = 2^15, the median warm auto solve is within 1.1×
// of the median of the fastest fixed kernel (cas, union-find, sample or
// frontier),
// timed by solveBursts in 5 rounds of 3-solve bursts.  A family over the
// bar is re-timed up to twice more and passes if any attempt is within
// it: a dispatch-table error is a gap every attempt reproduces (the
// table with a frontier row read 1.2–1.7 on grid, torus and the three
// -xl cells in all attempts), while a lone burst of host noise is not.
func TestAutoWithinBestFixed(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock bar: ~5 s of warm solves")
	}
	const n, attempts = 1 << 15, 3
	solvers := solveSessions(t)
	median := func(w []float64) float64 {
		w = slices.Clone(w)
		slices.Sort(w)
		return w[len(w)/2]
	}
	for _, f := range solveFamilies(n, 1) {
		g := f.make()
		var ratio float64
		var best parcc.Algorithm
		for try := 0; try < attempts; try++ {
			walls := solveBursts(t, solvers, f.name, g, 5, 3)
			best = parcc.CASUnite
			for _, a := range []parcc.Algorithm{parcc.UnionFind, parcc.Sample, parcc.Frontier} {
				if median(walls[a]) < median(walls[best]) {
					best = a
				}
			}
			ratio = median(walls[parcc.Auto]) / median(walls[best])
			if ratio <= 1.1 {
				break
			}
		}
		t.Logf("%-16s auto/%s = %.3f", f.name, best, ratio)
		if ratio > 1.1 {
			t.Errorf("%s: median auto solve is %.2f× the fastest fixed kernel (%s) in all %d attempts, want ≤ 1.1×",
				f.name, ratio, best, attempts)
		}
	}
}
