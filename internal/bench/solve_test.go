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
// algorithm and walks the list with step 1 + r mod 4 (len(solveAlgos)
// = 5 is prime, so every step visits each algorithm once), so over four
// rounds every algorithm follows each of the others: a solve that runs
// slower right after another algorithm's (cache and allocator state left
// by the one before) is not always charged to the same algorithm.  With
// step 1 alone, auto always followed frontier and union-find always
// followed cas, and auto read up to 1.5× union-find on the thread clock
// while both ran the very same pass.  The warm solves also check that
// the five partitions agree, so no ratio comes from a wrong answer.
//
// An algorithm whose solve runs wholly on the calling goroutine — the
// one-worker union-find at any procs (auto when it picks it), and every
// kernel at procs 1 — is also timed on its OS thread's CPU clock
// (timeOnThread), which a thread descheduled by host noise does not
// advance.  The pool kernels spread their work over other threads, so
// they have wall samples only.
func solveBursts(tb testing.TB, solvers map[parcc.Algorithm]*parcc.Solver, name string, g *graph.Graph, rounds, burst int) solveTimes {
	res := &parcc.Result{}
	var casLabels []int32
	st := solveTimes{wall: map[parcc.Algorithm][]float64{}, thread: map[parcc.Algorithm][]float64{}}
	onCaller := map[parcc.Algorithm]bool{}
	for _, a := range solveAlgos {
		if err := solvers[a].SolveInto(g, res); err != nil {
			tb.Fatal(err)
		}
		onCaller[a] = res.Algorithm == parcc.UnionFind || res.Procs == 1
		if a == parcc.CASUnite {
			casLabels = append(casLabels[:0], res.Labels...)
		} else if !graph.SamePartition(casLabels, res.Labels) {
			tb.Fatalf("%s: %s partition differs from cas", name, a)
		}
	}
	for r := 0; r < rounds; r++ {
		step := 1 + r%(len(solveAlgos)-1)
		for k := range solveAlgos {
			a := solveAlgos[(r+k*step)%len(solveAlgos)]
			for j := 0; j < burst; j++ {
				var err error
				if onCaller[a] {
					var wall, thread float64
					wall, thread, err = timeOnThread(func() error { return solvers[a].SolveInto(g, res) })
					st.wall[a] = append(st.wall[a], wall)
					st.thread[a] = append(st.thread[a], thread)
				} else {
					t0 := time.Now()
					err = solvers[a].SolveInto(g, res)
					st.wall[a] = append(st.wall[a], time.Since(t0).Seconds())
				}
				if err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	return st
}

// solveTimes is solveBursts' result: every algorithm's wall samples and,
// for the algorithms that solve on the calling goroutine only, their
// thread-clock samples, in seconds.
type solveTimes struct {
	wall, thread map[parcc.Algorithm][]float64
}

// ratio is a's median solve over b's, with the clock it was read on: the
// thread clock when both solve on the calling goroutine, the wall clock
// otherwise.
func (st solveTimes) ratio(a, b parcc.Algorithm) (float64, string) {
	if st.thread[a] != nil && st.thread[b] != nil {
		return median(st.thread[a]) / median(st.thread[b]), "thread"
	}
	return median(st.wall[a]) / median(st.wall[b]), "wall"
}

// timeOnThread runs f with its goroutine locked to the OS thread and
// returns f's wall time and the thread's CPU time (threadNow), in seconds.
func timeOnThread(f func() error) (wall, thread float64, err error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, t0 := threadNow(), time.Now()
	err = f()
	return time.Since(t0).Seconds(), (threadNow() - c0).Seconds(), err
}

// median returns the median of w (the upper one for an even count)
// without reordering w.
func median(w []float64) float64 {
	w = slices.Clone(w)
	slices.Sort(w)
	return w[len(w)/2]
}

// BenchmarkSolveFamilies is the raw-solve sweep: every generator family at
// n = 2^16 (the scale its bars bind at) solved by the five wall-clock
// algorithms — the cas union-find baseline, the one-worker union-find,
// the Afforest-style sampling fast path, the two-pass frontier engine
// and the auto dispatcher — on
// warm sessions of the concurrent backend with GOMAXPROCS procs (`-cpu`
// picks it), timed by solveBursts in 3 rounds of 3-solve bursts.  Wall
// times are per-algorithm medians, as in TestAutoWithinBestFixed: a
// minimum of sub-millisecond solves picks one lucky sample per algorithm,
// which read auto/best-max 1.4–1.9 although auto runs the very pass it is
// compared with.  It reports one metric per bar, recorded but not
// asserted here (TestAutoWithinBestFixed asserts the third at 2^15):
//
//   - sample/cas-min: cas wall over sample wall, the minimum over the
//     block/community families; bar ≥ 2;
//   - frontier/fix-min: the best other fixed algorithm's wall over
//     frontier's, the minimum over the path/grid/torus -xl cells; bar > 1.
//     On medians it read 0.20–0.29 (six runs, procs 2, 2-vCPU host):
//     the bar fails, since the one-worker union-find beats frontier on
//     the -xl cells, which is why Auto has no frontier row;
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
			walls := solveBursts(b, solvers, f.name, graphs[i], 3, 3).wall
			cas, sample := median(walls[parcc.CASUnite]), median(walls[parcc.Sample])
			frontier, auto := median(walls[parcc.Frontier]), median(walls[parcc.Auto])
			others := min(cas, median(walls[parcc.UnionFind]), sample)
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
// timed by solveBursts in 5 rounds of 3-solve bursts.  The fastest kernel
// is the one of least median wall time; the ratio is taken on the thread
// clock when auto's pick and that kernel both solve on the calling
// goroutine (union-find at any procs, any kernel at procs 1), which keeps
// host noise that deschedules the thread out of it, and on the wall clock
// otherwise.  A family over the
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
	for _, f := range solveFamilies(n, 1) {
		g := f.make()
		var ratio float64
		var best parcc.Algorithm
		var clock string
		for try := 0; try < attempts; try++ {
			st := solveBursts(t, solvers, f.name, g, 5, 3)
			best = parcc.CASUnite
			for _, a := range []parcc.Algorithm{parcc.UnionFind, parcc.Sample, parcc.Frontier} {
				if median(st.wall[a]) < median(st.wall[best]) {
					best = a
				}
			}
			ratio, clock = st.ratio(parcc.Auto, best)
			if ratio <= 1.1 {
				break
			}
		}
		t.Logf("%-16s auto/%s = %.3f (%s clock)", f.name, best, ratio, clock)
		if ratio > 1.1 {
			t.Errorf("%s: median auto solve is %.2f× the fastest fixed kernel (%s, %s clock) in all %d attempts, want ≤ 1.1×",
				f.name, ratio, best, clock, attempts)
		}
	}
}
