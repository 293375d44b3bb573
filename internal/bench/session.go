package bench

import (
	"runtime"
	"time"

	"parcc"
	"parcc/internal/graph/gen"
)

// QPSSessionReuse is the repeated-solve (serving) experiment: the same
// query answered over and over, one-shot parcc.ConnectedComponents versus
// a parcc.Solver session reusing the goroutine pool, PRAM machine, scratch
// arena, and cached CSR plan.  It reports throughput (solves/s), mean wall
// time per solve, and allocations per solve — for the session path the
// allocs/op are steady-state ("second solve") numbers, measured after a
// warmup solve has populated the arena and plan cache.
func QPSSessionReuse(c Config) *Table {
	n, deg, iters := 2000, 8, 25
	if c.Scale == Full {
		n, deg, iters = 50000, 8, 100
	}
	g := gen.Union(
		gen.RandomRegular(n, deg, c.seed()),
		gen.Grid(n/100, 50),
		gen.Path(n/4),
	)

	t := &Table{
		ID:    "QPS",
		Title: "repeated-solve throughput: one-shot vs session (Solver)",
		Claim: "amortizing runtime, machine, arena, and CSR plan across solves " +
			"makes repeat queries faster and (on the serving algorithms) near-zero-alloc",
		Columns: []string{"algorithm", "backend",
			"one-shot solves/s", "session solves/s", "speedup",
			"one-shot allocs/op", "session allocs/op", "alloc reduction"},
	}

	algos := []parcc.Algorithm{
		parcc.FLS, parcc.LTZ, parcc.LabelProp, parcc.ParBFS,
		parcc.CASUnite, parcc.UnionFind, parcc.BFS,
	}
	for _, algo := range algos {
		opts := &parcc.Options{
			Algorithm: algo, Backend: c.backend(), Procs: c.procs(), Seed: c.seed(),
		}
		oneWall, oneAllocs := measureLoop(iters, func() {
			if _, err := parcc.ConnectedComponents(g, opts); err != nil {
				panic(err)
			}
		})

		s, err := parcc.NewSolver(opts)
		if err != nil {
			panic(err)
		}
		res := &parcc.Result{}
		// Warm up: the first solve pays the arena fills and the plan build.
		if err := s.SolveInto(g, res); err != nil {
			panic(err)
		}
		sesWall, sesAllocs := measureLoop(iters, func() {
			if err := s.SolveInto(g, res); err != nil {
				panic(err)
			}
		})
		s.Close()

		t.Add(string(algo), string(opts.Backend),
			perSecond(oneWall), perSecond(sesWall),
			ratio(oneWall.Seconds(), sesWall.Seconds()),
			oneAllocs, sesAllocs, ratio(oneAllocs, sesAllocs))
	}
	t.Note("session allocs/op are steady-state (post-warmup) SolveInto numbers; "+
		"identical labels/steps/work to the one-shot path on the sequential backend "+
		"(asserted by TestSolverMatchesConnectedComponents).  n=%d, m=%d, %d solves per cell.",
		g.N, g.M(), iters)
	t.Note("the serving baselines (union-find, bfs) and cas reach ~zero steady-state " +
		"allocations; the charged PRAM algorithms remain bounded below by one closure " +
		"per charged loop, so their gain is wall-clock, not allocs.")
	return t
}

// measureLoop runs fn iters times and returns total wall time and mean
// heap allocations per iteration.
func measureLoop(iters int, fn func()) (time.Duration, float64) {
	fn() // exclude one-time warmup effects (lazy pools, code paths)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	return wall / time.Duration(iters), float64(after.Mallocs-before.Mallocs) / float64(iters)
}

func perSecond(per time.Duration) float64 {
	if per <= 0 {
		return 0
	}
	return 1 / per.Seconds()
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return a // effectively "a× over nothing"; keeps the table finite
	}
	return a / b
}
