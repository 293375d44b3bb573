package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"parcc"
	"parcc/internal/bench"
)

// The solve-families cells: each auto family is a cell on which one of the
// wall-clock kernels wins (cas: gnm-sparse, many-components; sample:
// community, barabasi-albert; frontier: grid, path), and the FLS families
// add the spectral-gap extremes (random-regular: λ = Θ(1); two-cycles:
// λ → 0) to a sparse random graph.  Every family runs at two sizes a
// doubling apart.
var (
	autoFamilies = []string{"gnm-sparse", "many-components", "community", "barabasi-albert", "grid", "path"}
	flsFamilies  = []string{"gnm-sparse", "random-regular", "two-cycles"}
	meshFamilies = []string{"grid", "path"}
)

func solveSizes(tiny bool) []int {
	if tiny {
		return []int{1 << 10, 1 << 11}
	}
	return []int{1 << 15, 1 << 16}
}

// flsSizes are smaller than the auto sizes: a cold one-shot FLS call costs
// some 30× a warm auto solve, and a half-share of the run must still give
// every FLS cell enough calls for a steady median.
func flsSizes(tiny bool) []int {
	if tiny {
		return []int{1 << 10, 1 << 11}
	}
	return []int{1 << 14, 1 << 15}
}

// solveCell is one graph of the workload.
type solveCell struct {
	family string
	n      int
	g      *parcc.Graph
	comps  int // component count, verified at setup
	// auto is the cell's warm Auto session (auto cells only) and res its
	// reused result.
	auto *parcc.Solver
	res  parcc.Result
	// Timed samples: warm auto solves and one-shot FLS calls, in ns and in
	// reference operations, with the FLS calls' charged steps and work.
	autoNS, flsNS, autoRef, flsRef, flsSteps, flsWork []float64
	flsLabels                                         []int32
}

func (c *solveCell) name() string { return fmt.Sprintf("%s@%d", c.family, c.n) }
func (c *solveCell) m() float64   { return float64(max(c.g.M(), 1)) }

// autoOptions is the warm session every auto cell holds: the concurrent
// backend at nproc, with TrustGraph on because the graphs never change.
func autoOptions(procs int) *parcc.Options {
	return &parcc.Options{Algorithm: parcc.Auto, Backend: parcc.BackendConcurrent, Procs: procs, TrustGraph: true}
}

// flsOptions is the README's library call: the default algorithm (the
// paper's FLS) on the concurrent backend.
func flsOptions(procs int, trace bool) *parcc.Options {
	return &parcc.Options{Backend: parcc.BackendConcurrent, Procs: procs, Trace: trace}
}

type solveSet struct {
	auto, fls []*solveCell
}

func (s *solveSet) close() {
	for _, c := range s.auto {
		c.auto.Close()
	}
}

// setupSolve generates every cell's graph and warms the auto sessions
// (plan built, pool started, one solve each, then warm solves round-robin
// over the cells for the warm-up time).  Answers are checked by the
// caller, outside the setup time.
func setupSolve(cfg *config) (*solveSet, error) {
	set := &solveSet{}
	for _, n := range solveSizes(cfg.tiny) {
		for _, f := range bench.Families(n, cfg.seed) {
			if !slices.Contains(autoFamilies, f.Name) {
				continue
			}
			c := &solveCell{family: f.Name, n: n, g: f.Make()}
			s, err := parcc.NewSolver(autoOptions(cfg.procs))
			if err != nil {
				return nil, err
			}
			c.auto = s
			set.auto = append(set.auto, c)
			cfg.tr.timed("parcc", "SolveInto(auto) warm-up", func() { err = s.SolveInto(c.g, &c.res) })
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.name(), err)
			}
			c.comps = c.res.NumComponents
		}
	}
	deadline := time.Now().Add(cfg.warmUp())
	for i := 0; time.Now().Before(deadline); i++ {
		c := set.auto[i%len(set.auto)]
		if err := c.auto.SolveInto(c.g, &c.res); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", c.name(), err)
		}
	}
	for _, n := range flsSizes(cfg.tiny) {
		for _, f := range bench.Families(n, cfg.seed) {
			if slices.Contains(flsFamilies, f.Name) {
				set.fls = append(set.fls, &solveCell{family: f.Name, n: n, g: f.Make()})
			}
		}
	}
	return set, nil
}

func runSolveFamilies(cfg *config) (*report, error) {
	rep := newReport()
	var set *solveSet
	var setups []float64
	for i := 0; i < cfg.setupReps; i++ {
		if set != nil {
			set.close()
			set = nil
			runtime.GC()
		}
		t0 := time.Now()
		s, err := setupSolve(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		set = s
	}
	defer set.close()
	rep.e2e["setup_s"] = quantile(setups, 0.5)

	// Check the warm-up answers; the FLS cells get their component count
	// from the oracle.
	for _, c := range set.auto {
		checkLabels(cfg, rep, c.name()+" warm-up", c.g, c.res.Labels)
	}
	for _, c := range set.fls {
		c.comps = referenceComponents(c.g)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	measureSolves(cfg, rep, set)
	runtime.ReadMemStats(&ms1)
	rep.layer["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	rep.layer["runtime.gc_pause_p99_us"] = gcPauseP99(&ms0, &ms1)

	// Check the last timed answer of every cell.
	for _, c := range set.auto {
		checkLabels(cfg, rep, c.name()+" auto", c.g, c.res.Labels)
	}
	for _, c := range set.fls {
		checkLabels(cfg, rep, c.name()+" fls", c.g, c.flsLabels)
	}

	var autoP50, autoRef, autoPerEdge, flsPerEdge, flsRef, steps, work, alloc []float64
	for _, c := range set.auto {
		autoP50 = append(autoP50, quantile(c.autoNS, 0.5)/1e3)
		autoRef = append(autoRef, quantile(c.autoRef, 0.5))
		autoPerEdge = append(autoPerEdge, quantile(c.autoNS, 0.5)/c.m())
		b, err := coldAllocBytes(cfg, c)
		if err != nil {
			return nil, err
		}
		alloc = append(alloc, b/c.m())
	}
	for _, c := range set.auto {
		fmt.Printf("auto %-22s m=%-8d %-9s solves=%-4d p50 %.3fms p90 %.3fms\n", c.name(), c.g.M(),
			c.res.Algorithm, len(c.autoNS), quantile(c.autoNS, 0.5)/1e6, quantile(c.autoNS, 0.9)/1e6)
	}
	for _, c := range set.fls {
		fmt.Printf("fls  %-22s m=%-8d calls=%-3d p50 %.3fms steps %.0f\n", c.name(), c.g.M(),
			len(c.flsNS), quantile(c.flsNS, 0.5)/1e6, quantile(c.flsSteps, 0.5))
		flsPerEdge = append(flsPerEdge, quantile(c.flsNS, 0.5)/c.m())
		flsRef = append(flsRef, quantile(c.flsRef, 0.5)/c.m())
		steps = append(steps, quantile(c.flsSteps, 0.5))
		work = append(work, quantile(c.flsWork, 0.5)/(c.m()+float64(c.g.N)))
	}
	rep.e2e["p50_refops"] = geomean(autoRef)
	rep.e2e["cold_refops_per_edge"] = geomean(flsRef)
	rep.layer["e2e.p50_us"] = geomean(autoP50)
	rep.layer["e2e.cold_ns_per_edge"] = geomean(flsPerEdge)
	rep.e2e["bytes_per_edge"] = geomean(alloc)
	rep.layer["e2e.solve_ns_per_edge"] = geomean(autoPerEdge)
	rep.layer["e2e.alloc_bytes_per_edge"] = rep.e2e["bytes_per_edge"]
	rep.layer["core.fls_steps"] = geomean(steps)
	rep.layer["core.fls_work_per_edge"] = geomean(work)
	if cfg.layers {
		if err := solveLayers(cfg, rep, set); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// measureSolves is the timed window: passes over the cells until the time
// budget is spent, half warm auto solves and half one-shot FLS calls, with
// at least five passes of each.
func measureSolves(cfg *config, rep *report, set *solveSet) {
	budget := time.Duration(cfg.seconds * float64(time.Second))
	t0 := time.Now()
	var flsTime time.Duration
	autoPasses, flsPasses := 0, 0
	for {
		el := time.Since(t0)
		if el >= budget && autoPasses >= 5 && flsPasses >= 5 {
			return
		}
		doFLS := flsTime < el/2
		if el >= budget {
			doFLS = flsPasses < 5
		}
		if !doFLS {
			autoPasses++
			for _, c := range set.auto {
				rep.attempted++
				start := time.Now()
				err := c.auto.SolveInto(c.g, &c.res)
				end := time.Now()
				cfg.tr.record("parcc", "SolveInto(auto)", 0, start, end)
				c.autoNS = append(c.autoNS, float64(end.Sub(start).Nanoseconds()))
				if err != nil || c.res.NumComponents != c.comps {
					rep.fail("%s auto: err=%v components=%d want %d", c.name(), err, c.res.NumComponents, c.comps)
				}
			}
			per := cfg.ref.sample()
			for _, c := range set.auto {
				c.autoRef = append(c.autoRef, c.autoNS[len(c.autoNS)-1]/per)
			}
			continue
		}
		// Each cold call starts from a freshly collected heap, so it is
		// priced for its own work and not for the garbage of the calls
		// before it; the collections count toward the FLS share of time.
		flsPasses++
		ft := time.Now()
		for _, c := range set.fls {
			rep.attempted++
			runtime.GC()
			start := time.Now()
			res, err := parcc.ConnectedComponents(c.g, flsOptions(cfg.procs, false))
			end := time.Now()
			cfg.tr.record("core", "ConnectedComponents(fls)", 0, start, end)
			c.flsNS = append(c.flsNS, float64(end.Sub(start).Nanoseconds()))
			if err != nil || res.NumComponents != c.comps {
				rep.fail("%s fls: err=%v", c.name(), err)
				continue
			}
			c.flsSteps = append(c.flsSteps, float64(res.Steps))
			c.flsWork = append(c.flsWork, float64(res.Work))
			c.flsLabels = res.Labels
		}
		flsTime += time.Since(ft)
		per := cfg.ref.sample()
		for _, c := range set.fls {
			c.flsRef = append(c.flsRef, c.flsNS[len(c.flsNS)-1]/per)
		}
	}
}

// solveLayers prices the layers under the warm auto solve: the CSR plan
// build (graph), each fixed kernel against auto on every cell (par,
// parcc dispatch), and the FLS pipeline's trace phases (core).
func solveLayers(cfg *config, rep *report, set *solveSet) error {
	reps := 7
	if cfg.tiny {
		reps = 2
	}
	var planNS, planB []float64
	for _, c := range set.auto {
		var ns, bytes []float64
		for i := 0; i < 3; i++ {
			s, err := parcc.NewSolver(&parcc.Options{Backend: parcc.BackendConcurrent, Procs: cfg.procs})
			if err != nil {
				return err
			}
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			d := cfg.tr.timed("graph", "Plan", func() { s.Plan(c.g) })
			runtime.ReadMemStats(&b)
			s.Close()
			ns = append(ns, float64(d.Nanoseconds()))
			bytes = append(bytes, float64(b.TotalAlloc-a.TotalAlloc))
		}
		planNS = append(planNS, quantile(ns, 0.5)/c.m())
		planB = append(planB, quantile(bytes, 0.5)/c.m())
	}
	rep.layer["graph.plan_ns_per_edge"] = geomean(planNS)
	rep.layer["graph.plan_bytes_per_edge"] = geomean(planB)

	algos := []parcc.Algorithm{parcc.CASUnite, parcc.Sample, parcc.Frontier}
	perEdge := make([][]float64, len(algos))
	var skips, rounds, worst []float64
	for _, c := range set.auto {
		// One session per kernel, closed before the next cell's are built.
		solvers := make([]*parcc.Solver, 0, len(algos))
		closeAll := func() {
			for _, s := range solvers {
				s.Close()
			}
		}
		results := make([]parcc.Result, len(algos))
		times := make([][]float64, len(algos))
		var autoNS []float64
		for i, a := range algos {
			s, err := parcc.NewSolver(&parcc.Options{Algorithm: a, Backend: parcc.BackendConcurrent,
				Procs: cfg.procs, TrustGraph: true, Trace: true})
			if err != nil {
				closeAll()
				return err
			}
			solvers = append(solvers, s)
			if err := s.SolveInto(c.g, &results[i]); err != nil {
				closeAll()
				return fmt.Errorf("%s %s: %w", c.name(), a, err)
			}
			checkLabels(cfg, rep, fmt.Sprintf("%s %s", c.name(), a), c.g, results[i].Labels)
		}
		for r := 0; r < reps; r++ {
			rep.attempted++
			start := time.Now()
			err := c.auto.SolveInto(c.g, &c.res)
			end := time.Now()
			cfg.tr.record("parcc", "SolveInto(auto)", 0, start, end)
			autoNS = append(autoNS, float64(end.Sub(start).Nanoseconds()))
			if err != nil || c.res.NumComponents != c.comps {
				rep.fail("%s auto: err=%v", c.name(), err)
			}
			for i, a := range algos {
				rep.attempted++
				res := &results[i]
				start := time.Now()
				err := solvers[i].SolveInto(c.g, res)
				end := time.Now()
				cfg.tr.record("par", "SolveInto("+string(a)+")", 0, start, end)
				times[i] = append(times[i], float64(end.Sub(start).Nanoseconds()))
				if err != nil || res.NumComponents != c.comps {
					rep.fail("%s %s: err=%v components=%d want %d", c.name(), a, err, res.NumComponents, c.comps)
					continue
				}
				switch a {
				case parcc.Sample:
					skips = append(skips, res.SkipRatio)
				case parcc.Frontier:
					if slices.Contains(meshFamilies, c.family) && res.Trace != nil && res.Trace.Frontier != nil {
						rounds = append(rounds, float64(res.Trace.Frontier.Rounds))
					}
				}
			}
		}
		closeAll()
		best := 0.0
		for i := range algos {
			med := quantile(times[i], 0.5)
			perEdge[i] = append(perEdge[i], med/c.m())
			if best == 0 || med < best {
				best = med
			}
		}
		worst = append(worst, quantile(autoNS, 0.5)/best)
	}
	rep.layer["par.cas_ns_per_edge"] = geomean(perEdge[0])
	rep.layer["par.sample_ns_per_edge"] = geomean(perEdge[1])
	rep.layer["par.frontier_ns_per_edge"] = geomean(perEdge[2])
	rep.layer["par.sample_skip_ratio"] = mean(skips)
	rep.layer["par.frontier_rounds_p50"] = quantile(rounds, 0.5)
	rep.layer["par.frontier_rounds_max"] = quantile(rounds, 1)
	rep.layer["parcc.auto_over_best"] = quantile(worst, 1)

	// core: the one-shot FLS call once more with Options.Trace on, for its
	// phase breakdown.
	phaseMS := map[string][]float64{}
	var phases []float64
	for _, c := range set.fls {
		for r := 0; r < 2; r++ {
			rep.attempted++
			var res *parcc.Result
			var err error
			cfg.tr.timed("core", "ConnectedComponents(fls,trace)", func() {
				res, err = parcc.ConnectedComponents(c.g, flsOptions(cfg.procs, true))
			})
			if err != nil || res.NumComponents != c.comps || res.Trace == nil {
				rep.fail("%s fls traced: err=%v", c.name(), err)
				continue
			}
			phases = append(phases, float64(res.Phases))
			known := map[string]float64{}
			for _, ph := range res.Trace.Phases {
				name := ph.Name
				if !slices.Contains(flsPhases, name) {
					name = "other"
				}
				known[name] += float64(ph.Wall.Nanoseconds()) / 1e6
			}
			for _, ph := range flsPhases {
				phaseMS[ph] = append(phaseMS[ph], known[ph])
			}
		}
	}
	rep.layer["core.fls_phases"] = mean(phases)
	for _, ph := range flsPhases {
		rep.layer["core.fls_phase_ms."+ph] = mean(phaseMS[ph])
	}
	return nil
}

// coldAllocBytes is the bytes one cold NewSolver + SolveInto(auto)
// allocates on the cell.
func coldAllocBytes(cfg *config, c *solveCell) (float64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	s, err := parcc.NewSolver(autoOptions(cfg.procs))
	if err != nil {
		return 0, err
	}
	var res parcc.Result
	err = s.SolveInto(c.g, &res)
	runtime.ReadMemStats(&b)
	s.Close()
	if err != nil {
		return 0, fmt.Errorf("%s cold solve: %w", c.name(), err)
	}
	return float64(b.TotalAlloc - a.TotalAlloc), nil
}
