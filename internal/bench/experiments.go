package bench

import (
	"math"

	"parcc/internal/baseline"
	"parcc/internal/core"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
	"parcc/internal/labeled"
	"parcc/internal/liutarjan"
	"parcc/internal/pram"
	"parcc/internal/prim"
	"parcc/internal/solve"
	"parcc/internal/spectral"
	"parcc/internal/stage1"
	"parcc/internal/stage2"
)

// E1TimeVsGap measures charged PRAM rounds of CONNECTIVITY against the
// component-wise spectral gap λ across families whose gaps span five orders
// of magnitude.  Theorem 1 predicts time O(log(1/λ) + log log n): rounds
// should grow roughly linearly in log(1/λ) at fixed n.
func E1TimeVsGap(c Config) *Table {
	t := &Table{
		ID:    "E1",
		Title: "parallel time vs spectral gap",
		Claim: "Theorem 1: O(log(1/λ) + log log n) time",
		Columns: []string{"family", "n", "m", "lambda", "log2(1/lambda)",
			"rounds", "work/(m+n)"},
	}
	n := 1 << 12
	if c.Scale == Full {
		n = 1 << 14
	}
	side := 1
	for side*side < n {
		side++
	}
	fams := map[string]*graph.Graph{
		"expander-d8": gen.RandomRegular(n, 8, c.seed()),
		"hypercube":   gen.Hypercube(int(prim.Log2Ceil(n))),
		"torus":       gen.Torus(side, side),
		"grid":        gen.Grid(side, side),
		"cycle":       gen.Cycle(n),
		"path":        gen.Path(n),
	}
	const seeds = 3
	for _, name := range sortedKeys(fams) {
		g := fams[name]
		lam := spectral.Gap(graph.NewPlan(g), &spectral.Options{Seed: c.seed()})
		var steps, work int64
		for s := uint64(0); s < seeds; s++ {
			cc := c
			cc.Seed = c.seed() + s*977
			st, wk, _, _ := runFLS(cc, g)
			steps += st
			work += wk
		}
		t.Add(name, g.N, g.M(), lam, log2(1/lam), steps/seeds,
			float64(work)/float64(seeds)/float64(g.M()+g.N))
	}
	t.Note("rounds averaged over %d seeds; they include every charged PRAM step (Stage 1, all phases, cleanup)", seeds)
	return t
}

// E2WorkLinearity sweeps n on a fixed-density family and reports charged
// work normalized by m+n for CONNECTIVITY vs the LTZ and SV baselines.
// Theorem 1 predicts a flat series for CONNECTIVITY; SV grows with log n
// and LTZ with its round count.
func E2WorkLinearity(c Config) *Table {
	t := &Table{
		ID:    "E2",
		Title: "normalized work vs n",
		Claim: "Theorem 1: O(m+n) total work; [SV82] Θ((m+n)·log n); [LTZ20] Θ(m·(log d + log log n))",
		Columns: []string{"n", "m", "fls work/(m+n)", "ltz work/(m+n)",
			"sv work/(m+n)", "fls rounds", "sv rounds~"},
	}
	maxLg := 14
	if c.Scale == Full {
		maxLg = 17
	}
	for lgn := 10; lgn <= maxLg; lgn += 2 {
		n := 1 << lgn
		g := gen.GNM(n, 3*n, c.seed())
		mn := float64(g.M() + g.N)
		flsSteps, flsWork, _, _ := runFLS(c, g)
		_, ltzWork, _ := runLTZ(c, g)
		m := c.machine()
		baseline.ShiloachVishkin(m, g)
		svWork, svSteps := m.Work(), m.Steps()
		t.Add(n, g.M(), float64(flsWork)/mn, float64(ltzWork)/mn,
			float64(svWork)/mn, flsSteps, svSteps)
	}
	return t
}

// E3MatchingShrink measures the root-reduction factor of a single MATCHING
// call (Lemma 4.4 guarantees ≤ 0.999 w.h.p.; typical factors are far
// smaller).
func E3MatchingShrink(c Config) *Table {
	t := &Table{
		ID:      "E3",
		Title:   "MATCHING constant shrink",
		Claim:   "Lemma 4.4: one call reduces live roots to ≤ 0.999·n′ w.h.p.",
		Columns: []string{"family", "n", "roots before", "roots after", "factor"},
	}
	n := 1 << 12
	if c.Scale == Full {
		n = 1 << 15
	}
	side := 1
	for side*side < n {
		side++
	}
	fams := map[string]*graph.Graph{
		"cycle":    gen.Cycle(n),
		"expander": gen.RandomRegular(n, 4, c.seed()),
		"grid":     gen.Grid(side, side),
		"star":     gen.Star(n),
		"gnm":      gen.GNM(n, 2*n, c.seed()),
	}
	for _, name := range sortedKeys(fams) {
		g := fams[name]
		m := c.machine()
		f := labeled.New(g.N)
		r := stage1.NewRunner(solve.New(m), f, stage1.DefaultParams(g.N))
		before := len(f.Roots(nil))
		r.Matching(g.Edges)
		after := len(f.Roots(nil))
		t.Add(name, g.N, before, after, float64(after)/float64(before))
	}
	return t
}

// E4ReduceShrink sweeps n and reports the fraction of live roots REDUCE
// leaves, plus its normalized work (Lemma 4.25: n/poly(log n) vertices in
// O(m)+O(n) work).
func E4ReduceShrink(c Config) *Table {
	t := &Table{
		ID:      "E4",
		Title:   "REDUCE shrink and work",
		Claim:   "Lemma 4.25: current graph shrinks to n/poly(log n) in O(m)+O(n) work",
		Columns: []string{"n", "m", "live roots", "live/n", "work/(m+n)", "steps"},
	}
	maxLg := 14
	if c.Scale == Full {
		maxLg = 17
	}
	for lgn := 10; lgn <= maxLg; lgn += 2 {
		n := 1 << lgn
		g := gen.RandomRegular(n, 4, c.seed())
		m := c.machine()
		f := labeled.New(g.N)
		r := stage1.NewRunner(solve.New(m), f, stage1.DefaultParams(g.N))
		res := r.Reduce(g)
		live := map[int32]struct{}{}
		for _, e := range res.Edges {
			if e.U != e.V {
				live[e.U] = struct{}{}
				live[e.V] = struct{}{}
			}
		}
		t.Add(n, g.M(), len(live), float64(len(live))/float64(n),
			float64(m.Work())/float64(g.M()+g.N), m.Steps())
	}
	return t
}

// E5SkeletonSize reports |E(H)|/(m+n) for BUILD across densities and b
// (Lemma 5.5: the skeleton has ≤ (m+n)/poly(log n) edges).
func E5SkeletonSize(c Config) *Table {
	t := &Table{
		ID:      "E5",
		Title:   "skeleton graph sparsity",
		Claim:   "Lemma 5.5: |E(H)| ≤ (m+n)/(log n)^5 (paper constants)",
		Columns: []string{"family", "n", "m", "b", "|E(H)|", "|E(H)|/(m+n)"},
	}
	n := 1 << 10
	if c.Scale == Full {
		n = 1 << 12
	}
	// BUILD runs after Stage-1 contraction, where vertex degrees are large
	// relative to b; the families below reproduce that regime (a vertex is
	// classified high roughly when its degree exceeds ≈5.5b with the
	// practical table sizing, cf. §5.1).
	fams := map[string]*graph.Graph{
		"dense-gnm-64": gen.GNM(n, 64*n, c.seed()),
		"complete":     gen.Complete(n / 2),
		"powerlaw-ba8": gen.BarabasiAlbert(n, 8, c.seed()),
	}
	for _, name := range sortedKeys(fams) {
		g := fams[name]
		for _, b := range []int{4, 8, 16} {
			m := c.machine()
			V := make([]int32, g.N)
			m.Iota32(V)
			p := stage2.DefaultParams(g.N, b)
			H := stage2.Build(solve.New(m), V, g.Edges, p)
			t.Add(name, g.N, g.M(), b, len(H),
				float64(len(H))/float64(g.M()+g.N))
		}
	}
	t.Note("high–high edges are kept w.p. 1/b; low-adjacent edges are kept exactly; the ratio falls as degrees outgrow b")
	return t
}

// E6MinDegree verifies the Lemma 5.25 postcondition: after INCREASE every
// active root's degree in the current graph is at least b.
func E6MinDegree(c Config) *Table {
	t := &Table{
		ID:      "E6",
		Title:   "minimum degree after INCREASE",
		Claim:   "Lemma 5.25: every surviving root has degree ≥ b in the current graph",
		Columns: []string{"family", "profile", "b", "active roots", "min deg", "median deg", "ok"},
	}
	n := 1 << 12
	if c.Scale == Full {
		n = 1 << 14
	}
	fams := map[string]*graph.Graph{
		"expander": gen.RandomRegular(n, 6, c.seed()),
		"gnm":      gen.GNM(n, 6*n, c.seed()),
	}
	for _, name := range sortedKeys(fams) {
		g := fams[name]
		for _, tc := range []struct {
			profile string
			limited bool
			b       int
		}{
			{"full", false, 8}, {"full", false, 16},
			{"starved", true, 8}, {"starved", true, 16},
		} {
			b := tc.b
			m := c.machine()
			f := labeled.New(g.N)
			p2 := stage2.DefaultParams(g.N, b)
			var roots []int32
			var E []graph.Edge
			if tc.limited {
				// starved ablation: Stage 1 skipped and DENSIFY cut to a
				// single round, far below the paper's 20·log b budget, so
				// components survive Stage 2 and the degree readout shows
				// what the missing budget costs
				p2.SolveRounds = 1
				p2.DensifyRounds = 1
				p2.ShortcutRounds = 1
				roots = make([]int32, g.N)
				m.Iota32(roots)
				E = append([]graph.Edge(nil), g.Edges...)
			} else {
				r := stage1.NewRunner(solve.New(m), f, stage1.DefaultParams(g.N))
				red := r.Reduce(g)
				roots = red.Roots
				E = append([]graph.Edge(nil), red.Edges...)
			}
			stage2.Increase(solve.New(m), f, roots, E, p2)
			deg := map[int32]int{}
			for _, e := range E {
				if e.U != e.V {
					deg[e.U]++
					deg[e.V]++
				}
			}
			var degs []int
			for v, d := range deg {
				if f.IsRoot(v) {
					degs = append(degs, d)
				}
			}
			minD, medD := distrib(degs)
			// When INCREASE finishes every component outright (common in
			// the unlimited profile), the postcondition holds vacuously.
			ok := minD >= b || len(degs) == 0
			t.Add(name, tc.profile, b, len(degs), minD, medD, ok)
		}
	}
	t.Note("0 active roots means Stage 2 contracted every component already — the postcondition holds vacuously")
	t.Note("'starved' is an ablation: Stage 1 skipped and DENSIFY cut to 1 round (vs the paper's 20·log b); survivors then miss the degree target, showing the budget is necessary, not slack")
	return t
}

// E7DiameterBlowup measures the Appendix-B effect: a construction with
// small diameter whose edge-sampled subgraph stays connected but has
// diameter Ω(n/poly(t)).
func E7DiameterBlowup(c Config) *Table {
	t := &Table{
		ID:      "E7",
		Title:   "edge sampling blows up diameter",
		Claim:   "Appendix B: poly(log n)-diameter graph whose 1/poly(log n)-sampled subgraph has diameter n/poly(log n)",
		Columns: []string{"n", "t (p=1/t)", "m", "diam before", "diam after", "connected after", "blowup"},
	}
	sizes := []int{1 << 11, 1 << 12}
	if c.Scale == Full {
		sizes = []int{1 << 12, 1 << 13, 1 << 14}
	}
	for _, n := range sizes {
		tt := 4
		g := gen.AppendixB(n, tt)
		before := spectral.DiameterApprox(graph.NewPlan(g), 3)
		s := gen.SampleEdges(g, 1/float64(tt), c.seed())
		after := spectral.DiameterApprox(graph.NewPlan(s), 3)
		comps := graph.NumLabels(baseline.BFSLabels(s))
		t.Add(g.N, tt, g.M(), before, after,
			comps == 1, float64(after)/float64(before+1))
	}
	t.Note("bundled base-path edges survive sampling; single express edges mostly die")
	return t
}

// E8SampledGap measures |λ−λ′| between a graph and its edge-sampled
// subgraph against the Corollary C.3 bound O(√(log n/(p·deg))).
func E8SampledGap(c Config) *Table {
	t := &Table{
		ID:      "E8",
		Title:   "spectral gap under edge sampling",
		Claim:   "Corollary C.3: |λ−λ′| ≤ C·√(ln n/(p·deg)) w.h.p.",
		Columns: []string{"degree", "p", "lambda", "lambda'", "|diff|", "sqrt(ln n/(p·d))"},
	}
	n := 400
	if c.Scale == Full {
		n = 1200
	}
	for _, d := range []int{16, 32, 64} {
		for _, p := range []float64{0.5, 0.25, 0.125} {
			g := gen.RandomRegular(n, d, c.seed())
			lam := spectral.Gap(graph.NewPlan(g), &spectral.Options{Seed: c.seed()})
			s := gen.SampleEdges(g, p, c.seed()+7)
			lam2 := spectral.Gap(graph.NewPlan(s), &spectral.Options{Seed: c.seed()})
			bound := math.Sqrt(math.Log(float64(n)) / (p * float64(d)))
			t.Add(d, p, lam, lam2, math.Abs(lam-lam2), bound)
		}
	}
	return t
}

// E9KKTRemain counts inter-component edges of G with respect to the
// components of an edge-sampled subgraph: the KKT sampling lemma bounds
// them by O(n/p), which is what makes REMAIN cheap.
func E9KKTRemain(c Config) *Table {
	t := &Table{
		ID:      "E9",
		Title:   "inter-component edges after sampling (REMAIN cost)",
		Claim:   "[KKT95] sampling lemma: #cross edges = O(n/p) w.h.p.",
		Columns: []string{"n", "m", "p", "cross edges", "n/p", "ratio"},
	}
	maxLg := 13
	if c.Scale == Full {
		maxLg = 16
	}
	for lgn := 11; lgn <= maxLg; lgn += 1 {
		n := 1 << lgn
		g := gen.GNM(n, 4*n, c.seed())
		p := 0.25
		s := gen.SampleEdges(g, p, c.seed()+3)
		lab := baseline.BFSLabels(s)
		cross := 0
		for _, e := range g.Edges {
			if lab[e.U] != lab[e.V] {
				cross++
			}
		}
		bound := float64(n) / p
		t.Add(n, g.M(), p, cross, bound, float64(cross)/bound)
	}
	return t
}

// E10Headline compares every implemented algorithm on a graph suite:
// charged rounds, charged work, and wall-clock.
func E10Headline(c Config) *Table {
	t := &Table{
		ID:      "E10",
		Title:   "headline comparison",
		Claim:   "Theorem 1 vs the classical baselines (§1–2)",
		Columns: []string{"graph", "algorithm", "rounds", "work/(m+n)", "wall ms", "components"},
	}
	n := 1 << 12
	if c.Scale == Full {
		n = 1 << 15
	}
	side := 1
	for side*side < n {
		side++
	}
	suite := map[string]*graph.Graph{
		"expander": gen.RandomRegular(n, 8, c.seed()),
		"grid":     gen.Grid(side, side),
		"cycle":    gen.Cycle(n),
		"gnm-3n":   gen.GNM(n, 3*n, c.seed()),
		"comps": gen.ManyComponents(8, func(i int) *graph.Graph {
			return gen.RandomRegular(n/8, 4, c.seed()+uint64(i))
		}),
	}
	for _, gname := range sortedKeys(suite) {
		g := suite[gname]
		mn := float64(g.M() + g.N)
		// FLS
		steps, work, wall, res := runFLS(c, g)
		t.Add(gname, "fls", steps, float64(work)/mn, wall.Milliseconds(), res.NumComponents)
		// LTZ
		steps, work, wall = runLTZ(c, g)
		t.Add(gname, "ltz", steps, float64(work)/mn, wall.Milliseconds(), "")
		// SV
		m := c.machine()
		f := baseline.ShiloachVishkin(m, g)
		t.Add(gname, "sv", m.Steps(), float64(m.Work())/mn, "", graph.NumLabels(f.Labels()))
		// random-mate
		m = c.machine()
		baseline.RandomMate(m, g, c.seed())
		t.Add(gname, "random-mate", m.Steps(), float64(m.Work())/mn, "", "")
		// label-prop
		m = c.machine()
		baseline.LabelProp(m, g)
		t.Add(gname, "label-prop", m.Steps(), float64(m.Work())/mn, "", "")
		// Liu–Tarjan (parent-connect + alter)
		m = c.machine()
		liutarjan.Solve(m, g, liutarjan.Config{Connect: liutarjan.ParentConnect, Alter: true})
		t.Add(gname, "liu-tarjan", m.Steps(), float64(m.Work())/mn, "", "")
	}
	return t
}

// E11TwoCycle contrasts one n-cycle with two n/2-cycles (the 2-CYCLE
// instances).  λ = Θ(1/n²) for both, so Theorem 1 (and, conditionally,
// Appendix A's lower bound) predicts rounds growing linearly in log n.
func E11TwoCycle(c Config) *Table {
	t := &Table{
		ID:      "E11",
		Title:   "rounds on the 2-CYCLE instances",
		Claim:   "Appendix A: Ω(log(1/λ)) = Ω(log n) on cycles, conditional on the 2-CYCLE conjecture",
		Columns: []string{"n", "lambda(one)", "rounds one-cycle", "rounds two-cycles", "distinguish rounds", "rounds/log2(n)"},
	}
	maxLg := 13
	if c.Scale == Full {
		maxLg = 16
	}
	seeds := []uint64{c.seed(), c.seed() + 7, c.seed() + 13}
	for lgn := 9; lgn <= maxLg; lgn += 2 {
		n := 1 << lgn
		one := gen.Cycle(n)
		two := gen.TwoCycles(n)
		lam := 1 - math.Cos(2*math.Pi/float64(n)) // analytic λ(C_n)
		s1, _, _, _ := runFLS(c, one)
		s2, _, _, _ := runFLS(c, two)
		dist := RoundsToDistinguish(n, seeds)
		t.Add(n, lam, s1, s2, dist, float64(s1)/float64(lgn))
	}
	t.Note("'distinguish rounds' is the minimal EXPAND-MAXLINK budget certifying both instances (BudgetedDecide)")
	return t
}

// E12PhaseSchedule sweeps λ via ring-of-cliques bridge multiplicity and
// reports the phase behaviour: phases used, the terminating guess b, and
// the geometric-sum property (total time ≈ last-phase time, §3.4).
func E12PhaseSchedule(c Config) *Table {
	t := &Table{
		ID:    "E12",
		Title: "double-exponential gap search",
		Claim: "§3.4/§7: O(log log n) phases; total time dominated by the terminating phase",
		Columns: []string{"profile", "bridges/n", "lambda", "phases", "final b",
			"total rounds", "last-phase rounds", "last/total"},
	}
	k, s := 32, 16
	if c.Scale == Full {
		k = 64
	}
	escalated := 0
	run := func(profile string, g *graph.Graph, key any, strict, p1 bool) {
		lam := spectral.Gap(graph.NewPlan(g), &spectral.Options{Seed: c.seed()})
		m := c.machine()
		p := core.Default(g.N)
		p.Seed ^= c.seed()
		if strict {
			// Minimal per-phase budgets so the O(log b) limits bind.
			p.SolveRoundsC = 1
			p.H1Rounds = 1
			p.DensifyRoundsC = 1
			p.B0 = 4
		}
		if p1 {
			// H₁ = G′ and no Stage-1 contraction: nothing is shattered by
			// sampling and nothing pre-shrunk, so REMAIN cannot rescue
			// phase 0 and the schedule must escalate until the per-phase
			// O(log b) budget covers the instance.
			p.SampleP64 = pram.P64(1)
			p.SkipStage1 = true
		}
		res := core.Connectivity(solve.New(m), g, p, nil)
		var last, tot int64
		for _, r := range res.PhaseRounds {
			tot += r
		}
		if len(res.PhaseRounds) > 0 {
			last = res.PhaseRounds[len(res.PhaseRounds)-1]
		}
		frac := 0.0
		if tot > 0 {
			frac = float64(last) / float64(tot)
		}
		t.Add(profile, key, lam, res.Phases, res.FinalB, m.Steps(), last, frac)
		if res.Phases > 1 {
			escalated++
		}
	}
	for _, bridges := range []int{1, 4, 16, 64} {
		run("default", gen.RingOfCliques(k, s, bridges, c.seed()), bridges, false, false)
	}
	for _, bridges := range []int{1, 4, 16, 64} {
		run("strict", gen.RingOfCliques(k, s, bridges, c.seed()), bridges, true, false)
	}
	for _, lgn := range []int{8, 10, 12} {
		run("strict-p1-cycle", gen.Cycle(1<<lgn), 1<<lgn, true, true)
	}
	t.Note("strict: SolveRoundsC=1, H1Rounds=1, DensifyRoundsC=1, B0=4; strict-p1-cycle additionally samples H₁/H₂ at probability 1 and skips Stage 1 (key column = n)")
	t.Note("%d of %d instances escalated past phase 0", escalated, len(t.Rows))
	return t
}

// E13ContractionGap contracts random edges of small graphs and verifies
// Lemma 6.1's direction: contraction does not decrease the spectral gap.
func E13ContractionGap(c Config) *Table {
	t := &Table{
		ID:      "E13",
		Title:   "contraction preserves the spectral gap",
		Claim:   "Lemma 6.1 / [CG97] 1.15: contracting within a component cannot decrease λ",
		Columns: []string{"family", "trials", "min λ'/λ", "violations"},
	}
	trials := 20
	if c.Scale == Full {
		trials = 60
	}
	fams := map[string]func(uint64) *graph.Graph{
		"gnm-16":   func(s uint64) *graph.Graph { return connectedGNM(16, 28, s) },
		"cycle-12": func(uint64) *graph.Graph { return gen.Cycle(12) },
		"grid-3x4": func(uint64) *graph.Graph { return gen.Grid(3, 4) },
	}
	for _, name := range sortedKeys(fams) {
		mk := fams[name]
		minRatio := math.Inf(1)
		viol := 0
		for i := 0; i < trials; i++ {
			g := mk(c.seed() + uint64(i))
			lam := spectral.GapDense(g)
			h := contractRandomEdge(g, c.seed()+uint64(i)*13)
			if h == nil {
				continue
			}
			lam2 := spectral.GapDense(h)
			r := lam2 / lam
			if r < minRatio {
				minRatio = r
			}
			if r < 1-1e-6 {
				viol++
			}
		}
		t.Add(name, trials, minRatio, viol)
	}
	return t
}

// E14NaiveSampling shows why plain edge sampling cannot replace Stages 1–2:
// on unions of paths it disconnects almost every component (§3).
func E14NaiveSampling(c Config) *Table {
	t := &Table{
		ID:      "E14",
		Title:   "naive edge sampling breaks sparse components",
		Claim:   "§3: random edge sampling can disconnect components (e.g. collections of paths)",
		Columns: []string{"family", "p", "components before", "components after", "broken fraction"},
	}
	k := 64
	plen := 32
	if c.Scale == Full {
		k = 256
	}
	paths := gen.ManyComponents(k, func(int) *graph.Graph { return gen.Path(plen) })
	dense := gen.ManyComponents(k/4, func(i int) *graph.Graph {
		return gen.RandomRegular(plen, 8, c.seed()+uint64(i))
	})
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"paths", paths}, {"dense-d8", dense}} {
		before := graph.NumLabels(baseline.BFSLabels(tc.g))
		for _, p := range []float64{0.9, 0.5, 0.25} {
			s := gen.SampleEdges(tc.g, p, c.seed())
			after := graph.NumLabels(baseline.BFSLabels(s))
			t.Add(tc.name, p, before, after,
				float64(after-before)/float64(before))
		}
	}
	return t
}

// --- helpers ---

func distrib(xs []int) (min, median int) {
	if len(xs) == 0 {
		return 0, 0
	}
	min = xs[0]
	for _, x := range xs {
		if x < min {
			min = x
		}
	}
	// selection by copy-sort (small inputs)
	cp := append([]int(nil), xs...)
	for i := 1; i < len(cp); i++ {
		v := cp[i]
		j := i - 1
		for j >= 0 && cp[j] > v {
			cp[j+1] = cp[j]
			j--
		}
		cp[j+1] = v
	}
	return min, cp[len(cp)/2]
}

func connectedGNM(n, m int, seed uint64) *graph.Graph {
	for i := 0; i < 50; i++ {
		g := gen.GNM(n, m, seed+uint64(i)*101)
		if graph.NumLabels(baseline.BFSLabels(g)) == 1 {
			return g
		}
	}
	return gen.Cycle(n)
}

// contractRandomEdge contracts one non-loop edge and returns the contracted
// graph (nil if no non-loop edge exists).
func contractRandomEdge(g *graph.Graph, seed uint64) *graph.Graph {
	var candidates []graph.Edge
	for _, e := range g.Edges {
		if e.U != e.V {
			candidates = append(candidates, e)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	e := candidates[pram.SplitMix64(seed)%uint64(len(candidates))]
	// identify e.V into e.U; vertex e.V becomes isolated and is dropped by
	// renumbering.
	out := graph.New(g.N - 1)
	remap := func(v int32) int32 {
		if v == e.V {
			v = e.U
		}
		if v > e.V {
			v--
		}
		return v
	}
	for _, ed := range g.Edges {
		u, v := remap(ed.U), remap(ed.V)
		out.Edges = append(out.Edges, graph.Edge{U: u, V: v})
	}
	return out
}

// E15StageBreakdown attributes the charged cost of CONNECTIVITY to its
// stages (Stage-1 REDUCE, presampling, phases, final cleanup) across
// spectral-gap regimes: the λ-dependence should localize in the phase /
// cleanup shares while Stage 1 stays flat (its O(log log n) + O(m) cost is
// λ-independent).
func E15StageBreakdown(c Config) *Table {
	t := &Table{
		ID:    "E15",
		Title: "per-stage cost attribution",
		Claim: "§7: Stage 1 is λ-independent; the O(log(1/λ)) term lives in the phases and REMAIN",
		Columns: []string{"family", "stage", "steps", "work",
			"steps share", "work share"},
	}
	n := 1 << 12
	if c.Scale == Full {
		n = 1 << 14
	}
	fams := map[string]*graph.Graph{
		"expander": gen.RandomRegular(n, 8, c.seed()),
		"cycle":    gen.Cycle(n),
		"path":     gen.Path(n),
	}
	for _, name := range sortedKeys(fams) {
		g := fams[name]
		_, _, _, res := runFLS(c, g)
		var totS, totW int64
		for _, mk := range res.Breakdown {
			totS += mk.Steps
			totW += mk.Work
		}
		for _, mk := range res.Breakdown {
			t.Add(name, mk.Label, mk.Steps, mk.Work,
				float64(mk.Steps)/float64(totS+1),
				float64(mk.Work)/float64(totW+1))
		}
	}
	t.Note("'finish' contains FlattenAll and, when a phase did not terminate via REMAIN, the backstop cleanup")
	return t
}
