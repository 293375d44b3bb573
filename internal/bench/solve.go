package bench

import (
	"fmt"
	"math"
	"time"

	"parcc"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
)

// SOLVERawSolves is the tracked end-to-end solve benchmark: every generator
// family swept against the four wall-clock-oriented algorithms — the cas
// union-find baseline, the Afforest-style sampling fast path, the two-pass
// frontier engine (flood, then hook the residual), and the auto
// dispatcher — on warm Solver sessions.  Three bars are evaluated and
// recorded in the table:
//
//   - sample must beat cas by ≥ 2× wall clock on the block/community
//     families (the stochastic-block and relaxed-caveman shapes whose
//     edges concentrate inside communities — Afforest's target), at the
//     full scale n = 2^16;
//   - frontier must beat the best of the other fixed algorithms on the
//     high-diameter mesh cells (the path/grid/torus -xl rows at larger
//     side lengths — the regime the PR 5 sampler loses and the frontier
//     engine targets), at the full scale;
//   - auto must never be worse than 1.1× the best fixed algorithm on any
//     family (its decision is free, so any penalty is a wrong pick).
//
// Partitions are asserted equal across the four algorithms on every
// family, so the speedups cannot come from wrong answers.  CI publishes
// the JSON form as BENCH_solve.json, giving the perf trajectory a
// raw-solve series next to the incremental (BENCH_inc.json) and serving
// (BENCH_qps.json) ones.
func SOLVERawSolves(c Config) *Table {
	n := 1 << 12
	if c.Scale == Full {
		n = 1 << 16
	}
	backend := c.backend()
	algos := []parcc.Algorithm{parcc.CASUnite, parcc.Sample, parcc.Frontier, parcc.Auto}
	solvers := map[parcc.Algorithm]*parcc.Solver{}
	for _, a := range algos {
		s, err := parcc.NewSolver(&parcc.Options{
			Algorithm: a, Backend: backend, Procs: c.procs(), Seed: c.seed(),
			// The sweep never mutates a graph after generating it, so the
			// O(m) per-solve fingerprint revalidation would only blur the
			// kernel costs being compared.
			TrustGraph: true,
		})
		if err != nil {
			panic(err)
		}
		solvers[a] = s
	}
	defer func() {
		for _, s := range solvers {
			s.Close()
		}
	}()

	t := &Table{
		ID:    "SOLVE",
		Title: "end-to-end solve wall clock: cas vs sample vs frontier vs auto per generator family",
		Claim: "neighbor sampling settles most components early, so the full edge pass skips " +
			"the intra-community majority of edges (Afforest); on block/community families " +
			"that is a ≥2× end-to-end win; the frontier engine floods labels once and hooks only " +
			"the residual it leaves into a union-find forest, so it pays at most 4m adjacency " +
			"reads whatever the diameter, winning the high-diameter mesh cells; and the auto " +
			"dispatcher picks the right algorithm from plan statistics at no measurable cost",
		Columns: []string{"family", "n", "m", "cas ms", "sample ms", "frontier ms", "auto ms",
			"auto pick", "skip%", "sample/cas", "frontier/fix", "auto/best", "bar"},
	}

	worstAuto := 0.0
	worstAutoFamily := ""
	barsPass := true
	hidiamPass := true
	res := &parcc.Result{}
	for _, f := range solveFamilies(n, c.seed()) {
		g := f.make()
		wall := map[parcc.Algorithm]float64{}
		var labels map[parcc.Algorithm][]int32 = map[parcc.Algorithm][]int32{}
		var skipRatio float64
		var autoPick parcc.Algorithm
		// Warm each session once untimed (plan cache, label buffers), then
		// take per-algorithm minima over short consecutive rep bursts —
		// hot-cache, so each kernel is measured at its best — repeated in
		// several rounds cycling through the algorithms: machine-wide
		// drift (frequency scaling, noisy neighbors) spans time windows,
		// and giving every algorithm a burst in every window keeps a slow
		// phase from biasing whichever single block ran during it.  The
		// ratios below compare algorithms, so noise correlated across a
		// round cancels where one long per-algorithm block would not.
		for _, a := range algos {
			s := solvers[a]
			if err := s.SolveInto(g, res); err != nil {
				panic(err)
			}
			wall[a] = math.Inf(1)
			labels[a] = append([]int32(nil), res.Labels...)
			switch a {
			case parcc.Sample:
				skipRatio = res.SkipRatio
			case parcc.Auto:
				autoPick = res.Algorithm
			}
		}
		const rounds, burst = 3, 3
		for i := 0; i < rounds; i++ {
			for _, a := range algos {
				s := solvers[a]
				for j := 0; j < burst; j++ {
					t0 := time.Now()
					if err := s.SolveInto(g, res); err != nil {
						panic(err)
					}
					if d := time.Since(t0).Seconds(); d < wall[a] {
						wall[a] = d
					}
				}
			}
		}
		if !graph.SamePartition(labels[parcc.CASUnite], labels[parcc.Sample]) ||
			!graph.SamePartition(labels[parcc.CASUnite], labels[parcc.Frontier]) ||
			!graph.SamePartition(labels[parcc.CASUnite], labels[parcc.Auto]) {
			panic(fmt.Sprintf("SOLVE %s: partitions diverged across algorithms", f.name))
		}

		sampleSpeed := ratio(wall[parcc.CASUnite], wall[parcc.Sample])
		frontierSpeed := ratio(math.Min(wall[parcc.CASUnite], wall[parcc.Sample]), wall[parcc.Frontier])
		bestFixed := math.Min(wall[parcc.Frontier], math.Min(wall[parcc.CASUnite], wall[parcc.Sample]))
		autoPen := ratio(wall[parcc.Auto], bestFixed)
		if autoPen > worstAuto {
			worstAuto, worstAutoFamily = autoPen, f.name
		}
		bar := "-"
		switch {
		case f.barred:
			if sampleSpeed >= 2 {
				bar = "PASS"
			} else {
				bar = "FAIL"
				barsPass = false
			}
		case f.hidiam:
			if frontierSpeed > 1 {
				bar = "PASS"
			} else {
				bar = "FAIL"
				hidiamPass = false
			}
		}
		t.Add(f.name, g.N, g.M(),
			wall[parcc.CASUnite]*1000, wall[parcc.Sample]*1000, wall[parcc.Frontier]*1000,
			wall[parcc.Auto]*1000,
			string(autoPick), skipRatio*100, sampleSpeed, frontierSpeed, autoPen, bar)
	}

	verdict := "PASS"
	if !barsPass {
		verdict = "FAIL"
	}
	t.Note("bar 1 — sample ≥ 2× cas on the block/community families: %s (binding at -scale full, n=2^16).", verdict)
	hidiamVerdict := "PASS"
	if !hidiamPass {
		hidiamVerdict = "FAIL"
	}
	t.Note("bar 2 — frontier beats the best other fixed algorithm on the high-diameter "+
		"path/grid/torus -xl cells: %s (binding at -scale full).", hidiamVerdict)
	autoVerdict := "PASS"
	if worstAuto > 1.1 {
		autoVerdict = "FAIL"
	}
	t.Note("bar 3 — auto within 1.1× of the best fixed algorithm on every family: %s "+
		"(worst %.3fx on %s).", autoVerdict, worstAuto, worstAutoFamily)
	t.Note("wall times are the minimum over repeated warm solves on a reused session "+
		"(TrustGraph; plan cached).  partitions asserted equal across algorithms on every "+
		"family.  skip%% is the fraction of edges settled without a Unite (range-skipped "+
		"or dismissed by the root compare — Result.SkipRatio); frontier/fix is the best "+
		"other fixed algorithm's wall over frontier's (> 1: frontier fastest); auto pick "+
		"is the dispatch decision Result.Algorithm records.  backend=%s, procs=%d.",
		string(backend), c.procs())
	return t
}

// solveFamily is one row of the SOLVE sweep; barred marks the
// block/community families the ≥2× sampling bar applies to, hidiam the
// high-diameter mesh cells the frontier bar applies to.
type solveFamily struct {
	name   string
	barred bool
	hidiam bool
	make   func() *graph.Graph
}

// solveFamilies instantiates all twenty-three generator families at the
// target vertex count (complete is capped — n² edges — and the composite
// families split n across their parts).  The three -xl cells scale the
// high-diameter meshes past the base size — 4n vertices (double side
// lengths for the lattices) — where the diameter, and with it the round
// count any round-based algorithm pays, grows another 2×.
func solveFamilies(n int, seed uint64) []solveFamily {
	sq := int(math.Sqrt(float64(n)))
	d := 0
	for 1<<(d+1) <= n {
		d++
	}
	return []solveFamily{
		{"path", false, false, func() *graph.Graph { return gen.Path(n) }},
		{"cycle", false, false, func() *graph.Graph { return gen.Cycle(n) }},
		{"two-cycles", false, false, func() *graph.Graph { return gen.TwoCycles(n) }},
		{"grid", false, false, func() *graph.Graph { return gen.Grid(sq, sq) }},
		{"torus", false, false, func() *graph.Graph { return gen.Torus(sq, sq) }},
		{"hypercube", false, false, func() *graph.Graph { return gen.Hypercube(d) }},
		{"complete", false, false, func() *graph.Graph { return gen.Complete(min(n, 1024)) }},
		{"star", false, false, func() *graph.Graph { return gen.Star(n) }},
		{"binary-tree", false, false, func() *graph.Graph { return gen.BinaryTree(n) }},
		{"random-regular", false, false, func() *graph.Graph { return gen.RandomRegular(n, 4, seed) }},
		{"gnm-sparse", false, false, func() *graph.Graph { return gen.GNM(n, 2*n, seed) }},
		{"gnm-dense", false, false, func() *graph.Graph { return gen.GNM(n, 16*n, seed) }},
		{"block", true, false, func() *graph.Graph { return blockGraph(n, seed) }},
		{"community", true, false, func() *graph.Graph { return communityGraph(n, seed) }},
		{"lollipop", false, false, func() *graph.Graph { return gen.Lollipop(n, min(n/8, 512)) }},
		{"barbell", false, false, func() *graph.Graph { return gen.Barbell(n, min(n/4, 256)) }},
		{"union", false, false, func() *graph.Graph {
			return gen.Union(gen.Path(n/3), gen.Cycle(n/3), gen.GNM(n/3, n/2, seed))
		}},
		{"many-components", false, false, func() *graph.Graph {
			b := n / 64
			return gen.ManyComponents(64, func(i int) *graph.Graph {
				return gen.GNM(b, 3*b/2, seed+uint64(i))
			})
		}},
		{"watts-strogatz", false, false, func() *graph.Graph { return gen.WattsStrogatz(n, 8, 0.1, seed) }},
		{"barabasi-albert", false, false, func() *graph.Graph { return gen.BarabasiAlbert(n, 8, seed) }},
		{"path-xl", false, true, func() *graph.Graph { return gen.Path(4 * n) }},
		{"grid-xl", false, true, func() *graph.Graph { return gen.Grid(2*sq, 2*sq) }},
		{"torus-xl", false, true, func() *graph.Graph { return gen.Torus(2*sq, 2*sq) }},
	}
}

// blockGraph is the stochastic-block shape the sampling bar targets: one
// dominant dense block holding three quarters of the vertices and the
// overwhelming share of the edges (the majority component Afforest's vote
// finds, whose adjacency ranges the finish pass then skips unread) plus
// eight sparser satellite blocks that exercise the non-majority finish
// path.
func blockGraph(n int, seed uint64) *graph.Graph {
	main := 3 * n / 4
	gs := []*graph.Graph{gen.GNM(main, 40*main, seed)}
	k := 8
	bs := (n - main) / k
	for i := 0; i < k; i++ {
		gs = append(gs, gen.GNM(bs, 4*bs, seed+uint64(i+1)))
	}
	return gen.Union(gs...)
}

// communityGraph is a relaxed caveman graph: cliques of 32 plus two random
// inter-community edges per vertex (the μ ≈ 0.1 mixing regime of
// LFR-style community benchmarks, keeping the graph connected the way
// real community graphs are).  Sampling contracts each clique and the
// sampled inter-community links then percolate the contracted supernodes
// into a giant component, so the finish pass runs in majority mode — the
// behavior Afforest is designed around.  The inter-community edges are
// emitted before the cliques: adjacency order follows edge-emission
// order, and real community edge lists are arbitrarily ordered — emitting
// cliques first would sort every adjacency list against any
// prefix-window sampler (Afforest's first-k included), an adversarial
// layout rather than a representative one.
func communityGraph(n int, seed uint64) *graph.Graph {
	s := 32
	g := graph.New(n / s * s)
	r := newSplitMix(seed ^ 0xA5A5A5A5)
	for i := 0; i < 2*g.N; i++ {
		g.AddEdge(int(r.next()%uint64(g.N)), int(r.next()%uint64(g.N)))
	}
	for c := 0; c+s <= g.N; c += s {
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				g.AddEdge(c+i, c+j)
			}
		}
	}
	return g
}

// newSplitMix is a tiny local RNG for the bench generators (the gen
// package keeps its rng unexported).
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
