package core

import (
	"fmt"
	"time"

	"parcc/internal/graph"
	"parcc/internal/labeled"
	"parcc/internal/ltz"
	"parcc/internal/obs"
	"parcc/internal/pram"
	"parcc/internal/prim"
	"parcc/internal/solve"
	"parcc/internal/splitmix"
	"parcc/internal/stage1"
	"parcc/internal/stage2"
	"parcc/internal/stage3"
)

// Result is the outcome of a connectivity run.
type Result struct {
	Labels        []int32       // component label (root) per vertex
	NumComponents int           // number of distinct labels
	Steps         int64         // charged PRAM time
	Work          int64         // charged PRAM work
	Elapsed       time.Duration // wall-clock
	Phases        int           // INTERWEAVE phases executed (0 for known-λ)
	PhaseRounds   []int64       // charged steps per phase
	FinalB        int           // gap guess of the terminating phase
	UsedRemain    bool          // whether REMAIN performed the completion
	UsedBackstop  bool          // whether the post-loop backstop ran
	Breakdown     []pram.Mark   // per-stage cost attribution
}

// Connectivity runs CONNECTIVITY(G) (§7.1): the full Theorem-1 algorithm
// with unknown spectral gap.  The returned labeling is always exact — the
// REMAIN pass (and, under clamped practical parameters, a final backstop of
// the same kind) completes any component the sampled subgraphs missed.
// The forest, the Stage-1 scratch, the auxiliary array, and the per-phase
// working sets are borrowed from cx's arena (solve.New(m) for a one-shot
// run), and the labels are written into dst when it has the capacity.
func Connectivity(cx *solve.Ctx, g *graph.Graph, p Params, dst []int32) *Result {
	m := cx.M
	start := time.Now()
	res := &Result{}
	f := labeled.NewOn(cx.A, g.N)
	m.ResetMarks()
	span := cx.Rec.Begin()

	// Step 1 is New's initialization (v.p = v).
	// Step 2: REDUCE — contract to n/poly(log n) vertices (skipped only by
	// the E12 ablation profile).
	s1 := stage1.NewRunner(cx, f, p.Stage1)
	var red stage1.Result
	if p.SkipStage1 {
		red = stage1.Result{Edges: cx.CopyEdges(g.Edges)}
		red.Roots = make([]int32, g.N)
		m.Iota32(red.Roots)
	} else {
		red = s1.Reduce(g)
	}
	m.SetMark("stage1-reduce")
	span = cx.Rec.Lap(obs.PhaseReduce, span)
	Gp := red.Edges // E(G′), kept un-ALTERed for the rest of the run (§7.4)
	roots := red.Roots

	// Auxiliary array over E(G′) (§7.4.1).
	aux := stage2.BuildAux(cx, g.N, Gp)

	// Step 3: pre-sample H₁ and H₂ with independent randomness.
	H1 := cx.GrabEdgesCap(len(Gp)/4 + 4)
	h1mask := make([]bool, len(Gp))
	H2 := cx.GrabEdgesCap(len(Gp)/4 + 4)
	m.Contract(1, int64(2*len(Gp)), func() {
		for i, e := range Gp {
			if pram.SplitMix64(p.Seed^0x11^uint64(i)*splitmix.Gamma) < p.SampleP64 {
				H1 = append(H1, e)
				h1mask[i] = true
			}
			if pram.SplitMix64(p.Seed^0x22^uint64(i)*splitmix.M1) < p.SampleP64 {
				H2 = append(H2, e)
			}
		}
	})

	m.SetMark("presample")
	span = cx.Rec.Lap(obs.PhasePresample, span)

	// Step 4: E_filter = copy of E(G′).
	Efilter := cx.CopyEdges(Gp)

	// Step 5: the phase loop.
	done := false
	for i := 0; i < p.MaxPhases; i++ {
		stepsBefore := m.Steps()
		var finished bool
		Efilter, H1, finished = interweave(cx, f, s1, phaseEnv{
			p: p, phase: i, roots: roots, aux: aux,
			Gp: Gp, h1mask: h1mask,
		}, Efilter, H1, H2)
		res.Phases = i + 1
		res.PhaseRounds = append(res.PhaseRounds, m.Steps()-stepsBefore)
		res.FinalB = p.bSchedule(i)
		m.SetMark(fmt.Sprintf("phase-%d", i))
		span = cx.Rec.Lap(obs.PhaseInterweave, span)
		if finished {
			done = true
			res.UsedRemain = true
			break
		}
		if len(Efilter) == 0 {
			break
		}
	}

	// Step 6 + backstop: flatten, then complete any unfinished component
	// from the unsampled edges (same mechanism as REMAIN; a no-op when the
	// phase loop finished the work).
	labeled.FlattenAll(m, f)
	if !done {
		res.UsedBackstop = backstop(cx, f, Gp, p)
		labeled.FlattenAll(m, f)
	}
	m.SetMark("finish")
	span = cx.Rec.Lap(obs.PhaseFinish, span)

	res.Labels, res.NumComponents = f.FlatLabelsInto(dst)
	cx.Rec.End(obs.PhaseCount, span)
	cx.Rec.Add(obs.CtrFLSPhases, int64(res.Phases))
	res.Steps = m.Steps()
	res.Work = m.Work()
	res.Elapsed = time.Since(start)
	res.Breakdown = m.Marks()
	s1.Free()
	aux.Free(cx)
	cx.ReleaseEdges(Gp)
	cx.ReleaseEdges(H2)
	cx.ReleaseEdges(H1)
	cx.ReleaseEdges(Efilter)
	f.Free()
	return res
}

// phaseEnv carries the per-run immutable context into interweave.
type phaseEnv struct {
	p      Params
	phase  int
	roots  []int32 // V(G′): all roots at the end of Stage 1
	aux    *stage2.Aux
	Gp     []graph.Edge // E(G′), original (never altered)
	h1mask []bool
}

// interweave runs INTERWEAVE(G′,H₁,H₂,E_filter,i) (§7.1).  It returns the
// updated E_filter and H₁ and whether the phase finished the computation
// (Step 4 fired and REMAIN completed the components).
func interweave(cx *solve.Ctx, f *labeled.Forest, s1 *stage1.Runner, env phaseEnv, Efilter, H1, H2 []graph.Edge) (ef, h1 []graph.Edge, finished bool) {
	m := cx.M
	p := env.p

	// Step 1: b for this phase.
	b := p.bSchedule(env.phase)
	s2p := stage2.DefaultParams(f.Len(), b)
	s2p.LTZ = p.LTZ
	s2p.Seed = p.Seed ^ uint64(env.phase)<<32
	// Each stage within a phase is limited to O(log b) time (§3.4); a
	// too-small gap guess must fail fast and fall through to the next
	// phase rather than solve the instance outright.
	c := p.SolveRoundsC
	if c <= 0 {
		c = 2
	}
	s2p.SolveRounds = c * int(prim.Log2Ceil(b+1))
	if p.DensifyRoundsC > 0 {
		s2p.DensifyRounds = p.DensifyRoundsC * int(prim.Log2Ceil(b+1))
	}

	// Snapshot for the Step-5 revert: parents of V(G′) and the H₁ edges.
	snapP := cx.Grab32(len(env.roots))
	f.SnapshotOfInto(env.roots, snapP)
	snapH1 := cx.CopyEdges(H1)

	// Active roots: roots of V(G′) that still carry a non-loop edge in any
	// live edge set (fully contracted components have none and are ignored
	// per the discussion after Definition 7.2).
	active := activeRoots(cx, f, env.roots, Efilter, H1, H2)

	if len(active) > 0 {
		// Step 2: INCREASE(G′,H₁,H₂,b) — sparse skeleton + densify + heads.
		H1, _ = stage2.IncreaseSparse(cx, f, active, env.aux, H1, H2, s2p)

		// Step 3: 20·log b rounds of EXPAND-MAXLINK on H₁, then Theorem-2
		// rounds, then ALTER(H₁).
		lp := p.LTZ
		lp.Seed ^= uint64(env.phase) * 0x9e37
		st := ltz.NewState(cx, f, active, H1, lp)
		st.Run(p.H1Rounds * int(prim.Log2Ceil(b+1)))
		st.Run(p.H1Rounds * int(prim.LogLog(f.Len()+4)))
		eh := labeled.Alter(m, f, st.CurrentEdges())
		cx.ReleaseEdges(H1) // pre-Step-3 backing, already copied into st
		H1 = eh
		done := st.Done()
		st.Free()

		// Step 4: if H₁ is fully contracted, REMAIN finishes G′.
		if len(H1) == 0 && done {
			remain(cx, f, env, p)
			cx.Release32(snapP)
			cx.ReleaseEdges(snapH1)
			cx.ReleaseEdges(H1)
			cx.ReleaseEdges(Efilter) // the phase loop ends here; recycle it
			return nil, nil, true
		}
	}

	// Step 5: revert the labeled digraph and H₁ to their Step-1 state.
	f.RestoreOf(env.roots, snapP)
	cx.Release32(snapP)
	cx.ReleaseEdges(H1) // superseded by the snapshot (exclusive backing)
	H1 = snapH1

	// Step 6: matching rounds on E_filter with random deletions.
	rounds := filterRounds(p, env.phase, f.Len())
	for r := 0; r < rounds; r++ {
		s1.Matching(Efilter)
		Efilter = labeled.Alter(m, f, Efilter)
		Efilter = prim.DeleteEdges(m, Efilter, p.FilterDeleteP64, p.Seed^0xdead^uint64(env.phase)<<20^uint64(r))
		if len(Efilter) == 0 {
			break
		}
	}

	// Step 7: shortcut V(G′) until the trees over it are flat again.
	shortRounds := env.phase + 2*int(prim.LogLog(f.Len()+4))
	for r := 0; r < shortRounds; r++ {
		labeled.Shortcut(m, f, env.roots)
	}

	// Step 8: E′ = original G′ edges whose endpoint-parent left V(E_filter),
	// gathered from the auxiliary array; then ALTER(E′).
	inFilter := markVertexSet(cx, f.Len(), Efilter)
	Ep := env.aux.Gather(m, func(u int32) bool {
		pu := f.P[u]
		return inFilter[pu] == 0
	})
	cx.Release32(inFilter)
	Ep = labeled.Alter(m, f, Ep)

	// Step 9: matching + shortcut rounds on E′.
	for r := 0; r < rounds; r++ {
		if len(Ep) == 0 {
			break
		}
		s1.Matching(Ep)
		labeled.Shortcut(m, f, env.roots)
		Ep = labeled.Alter(m, f, Ep)
	}

	// Step 10: REVERSE(V(E_filter), E(H₂)).
	Vf := solve.VertexSet(cx, f.Len(), Efilter)
	stage1.Reverse(m, f, Vf, H2)

	return Efilter, H1, false
}

// remain runs REMAIN(G′,H₁) (§7.1): the components of H₁ are all
// contracted; the sampling lemma of [KKT95] bounds the edges of G′ crossing
// them by O(|V(G′)|/p), so one Theorem-2 run on E(G′)\E(H₁) finishes.
func remain(cx *solve.Ctx, f *labeled.Forest, env phaseEnv, p Params) {
	m := cx.M
	// Step 1–2: E_remain = E(G′) \ E(H₁), altered to current parents.
	Er := stage2.EdgesNotIn(cx, env.Gp, env.h1mask)
	defer cx.ReleaseEdges(Er)
	Er = labeled.Alter(m, f, Er)
	if len(Er) == 0 {
		return
	}
	// Step 3: drop loops and parallel edges.
	keys := cx.Grab64Cap(len(Er))
	for _, e := range Er {
		keys = append(keys, e.CanonKey())
	}
	Er = Er[:0]
	for _, k := range prim.DedupPairs(m, keys, true) {
		u, v := prim.UnpackEdge(k)
		Er = append(Er, graph.Edge{U: u, V: v})
	}
	cx.Release64(keys)
	// Step 4: Theorem 2.
	if len(Er) > 0 {
		ltz.SolveOn(cx, f, solve.VertexSet(cx, f.Len(), Er), Er, p.LTZ)
	}
}

// backstop completes any components left unfinished when the phase loop
// exhausts its budget under clamped practical parameters.  It is the same
// mechanism as REMAIN applied to all remaining non-loop edges of G′; under
// the paper's parameters it is provably never needed.
func backstop(cx *solve.Ctx, f *labeled.Forest, Gp []graph.Edge, p Params) bool {
	m := cx.M
	E := cx.CopyEdges(Gp)
	E = labeled.Alter(m, f, E)
	if len(E) == 0 {
		cx.ReleaseEdges(E)
		return false
	}
	ltz.SolveOn(cx, f, solve.VertexSet(cx, f.Len(), E), E, p.LTZ)
	cx.ReleaseEdges(E)
	return true
}

// activeRoots flags roots of V(G′) adjacent to any live non-loop edge.
func activeRoots(cx *solve.Ctx, f *labeled.Forest, roots []int32, sets ...[]graph.Edge) []int32 {
	m := cx.M
	flag := cx.Grab32(f.Len())
	for _, E := range sets {
		m.ForRange(len(E), 1, func(lo, hi, _ int) {
			for _, e := range E[lo:hi] {
				if e.U != e.V {
					pram.SetFlag(flag, int(f.P[e.U]))
					pram.SetFlag(flag, int(f.P[e.V]))
				}
			}
		})
	}
	var out []int32
	m.Contract(prim.LogStar(f.Len())+1, int64(len(roots)), func() {
		for _, v := range roots {
			if f.P[v] == v && flag[v] != 0 {
				out = append(out, v)
			}
		}
	})
	cx.Release32(flag)
	return out
}

func filterRounds(p Params, phase, n int) int {
	r := float64(p.FilterRoundsBase) * float64(prim.LogLog(n+4))
	for j := 0; j < phase; j++ {
		r *= p.FilterGrowth
	}
	if r > 4096 {
		r = 4096
	}
	if r < 1 {
		r = 1
	}
	return int(r)
}

func markVertexSet(cx *solve.Ctx, n int, E []graph.Edge) []int32 {
	m := cx.M
	flag := cx.Grab32(n)
	m.ForRange(len(E), 1, func(lo, hi, _ int) {
		for _, e := range E[lo:hi] {
			pram.SetFlag(flag, int(e.U))
			pram.SetFlag(flag, int(e.V))
		}
	})
	return flag
}

// SolveKnownGap runs the three-stage pipeline of §§4–6 (Theorem 3) with a
// fixed degree target b — the algorithm for graphs whose component-wise
// spectral gap is promised to be ≥ b^{-0.1}.  The result is exact for every
// input regardless of the promise, because SAMPLESOLVE's Theorem-2 call is
// followed by the same backstop cleanup CONNECTIVITY uses.  Scratch and
// dst are handled as in Connectivity.
func SolveKnownGap(cx *solve.Ctx, g *graph.Graph, b int, p Params, dst []int32) *Result {
	m := cx.M
	start := time.Now()
	f := labeled.NewOn(cx.A, g.N)
	m.ResetMarks()
	span := cx.Rec.Begin()

	// Stage 1: REDUCE.
	s1 := stage1.NewRunner(cx, f, p.Stage1)
	red := s1.Reduce(g)
	m.SetMark("stage1-reduce")
	span = cx.Rec.Lap(obs.PhaseReduce, span)

	// Stage 2: INCREASE to min degree b.
	s2p := stage2.DefaultParams(g.N, b)
	s2p.LTZ = p.LTZ
	E := cx.CopyEdges(red.Edges)
	if len(E) > 0 {
		stage2.Increase(cx, f, red.Roots, E, s2p)
	}
	m.SetMark("stage2-increase")
	span = cx.Rec.Lap(obs.PhaseIncrease, span)

	// Stage 3: SAMPLESOLVE on the current graph.
	active := activeRoots(cx, f, red.Roots, E)
	if len(active) > 0 {
		E = labeled.Alter(m, f, E)
		stage3.SampleSolve(cx, f, active, E, p.Stage3)
	}
	m.SetMark("stage3-samplesolve")
	span = cx.Rec.Lap(obs.PhaseSampleSolve, span)

	// Backstop for sampling losses (the §3.4 corner case / KKT cleanup).
	labeled.FlattenAll(m, f)
	usedBackstop := backstop(cx, f, red.Edges, p)
	labeled.FlattenAll(m, f)
	m.SetMark("backstop")
	span = cx.Rec.Lap(obs.PhaseFinish, span)

	labels, ncomp := f.FlatLabelsInto(dst)
	cx.Rec.End(obs.PhaseCount, span)
	res := &Result{
		Labels:        labels,
		NumComponents: ncomp,
		Steps:         m.Steps(),
		Work:          m.Work(),
		Elapsed:       time.Since(start),
		FinalB:        b,
		UsedBackstop:  usedBackstop,
		Breakdown:     m.Marks(),
	}
	s1.Free()
	cx.ReleaseEdges(E)
	cx.ReleaseEdges(red.Edges)
	f.Free()
	return res
}
