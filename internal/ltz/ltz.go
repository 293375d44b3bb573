// Package ltz implements the PRAM connectivity algorithm of Liu, Tarjan and
// Zhong [LTZ20] — Theorem 2 of the paper — in the form the paper itself
// restates it: the EXPAND-MAXLINK subroutine of §5.2.1 (Steps 1–10) with
// per-vertex levels ℓ(v), budgets β_ℓ, hash tables, and dormancy, iterated
// until every edge of the current graph is a loop.  It runs in
// O(log d + log log n) rounds and is invoked throughout Stages 2–3 and the
// overall CONNECTIVITY driver, both round-limited and to completion.
//
// Representation note (recorded in DESIGN.md): the paper stores added edges
// as items inside each vertex's historical hash-table blocks ("the
// non-maximum-size blocks contain the added edges").  We keep the hash
// tables as per-round scratch — used exactly as the pseudocode does for
// duplicate detection, budget-bounded expansion and dormancy — and append
// their contents to an explicit added-edge list, which is the same edge set
// in a flat representation.  MAXLINK's argmax uses an atomic max on a packed
// (level, vertex) word, the O(1)-time equivalent of the indexed-table argmax
// in the proof of Lemma 5.8.
package ltz

import (
	"math"

	"parcc/internal/graph"
	"parcc/internal/labeled"
	"parcc/internal/obs"
	"parcc/internal/pram"
	"parcc/internal/prim"
	"parcc/internal/solve"
)

// Params configures EXPAND-MAXLINK.  Paper values are given in comments;
// defaults are the practical profile (see DESIGN.md §4).
type Params struct {
	// Beta1 is the level-1 budget/table size (paper: (log n)^80, Eq. 2).
	Beta1 int
	// BetaGrowth is the per-level budget multiplier (paper: β_ℓ = β1^(1.01^(ℓ-1)),
	// i.e. slightly super-geometric; practical: geometric factor 2).
	BetaGrowth float64
	// LevelUpExp is x in the Step-3 level-up probability β(v)^(-x)
	// (paper: 0.06).
	LevelUpExp float64
	// TableCap bounds any single table size (memory guard; the paper's
	// unbounded processor pool has no analogue of this).
	TableCap int
	// MaxRounds bounds Solve; 0 means 4·log2(n)+64.  The bound exists only
	// as a safety net: if it is ever hit, Solve falls back to deterministic
	// min-hooking so the result is still correct.
	MaxRounds int
	// DedupThreshold triggers a dedup of the added-edge list when it grows
	// past this multiple of the original edge count (default 4).
	DedupThreshold int
	// Seed drives all coin flips and hash choices.
	Seed uint64
}

// DefaultParams returns the practical profile for an n-vertex instance.
func DefaultParams(n int) Params {
	return Params{
		Beta1:          8,
		BetaGrowth:     2,
		LevelUpExp:     0.25,
		TableCap:       1 << 14,
		DedupThreshold: 4,
		Seed:           0x1cebe11a,
	}
}

// PaperParams returns the paper's formulas, clamped to feasible sizes (the
// clamp is unavoidable: (log n)^80 overflows memory for any real n).
func PaperParams(n int) Params {
	p := DefaultParams(n)
	lg := math.Log2(float64(n) + 2)
	b := math.Pow(lg, 80)
	if b > 1<<14 {
		b = 1 << 14
	}
	p.Beta1 = int(b)
	if p.Beta1 < 4 {
		p.Beta1 = 4
	}
	p.BetaGrowth = 1.01 // per-level exponent growth approximated geometrically
	p.LevelUpExp = 0.06
	return p
}

// State is the mutable state of an EXPAND-MAXLINK run over a sub-instance:
// a vertex set V(H) and an edge set, sharing the global labeled digraph.
type State struct {
	M      *pram.Machine
	F      *labeled.Forest
	V      []int32      // V(H): the vertices of this sub-instance
	Edges  []graph.Edge // altered original edges of H (loops removed)
	Extra  []graph.Edge // added edges (hash-table items), altered alongside
	Level  []int32      // global level field ℓ(v); len == F.Len()
	P      Params
	cx     *solve.Ctx
	best   []int64 // maxlink scratch; len == F.Len()
	origM  int
	round  int64
	budget []int64 // budget by level (precomputed, capped)
	upP64  []uint64
}

// NewState prepares a run over vertex set V and edge set E (copied).  The
// level field is fresh (all ones, per §5.2.1).  The level field, the
// maxlink scratch, the edge copy, and every per-round table are drawn from
// the context's arena; pair it with Free.
func NewState(cx *solve.Ctx, f *labeled.Forest, V []int32, E []graph.Edge, p Params) *State {
	m := cx.M
	s := &State{
		M:     m,
		F:     f,
		V:     V,
		Edges: cx.CopyEdges(E),
		Level: cx.Grab32(f.Len()),
		P:     p,
		cx:    cx,
		best:  cx.Grab64(f.Len()),
		origM: len(E) + 1,
	}
	for i := range s.Level {
		s.Level[i] = 1
	}
	s.precompute()
	// Drop initial loops.
	s.Edges = labeled.Alter(m, f, s.Edges)
	return s
}

// Free returns the state's arena buffers.  The state (and the edge slices
// it handed out via CurrentEdges) must not be used afterwards.
func (s *State) Free() {
	s.cx.Release32(s.Level)
	s.cx.Release64(s.best)
	s.cx.ReleaseEdges(s.Edges)
	s.Level, s.best, s.Edges = nil, nil, nil
}

func (s *State) precompute() {
	const maxLevel = 64
	s.budget = make([]int64, maxLevel)
	s.upP64 = make([]uint64, maxLevel)
	b := float64(s.P.Beta1)
	for l := 0; l < maxLevel; l++ {
		if b > float64(s.P.TableCap) {
			b = float64(s.P.TableCap)
		}
		s.budget[l] = int64(b)
		if s.budget[l] < 4 {
			s.budget[l] = 4
		}
		s.upP64[l] = pram.P64(math.Pow(float64(s.budget[l]), -s.P.LevelUpExp))
		b *= s.P.BetaGrowth
	}
}

func (s *State) budgetOf(level int32) int64 {
	if int(level) >= len(s.budget) {
		return s.budget[len(s.budget)-1]
	}
	if level < 1 {
		level = 1
	}
	return s.budget[level-1]
}

// CurrentEdges returns all edges of the current graph (altered originals
// plus added edges): the paper's E_close ingredient.
func (s *State) CurrentEdges() []graph.Edge {
	out := make([]graph.Edge, 0, len(s.Edges)+len(s.Extra))
	out = append(out, s.Edges...)
	out = append(out, s.Extra...)
	return out
}

// Done reports whether every edge of the current graph is a loop (they have
// all been removed by ALTER), i.e. every component of H is contracted.
func (s *State) Done() bool { return len(s.Edges) == 0 && len(s.Extra) == 0 }

// Rounds returns the number of EXPAND-MAXLINK rounds executed.
func (s *State) Rounds() int64 { return s.round }

// Run executes up to `rounds` EXPAND-MAXLINK rounds, stopping early when the
// instance is fully contracted.  It returns the rounds actually executed.
func (s *State) Run(rounds int) int {
	for r := 0; r < rounds; r++ {
		if s.Done() {
			return r
		}
		s.Round()
	}
	return rounds
}

// Round executes one EXPAND-MAXLINK(H) (§5.2.1 Steps 1–10) and counts it
// on the context recorder's ltz_rounds counter (a no-op with tracing off),
// so every caller of Run, Round or SolveOn is counted.
func (s *State) Round() {
	m, f := s.M, s.F
	s.round++
	s.cx.Rec.Add(obs.CtrLTZRounds, 1)
	n := f.Len()

	// Step 2: MAXLINK(V); ALTER(E).
	s.maxlink()
	s.Edges = labeled.Alter(m, f, s.Edges)
	s.Extra = labeled.Alter(m, f, s.Extra)

	// Identify active roots and allocate this round's tables.
	roots := s.cx.Grab32Cap(len(s.V))
	for _, v := range s.V {
		if f.IsRoot(v) {
			roots = append(roots, v)
		}
	}
	m.ChargeTime(1)
	m.ChargeWork(int64(len(s.V)))

	// Step 3: each root levels up w.p. β(v)^(-exp).
	lvl := s.Level
	step := s.round * 131
	m.ForRange(len(roots), 1, func(lo, hi, _ int) {
		for _, v := range roots[lo:hi] {
			if m.Coin(step, int(v), s.upP64[min(int(lvl[v])-1, len(s.upP64)-1)]) {
				lvl[v]++
			}
		}
	})

	// Table layout: per-root offset into a shared slab.
	tblPos := s.cx.Grab64(n) // position+1 of v's table; 0 = none
	var slabSize int64
	offs := s.cx.Grab64(len(roots) + 1)
	for i, v := range roots {
		offs[i] = slabSize
		slabSize += s.budgetOf(lvl[v])
	}
	offs[len(roots)] = slabSize
	m.ChargeTime(1)
	m.ChargeWork(int64(len(roots)))
	slab := s.cx.Grab32(int(slabSize)) // entries store vertex+1; 0 = empty
	dormant := s.cx.Grab32(n)
	collide := s.cx.Grab32(n)
	for i, v := range roots {
		tblPos[v] = offs[i] + 1
	}

	hashInto := func(v int32, w int32) {
		// hash w into H(v); record collisions on v.
		pos := tblPos[v] - 1
		size := s.budgetOf(lvl[v])
		slot := pos + int64(pram.SplitMix64(s.P.Seed^uint64(s.round)<<40^uint64(uint32(w)))%uint64(size))
		pram.Store32(slab, int(slot), w+1)
	}
	verify := func(v, w int32) {
		pos := tblPos[v] - 1
		size := s.budgetOf(lvl[v])
		slot := pos + int64(pram.SplitMix64(s.P.Seed^uint64(s.round)<<40^uint64(uint32(w)))%uint64(size))
		if pram.Load32(slab, int(slot)) != w+1 {
			pram.SetFlag(collide, int(v))
		}
	}

	// Step 4: for each root v, hash each equal-budget root w ∈ N*(v) into
	// H(v).  Edge-centric over the current graph, both directions, then a
	// verification pass that detects collisions (the winner of a slot is
	// arbitrary; a loser observing a different value means two distinct
	// keys collided).
	forEachCurrent := func(body func(u, v int32)) {
		for _, E := range [2][]graph.Edge{s.Edges, s.Extra} {
			m.ForRange(len(E), 1, func(lo, hi, _ int) {
				for _, e := range E[lo:hi] {
					body(e.U, e.V)
					body(e.V, e.U)
				}
			})
		}
	}
	hashEq := func(v, w int32) {
		// hash w into H(v) when both are roots of equal budget
		if tblPos[v] == 0 || tblPos[w] == 0 {
			return
		}
		if s.budgetOf(lvl[v]) != s.budgetOf(lvl[w]) {
			return
		}
		hashInto(v, w)
	}
	forEachCurrent(func(u, v int32) { hashEq(v, u) })
	forEachCurrent(func(u, v int32) {
		if tblPos[v] == 0 || tblPos[u] == 0 || s.budgetOf(lvl[v]) != s.budgetOf(lvl[u]) {
			return
		}
		verify(v, u)
	})

	// Step 5: roots with collisions become dormant; then any vertex whose
	// table contains a dormant vertex becomes dormant.
	m.ForRange(len(roots), 1, func(lo, hi, _ int) {
		for _, v := range roots[lo:hi] {
			if pram.Flag(collide, int(v)) {
				pram.SetFlag(dormant, int(v))
			}
		}
	})
	scanWork := slabSize
	m.ForWork(len(roots), scanWork, func(i int) {
		v := roots[i]
		lo, hi := offs[i], offs[i+1]
		for j := lo; j < hi; j++ {
			w := pram.Load32(slab, int(j))
			if w != 0 && pram.Flag(dormant, int(w-1)) {
				pram.SetFlag(dormant, int(v))
				return
			}
		}
	})

	// Step 6: two-hop expansion — for each root v, for each w ∈ H(v), hash
	// every u ∈ H(w) into H(v); collisions make v dormant.  New pairs are
	// the "added edges" collected below.
	var pairWork int64
	pairCount := []int64{0}
	m.Contract(1, 0, func() {
		m.For(len(roots), func(i int) {
			v := roots[i]
			if pram.Flag(dormant, int(v)) {
				return
			}
			lo, hi := offs[i], offs[i+1]
			var local int64
			for j := lo; j < hi; j++ {
				w := pram.Load32(slab, int(j))
				if w == 0 {
					continue
				}
				wi := w - 1
				if tblPos[wi] == 0 || wi == v {
					continue
				}
				wlo := tblPos[wi] - 1
				whi := wlo + s.budgetOf(lvl[wi])
				for k := wlo; k < whi; k++ {
					u := pram.Load32(slab, int(k))
					if u == 0 {
						continue
					}
					local++
					hashInto(v, u-1)
				}
			}
			pram.Add64(pairCount, 0, local)
		})
		// Verify pass for step-6 collisions.
		m.For(len(roots), func(i int) {
			v := roots[i]
			if pram.Flag(dormant, int(v)) {
				return
			}
			lo, hi := offs[i], offs[i+1]
			for j := lo; j < hi; j++ {
				w := pram.Load32(slab, int(j))
				if w != 0 {
					verify(v, w-1)
				}
			}
			if pram.Flag(collide, int(v)) {
				pram.SetFlag(dormant, int(v))
			}
		})
	})
	pairWork = pairCount[0]
	m.ChargeWork(pairWork + slabSize)

	// Collect added edges (the table items) into the explicit list.
	m.Contract(1, slabSize, func() {
		for i, v := range roots {
			lo, hi := offs[i], offs[i+1]
			for j := lo; j < hi; j++ {
				w := slab[j]
				if w != 0 && w-1 != v {
					s.Extra = append(s.Extra, graph.Edge{U: v, V: w - 1})
				}
			}
		}
	})

	// Step 7: MAXLINK(V); SHORTCUT(V); ALTER(E(V)).
	s.maxlink()
	labeled.Shortcut(m, f, s.V)
	s.Edges = labeled.Alter(m, f, s.Edges)
	s.Extra = labeled.Alter(m, f, s.Extra)

	// Step 8: dormant roots that did not level up in Step 3 level up now.
	// (We approximate "did not increase level in Step 3" by capping one
	// increase per round: Step 3 winners already advanced, so advancing
	// dormant roots unconditionally would double-step them; track parity.)
	m.ForRange(len(roots), 1, func(lo, hi, _ int) {
		for _, v := range roots[lo:hi] {
			if f.IsRoot(v) && pram.Flag(dormant, int(v)) && !m.Coin(step, int(v), s.upP64[min(int(lvl[v])-1, len(s.upP64)-1)]) {
				lvl[v]++
			}
		}
	})

	// Step 9 is implicit: next round's table sizes derive from the levels.

	s.cx.Release32(slab)
	s.cx.Release32(dormant)
	s.cx.Release32(collide)
	s.cx.Release64(tblPos)
	s.cx.Release64(offs)
	s.cx.Release32(roots)

	// Keep the added-edge list tidy (duplicates are semantically harmless
	// but cost work): dedup when it outgrows the threshold.
	if s.P.DedupThreshold > 0 && len(s.Extra) > s.P.DedupThreshold*s.origM {
		s.dedupExtra()
	}
}

// maxlink is MAXLINK(V) (§5.2.1): two iterations of linking each vertex to
// the maximum-level parent among its closed neighborhood's parents.  An
// iteration's link step touches only the vertex's own best and parent
// cells, so it shares a pass with the next iteration's seeding step.
func (s *State) maxlink() {
	m, f := s.M, s.F
	p := f.P
	lvl := s.Level
	best := s.best
	pack := func(w int32) int64 { return int64(lvl[w])<<32 | int64(uint32(w)) }
	seed := func(v int32) {
		pram.Store64(best, int(v), pack(pram.Load32(p, int(v))))
	}
	link := func(v int32) {
		b := pram.Load64(best, int(v))
		if int32(b>>32) > lvl[v] {
			pram.Store32(p, int(v), int32(uint32(b)))
		}
	}
	prop := func(E []graph.Edge) {
		m.ForRange(len(E), 1, func(lo, hi, _ int) {
			for _, e := range E[lo:hi] {
				pram.Max64(best, int(e.U), pack(pram.Load32(p, int(e.V))))
				pram.Max64(best, int(e.V), pack(pram.Load32(p, int(e.U))))
			}
		})
	}
	m.ForRange(len(s.V), 1, func(lo, hi, _ int) {
		for _, v := range s.V[lo:hi] {
			seed(v)
		}
	})
	prop(s.Edges)
	prop(s.Extra)
	m.ForRange(len(s.V), 2, func(lo, hi, _ int) {
		for _, v := range s.V[lo:hi] {
			link(v)
			seed(v)
		}
	})
	prop(s.Edges)
	prop(s.Extra)
	m.ForRange(len(s.V), 1, func(lo, hi, _ int) {
		for _, v := range s.V[lo:hi] {
			link(v)
		}
	})
}

func (s *State) dedupExtra() {
	m := s.M
	keys := s.cx.Grab64Cap(len(s.Extra))
	for _, e := range s.Extra {
		keys = append(keys, e.CanonKey())
	}
	m.Contract(1, int64(len(keys)), func() {})
	seen := make(map[int64]struct{}, len(keys))
	out := s.Extra[:0]
	for _, k := range keys {
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		u, v := prim.UnpackEdge(k)
		out = append(out, graph.Edge{U: u, V: v})
	}
	s.cx.Release64(keys)
	s.Extra = out
}

// SolveOn runs the Theorem-2 algorithm to completion on the sub-instance
// (V, E), updating the shared forest.  If the safety round cap is hit (never
// observed in practice; the cap exists because our budgets are the practical
// profile, not the paper's polylogs), it falls back to deterministic
// min-hooking so the contraction always completes.  Returns rounds used.
func SolveOn(cx *solve.Ctx, f *labeled.Forest, V []int32, E []graph.Edge, p Params) int64 {
	s := NewState(cx, f, V, E, p)
	defer s.Free()
	maxR := p.MaxRounds
	if maxR <= 0 {
		maxR = 4*prim.Log2Floor(len(f.P)+2) + 64
	}
	for r := 0; r < maxR; r++ {
		if s.Done() {
			return s.round
		}
		s.Round()
	}
	if !s.Done() {
		minHookFallback(cx, f, s.CurrentEdges())
	}
	return s.round
}

// Solve computes the connected components of g from scratch with the LTZ
// algorithm, returning the forest (flattened).
func Solve(m *pram.Machine, g *graph.Graph, p Params) *labeled.Forest {
	f := labeled.New(g.N)
	V := make([]int32, g.N)
	m.Iota32(V)
	SolveOn(solve.New(m), f, V, g.Edges, p)
	labeled.FlattenAll(m, f)
	return f
}

// minHookFallback contracts the remaining edges by repeated minimum-root
// hooking + shortcut.  Deterministic, always terminates, O(log n · |E|)
// work in the worst case; used only as a correctness backstop.
func minHookFallback(cx *solve.Ctx, f *labeled.Forest, E []graph.Edge) {
	m := cx.M
	E = labeled.Alter(m, f, E)
	p := f.P
	tgt := cx.Grab64(f.Len())
	defer cx.Release64(tgt)
	for len(E) > 0 {
		m.For(len(E), func(i int) {
			e := E[i]
			pram.Store64(tgt, int(e.U), int64(e.U))
			pram.Store64(tgt, int(e.V), int64(e.V))
		})
		m.For(len(E), func(i int) {
			e := E[i]
			pram.Min64(tgt, int(e.U), int64(e.V))
			pram.Min64(tgt, int(e.V), int64(e.U))
		})
		m.For(len(E), func(i int) {
			e := E[i]
			hookMin(p, e.U, tgt)
			hookMin(p, e.V, tgt)
		})
		labeled.ShortcutAll(m, f)
		E = labeled.Alter(m, f, E)
	}
}

func hookMin(p []int32, v int32, tgt []int64) {
	if pram.Load32(p, int(v)) != v {
		return
	}
	t := int32(tgt[v])
	if t < v {
		pram.Store32(p, int(v), t)
	}
}
