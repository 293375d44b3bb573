// Package stage2 implements §5 of the paper: increasing the minimum degree
// of the current graph to poly(log n) in O(log b) time.
//
//   - BUILD(V,E,b) (§5.1): the skeleton graph — degree estimation by hashing
//     edges into per-vertex tables, high/low classification, and
//     down-sampling of high–high edges;
//   - DENSIFY(H,b) (§5.2): O(log b) rounds of EXPAND-MAXLINK on the skeleton
//     followed by shortcuts and a Theorem-2 contraction of the accumulated
//     close edges;
//   - INCREASE(V,E,b) (§5.3): grouping vertices by their iterated parent
//     v.p^(2R+1), head marking, head hooking and leader sampling, after
//     which every surviving root has degree ≥ b in the current graph
//     (Lemma 5.25);
//   - the work-reduced variants of §7.3–7.4: SPARSEBUILD over the
//     pre-sampled subgraph H₂ and the auxiliary-array gathering of the
//     low-degree edge set E′ in O(|E′|) work.
//
// Simplification recorded here and in DESIGN.md: the paper materializes
// v.p^(2R+1) by composing 2R+2 recorded parent snapshots (§5.3.1).  After
// DENSIFY all trees over V are flat or height ≤ 2 and every hop of the
// composition follows a then-current parent, so the composition lands on the
// final root of v's tree (Lemma 5.21 shows it is a root, and v's tree has
// exactly one).  We therefore compute it by chasing the final forest, which
// yields the identical grouping with the same O(log b) time charge.
package stage2

import (
	"parcc/internal/graph"
	"parcc/internal/labeled"
	"parcc/internal/ltz"
	"parcc/internal/pram"
	"parcc/internal/prim"
	"parcc/internal/solve"
)

// Params carries the Stage-2 constants.  Paper values in comments.
type Params struct {
	// B is the current minimum-degree target b (paper: (log n)^100 in §5,
	// growing per phase in §7).
	B int
	// TableSize is the per-vertex hash table size (paper: b^9).
	TableSize int
	// HighOccupancy marks a vertex high when its table has more occupied
	// cells than this (paper: b^8).
	HighOccupancy int
	// SparseHighOccupancy is the high threshold when estimating from the
	// pre-sampled H₂ instead of E (§7.3.1).
	SparseHighOccupancy int
	// SampleP64 down-samples high–high edges in BUILD (paper: 1/b).
	SampleP64 uint64
	// HeadOccupancy is the head threshold in INCREASE Step 5 (paper: 2b).
	HeadOccupancy int
	// DensifyRounds is the EXPAND-MAXLINK round count (paper: 20·log b).
	DensifyRounds int
	// SolveRounds bounds the Theorem-2 call in DENSIFY Step 5.  Inside an
	// INTERWEAVE phase the paper limits each stage to O(log b) time (§3.4);
	// 0 means run to completion (the known-λ pipeline of §§4–6).
	SolveRounds int
	// ShortcutRounds flattens trees before collecting E_close
	// (paper: Θ(log log n), Lemma 5.9).
	ShortcutRounds int
	// LTZ configures the EXPAND-MAXLINK subroutine and Theorem-2 calls.
	LTZ ltz.Params
	// Seed drives hashing and sampling.
	Seed uint64
}

// DefaultParams returns the practical profile for target degree b on an
// n-vertex instance (paper formulas, polylog exponents reduced to small
// multiples; see DESIGN.md §4).
func DefaultParams(n, b int) Params {
	if b < 4 {
		b = 4
	}
	lp := ltz.DefaultParams(n)
	return Params{
		B:                   b,
		TableSize:           8 * b,
		HighOccupancy:       4 * b,
		SparseHighOccupancy: b,
		SampleP64:           pram.P64(1 / float64(b)),
		HeadOccupancy:       2 * b,
		DensifyRounds:       int(20 * prim.Log2Ceil(b+1)),
		ShortcutRounds:      int(2 * prim.LogLog(n+4)),
		LTZ:                 lp,
		Seed:                0x57a6e2,
	}
}

// Build runs BUILD(V,E,b) (§5.1) over the current graph (V = its vertices,
// all roots; E = its edges) and returns the skeleton edge set E′ with
// parallel edges and loops removed.  O(log b) time, O(m+n) work w.h.p.
func Build(cx *solve.Ctx, V []int32, E []graph.Edge, p Params) []graph.Edge {
	m := cx.M
	n32 := maxVertex(V, E) + 1
	// Steps 1–2: hash each edge endpoint into the other end's table.
	tbl := newTables(cx, V, p.TableSize, int(n32))
	h := prim.NewHash(p.Seed^0xb417d, p.TableSize)
	m.ForRange(len(E), 1, func(lo, hi, _ int) {
		for _, e := range E[lo:hi] {
			tbl.insert(e.V, h.Apply(e.U), e.U)
			tbl.insert(e.U, h.Apply(e.V), e.V)
		}
	})
	// Step 3: classify by occupancy.
	high := tbl.classify(m, p.HighOccupancy)
	// Step 4: keep low-adjacent edges; sample high–high edges w.p. 1/b.
	keep := cx.GrabEdgesCap(len(E)/2 + 16)
	m.Contract(1, int64(len(E)), func() {
		for i, e := range E {
			if high[e.U] == 0 || high[e.V] == 0 {
				keep = append(keep, e)
				continue
			}
			if pram.SplitMix64(p.Seed^0x5a3b1e^uint64(i)*0x9e3779b97f4a7c15) < p.SampleP64 {
				keep = append(keep, e)
			}
		}
	})
	// Step 5: remove parallel edges and loops (perfect hashing contract).
	out := prim.DedupEdges(m, keep)
	cx.ReleaseEdges(keep)
	tbl.free(cx, high)
	return out
}

// SparseBuild runs SPARSEBUILD(G′,H₂,b) (§7.3.1): degree estimation from the
// pre-sampled subgraph H₂ only, plus the auxiliary-array gather of all
// original edges adjacent to low parents, in O(|E′|) work (Lemma 7.13).
func SparseBuild(cx *solve.Ctx, f *labeled.Forest, active []int32, aux *Aux, H2 []graph.Edge, p Params) []graph.Edge {
	m := cx.M
	n := f.Len()
	tbl := newTables(cx, active, p.TableSize, n)
	h := prim.NewHash(p.Seed^0xb417d, p.TableSize)
	// Step 2: hash H₂ edges (both directions; loops excluded as self-keys).
	m.ForRange(len(H2), 1, func(lo, hi, _ int) {
		for _, e := range H2[lo:hi] {
			if e.U != e.V {
				tbl.insert(e.V, h.Apply(e.U), e.U)
				tbl.insert(e.U, h.Apply(e.V), e.V)
			}
		}
	})
	// Step 3: classify active roots by occupancy (threshold scaled for the
	// sampled estimate).
	high := tbl.classify(m, p.SparseHighOccupancy)
	// Step 4: E′ = original edges whose endpoint-parent is low, gathered
	// from the auxiliary array in O(|E′|) work, then altered.
	low := func(u int32) bool {
		pu := f.P[u]
		return tbl.has(pu) && high[pu] == 0
	}
	Ep := aux.Gather(m, low)
	Ep = labeled.Alter(m, f, Ep)
	// Step 5: return E′ ∪ E(H₂) (altered copy of H₂; H₂ itself is managed
	// by the caller across phases).
	out := append(Ep, H2...)
	out = labeled.Alter(m, f, out)
	tbl.free(cx, high)
	return out
}

// tables is a slab of per-root hash tables, entries storing vertex+1.
type tables struct {
	cx   *solve.Ctx
	pos  []int64 // pos+1 of each vertex's table; 0 = none
	size int
	slab []int32
	vs   []int32
}

func newTables(cx *solve.Ctx, V []int32, size, n int) *tables {
	m := cx.M
	t := &tables{cx: cx, pos: cx.Grab64(n), size: size, vs: V}
	t.slab = cx.Grab32(int(int64(size) * int64(len(V))))
	m.ChargeTime(prim.LogStar(n) + 1) // block assignment via compaction (§5.1 Step 1)
	m.ChargeWork(int64(len(V)))
	for i, v := range V {
		t.pos[v] = int64(i)*int64(size) + 1
	}
	return t
}

func (t *tables) has(v int32) bool { return t.pos[v] != 0 }

func (t *tables) insert(v int32, slot int, w int32) {
	p := t.pos[v]
	if p == 0 {
		return
	}
	pram.Store32(t.slab, int(p-1)+slot, w+1)
}

// free returns the tables' buffers (and an optional classify result) to
// the context's arena.
func (t *tables) free(cx *solve.Ctx, high []int32) {
	cx.Release64(t.pos)
	cx.Release32(t.slab)
	if high != nil {
		cx.Release32(high)
	}
	t.pos, t.slab = nil, nil
}

// classify counts occupied cells per table (binary-tree counting: O(log s)
// time, O(Σs) work; Lemma 5.1) and returns a flag array: 1 = high.
func (t *tables) classify(m *pram.Machine, thresh int) []int32 {
	high := t.cx.Grab32(len(t.pos))
	m.Contract(prim.Log2Ceil(t.size)+1, int64(len(t.slab)), func() {
		for _, v := range t.vs {
			p := t.pos[v] - 1
			c := 0
			for j := 0; j < t.size; j++ {
				if t.slab[p+int64(j)] != 0 {
					c++
				}
			}
			if c > thresh {
				high[v] = 1
			}
		}
	})
	return high
}

func maxVertex(V []int32, E []graph.Edge) int32 {
	var mx int32
	for _, v := range V {
		if v > mx {
			mx = v
		}
	}
	for _, e := range E {
		if e.U > mx {
			mx = e.U
		}
		if e.V > mx {
			mx = e.V
		}
	}
	return mx
}

// DensifyResult carries what INCREASE needs from DENSIFY.
type DensifyResult struct {
	Eclose []graph.Edge // the close-edge set (altered; loops dropped)
	Rounds int64        // EXPAND-MAXLINK rounds executed, Steps 1 and 5
}

// Densify runs DENSIFY(H,b) (§5.2.1) on the skeleton H = (V, EH), updating
// the shared forest, and returns E_close.
func Densify(cx *solve.Ctx, f *labeled.Forest, V []int32, EH []graph.Edge, p Params) DensifyResult {
	m := cx.M
	// Step 1: 20·log b rounds of EXPAND-MAXLINK.
	st := ltz.NewState(cx, f, V, EH, p.LTZ)
	rounds := int64(st.Run(p.DensifyRounds))
	// Step 3: shortcut + alter until the trees over V are flat.
	for r := 0; r < p.ShortcutRounds; r++ {
		labeled.Shortcut(m, f, V)
		st.Edges = labeled.Alter(m, f, st.Edges)
		st.Extra = labeled.Alter(m, f, st.Extra)
	}
	// Step 4: E_close = all current edges (altered originals + added).
	eclose := st.CurrentEdges()
	st.Free()
	// Step 5: Theorem 2 on (V(E_close), E_close) — round-limited inside an
	// INTERWEAVE phase (§3.4: each stage runs for O(log b) time), full
	// otherwise.
	if len(eclose) > 0 {
		verts := solve.VertexSet(cx, f.Len(), eclose)
		if p.SolveRounds > 0 {
			st2 := ltz.NewState(cx, f, verts, eclose, p.LTZ)
			rounds += int64(st2.Run(p.SolveRounds))
			st2.Free()
		} else {
			rounds += ltz.SolveOn(cx, f, verts, eclose, p.LTZ)
		}
	}
	// Step 6: ALTER(E_close).
	eclose = labeled.Alter(m, f, eclose)
	return DensifyResult{Eclose: eclose, Rounds: rounds}
}

// Increase runs INCREASE(V,E,b) (§5.3.1) over the current graph (V: its
// vertex set — roots after Stage 1; E: its edges, altered in place with
// loops retained for Stage 3).  Afterwards every root in the current graph
// has degree ≥ b, except roots of components already fully contracted
// (Lemma 5.24/5.25).  Returns E_close for inspection by tests.
func Increase(cx *solve.Ctx, f *labeled.Forest, V []int32, E []graph.Edge, p Params) []graph.Edge {
	// Step 1: skeleton.
	EH := Build(cx, V, E, p)
	// Step 2: densify.
	res := Densify(cx, f, V, EH, p)
	finishIncrease(cx, f, V, E, res.Eclose, p)
	return res.Eclose
}

// IncreaseSparse is the §7.3 variant: skeleton from the pre-sampled H₂ via
// the auxiliary array, then the same Steps 2–9, then ALTER(E(H₁)).
// H1 is altered in place (loops dropped); its remaining edges are returned.
func IncreaseSparse(cx *solve.Ctx, f *labeled.Forest, active []int32, aux *Aux, H1, H2 []graph.Edge, p Params) (h1 []graph.Edge, eclose []graph.Edge) {
	m := cx.M
	EH := SparseBuild(cx, f, active, aux, H2, p)
	res := Densify(cx, f, active, EH, p)
	finishIncrease(cx, f, active, nil, res.Eclose, p)
	h1 = labeled.Alter(m, f, H1)
	return h1, res.Eclose
}

// finishIncrease executes Steps 3–10 of INCREASE(V,E,b): regroup every
// vertex under its iterated parent, mark heads, hook non-heads, sample
// leaders, and re-alter E.  E may be nil (the sparse variant leaves the
// original edges untouched per §7, Definition 7.2).
func finishIncrease(cx *solve.Ctx, f *labeled.Forest, V []int32, E []graph.Edge, eclose []graph.Edge, p Params) {
	m := cx.M
	n := f.Len()
	pp := f.P

	// Steps 3–4: hash each v ∈ V into H′(u) for u = v.p^(2R+1) — the final
	// root of v's tree (see the package comment) — and set v.p = u.
	// Chasing is charged O(log b) time and O(|V|·log b) work as in the
	// paper's iterated-composition implementation (proof of Lemma 5.19).
	anc := cx.Grab32(len(V))
	m.Contract(prim.Log2Ceil(p.B+1)+1, int64(len(V))*(prim.Log2Ceil(p.B+1)+1), func() {
		for i, v := range V {
			anc[i] = f.Root(v)
		}
	})
	tbl := newTables(cx, rootsOf(m, V, anc), p.TableSize, n)
	h := prim.NewHash(p.Seed^0x4ead, p.TableSize)
	m.ForRange(len(V), 1, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			v, u := V[i], anc[i]
			tbl.insert(u, h.Apply(v), v)
			pram.Store32(pp, int(v), u)
		}
	})

	// Step 5: heads have at least HeadOccupancy occupied cells.
	head := tbl.classify(m, p.HeadOccupancy-1)

	// Step 6: non-heads adjacent to heads via non-loop close edges hook on.
	m.ForRange(len(eclose), 1, func(lo, hi, _ int) {
		for _, e := range eclose[lo:hi] {
			if e.U != e.V {
				hookHead(pp, head, e.U, e.V)
				hookHead(pp, head, e.V, e.U)
			}
		}
	})

	// Step 7: SHORTCUT(V).
	labeled.Shortcut(m, f, V)

	// Step 8: leader sampling w.p. 1/2; non-leader roots w adjacent to a
	// leader v get w.p.p = v.p.
	leaderSeed := p.Seed ^ 0x1ead3a
	isLeader := func(v int32) bool {
		return pram.SplitMix64(leaderSeed^uint64(uint32(v)))&1 == 1
	}
	m.ForRange(len(eclose), 1, func(lo, hi, _ int) {
		for _, e := range eclose[lo:hi] {
			if e.U != e.V {
				leaderHook(pp, e.U, e.V, isLeader)
				leaderHook(pp, e.V, e.U, isLeader)
			}
		}
	})

	// Step 9: SHORTCUT(V).
	labeled.Shortcut(m, f, V)

	// Step 10: ALTER(E) (loops retained: Stage 3 samples every edge, §5.3).
	if E != nil {
		labeled.AlterKeep(m, f, E)
	}
	tbl.free(cx, head)
	cx.Release32(anc)
}

func hookHead(p []int32, head []int32, v, w int32) {
	// if v is a head and w is a non-head then w.p = v (Step 6).
	if head[v] == 1 && head[w] == 0 {
		pram.Store32(p, int(w), v)
	}
}

func leaderHook(p []int32, v, w int32, isLeader func(int32) bool) {
	// if v is a leader and w a non-leader then w.p.p = v.p (Step 8).
	if isLeader(v) && !isLeader(w) {
		pw := pram.Load32(p, int(w))
		pv := pram.Load32(p, int(v))
		pram.Store32(p, int(pw), pv)
	}
}

func rootsOf(m *pram.Machine, V []int32, anc []int32) []int32 {
	var out []int32
	m.Contract(1, int64(len(V)), func() {
		seen := make(map[int32]struct{}, len(V))
		for _, u := range anc {
			if _, ok := seen[u]; ok {
				continue
			}
			seen[u] = struct{}{}
			out = append(out, u)
		}
	})
	return out
}
