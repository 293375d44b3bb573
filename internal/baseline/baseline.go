// Package baseline implements the comparison algorithms the paper positions
// itself against:
//
//   - sequential BFS labelling (ground truth; the O(m) sequential optimum
//     [Tar72]);
//   - union-find with path compression and union by rank;
//   - Shiloach–Vishkin / Awerbuch–Shiloach CRCW connectivity [SV82, AS87]:
//     O(log n) time, Θ((m+n) log n) work;
//   - Reif's random-mate contraction [Rei84]: O(log n) time, Θ((m+n) log n)
//     work in this form;
//   - synchronous minimum-label propagation: Θ(d) rounds.
//
// The PRAM variants run on the simulator and charge per-round costs, so the
// work/time comparisons in experiments E2/E10 are model-level, not
// wall-clock artifacts.
package baseline

import (
	"slices"

	"parcc/internal/graph"
	"parcc/internal/labeled"
	"parcc/internal/par"
	"parcc/internal/pram"
	"parcc/internal/prim"
)

// BFSLabels returns component labels (smallest vertex in the component) by
// sequential breadth-first search.  Used as ground truth everywhere.
func BFSLabels(g *graph.Graph) []int32 {
	return BFSLabelsCSR(graph.BuildCSR(g), g.N, nil)
}

// BFSLabelsCSR runs the BFS labeling over a prebuilt adjacency, writing
// into dst when it has the capacity.
func BFSLabelsCSR(csr *graph.CSR, n int, dst []int32) []int32 {
	queue := make([]int32, 0, 1024)
	labels := dst
	if cap(labels) < n {
		labels = make([]int32, n)
	}
	labels = labels[:n]
	for i := range labels {
		labels[i] = -1
	}
	for s := 0; s < n; s++ {
		if labels[s] >= 0 {
			continue
		}
		root := int32(s)
		labels[s] = root
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range csr.Neighbors(v) {
				if labels[w] < 0 {
					labels[w] = root
					queue = append(queue, w)
				}
			}
		}
	}
	return labels
}

// UnionFind is a sequential disjoint-set forest with union by rank and path
// compression.
type UnionFind struct {
	parent []int32
	rank   []int32
	count  int
}

// NewUnionFind returns a forest of n singletons.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{parent: make([]int32, n), rank: make([]int32, n), count: n}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

// Find returns the representative of x with path compression.
func (u *UnionFind) Find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// Union merges the sets of a and b; reports whether they were distinct.
func (u *UnionFind) Union(a, b int32) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	u.count--
	return true
}

// Count returns the number of disjoint sets.
func (u *UnionFind) Count() int { return u.count }

// UnionFindLabels labels components with a sequential union-find pass:
// each vertex gets its set's representative, which need not be the
// component minimum.
func UnionFindLabels(g *graph.Graph) []int32 {
	u := NewUnionFind(g.N)
	for _, e := range g.Edges {
		u.Union(e.U, e.V)
	}
	labels := make([]int32, g.N)
	for v := range labels {
		labels[v] = u.Find(int32(v))
	}
	return labels
}

// ShiloachVishkin runs the Awerbuch–Shiloach simplification of the
// Shiloach–Vishkin connectivity algorithm on the machine and returns the
// resulting forest.  Each round performs conditional star hooking,
// unconditional star hooking, and a shortcut, each a full O(m+n)-work step,
// for O(log n) rounds: Θ((m+n) log n) total work.
func ShiloachVishkin(m *pram.Machine, g *graph.Graph) *labeled.Forest {
	n := g.N
	f := labeled.New(n)
	p := f.P
	old := make([]int32, n) // pre-step snapshot: PRAM steps read old state
	star := make([]int32, n)
	tmp := make([]int32, n)
	changed := []int32{1}
	snapshot := func() {
		m.For(n, func(v int) { old[v] = pram.Load32(p, v) })
	}
	// Past this cap the star-hooking step is disabled: conditional hooking
	// plus shortcutting alone is a terminating, correct (slower) algorithm,
	// so the cap is a liveness backstop, never a correctness risk.
	capRounds := 4*log2ceil(n) + 64
	for rounds := 0; changed[0] != 0; rounds++ {
		changed[0] = 0
		// Conditional hooking: roots hook onto strictly smaller roots.
		snapshot()
		m.For(len(g.Edges), func(i int) {
			e := g.Edges[i]
			hookCond(p, old, e.U, e.V, changed)
			hookCond(p, old, e.V, e.U, changed)
		})
		if rounds <= capRounds {
			computeStars(m, p, star)
			// Unconditional hooking for stars (onto any different root).
			snapshot()
			m.For(len(g.Edges), func(i int) {
				e := g.Edges[i]
				if pram.Flag(star, int(e.U)) {
					hookStar(p, old, star, e.U, e.V, changed)
				}
				if pram.Flag(star, int(e.V)) {
					hookStar(p, old, star, e.V, e.U, changed)
				}
			})
		}
		// Shortcut (synchronous: gather grandparents, then write).
		m.For(n, func(v int) {
			pv := pram.Load32(p, v)
			gp := pram.Load32(p, int(pv))
			if gp != pv {
				pram.SetFlag(changed, 0)
			}
			tmp[v] = gp
		})
		m.For(n, func(v int) { pram.Store32(p, v, tmp[v]) })
	}
	return f
}

// Hooking discipline.  Both hook kinds decide purely from the pre-step
// snapshot (old) and write the live array, and both require the target pv
// to be a root *in the snapshot*.  Deciding from a racy live read instead
// (a previous revision checked p[pv]==pv at write time) admits hooking
// cycles: with k mutually adjacent stars, all k check-then-write pairs can
// interleave so every check passes before any write lands, producing a
// k-cycle of parent pointers — and the synchronous shortcut only permutes a
// cycle (a 2-cycle resets to two roots, a 3-cycle maps to its inverse), so
// the round repeats forever.  Snapshot-only decisions make the write set of
// a step a deterministic function of the pre-step state, independent of the
// goroutine interleaving; the rules below then forbid cycles outright.
//
// No-cycle argument: every write targets p[pu] for a snapshot root pu, so a
// cycle could only pass through written roots, following pu -> pv where pv
// is the next written root on the cycle.  In the conditional step every
// edge has pv < pu — a strictly decreasing cycle is impossible.  In the
// star step a written root is a star root; hooking onto a *larger* target
// is allowed only when the target's tree is not a star, so an edge of the
// cycle pointing at a written (star) root must again have pv < pu.  Roots
// therefore never resurrect, |roots| is non-increasing and drops on every
// hook, and shortcut-only rounds strictly reduce total height: the loop
// terminates under any write interleaving.

// hookCond points u's snapshot root at v's snapshot parent when the latter
// is a strictly smaller snapshot root.
func hookCond(p, old []int32, u, v int32, changed []int32) {
	pu := old[u]
	if old[pu] != pu {
		return
	}
	pv := old[v]
	if old[pv] == pv && pv < pu {
		pram.Store32(p, int(pu), pv)
		pram.SetFlag(changed, 0)
	}
}

// hookStar hooks the root of a star vertex u onto v's snapshot parent: any
// smaller root, or a larger root whose tree is not a star (a larger star
// would reciprocate and could close a 2-cycle; it hooks onto us instead).
func hookStar(p, old, star []int32, u, v int32, changed []int32) {
	pu := old[u]
	if old[pu] != pu {
		return
	}
	pv := old[v]
	if pv == pu || old[pv] != pv {
		return
	}
	if pv < pu || !pram.Flag(star, int(pv)) {
		pram.Store32(p, int(pu), pv)
		pram.SetFlag(changed, 0)
	}
}

func log2ceil(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// computeStars marks star[v] = 1 iff v belongs to a tree of height ≤ 1,
// using the standard three-step procedure.
func computeStars(m *pram.Machine, p []int32, star []int32) {
	n := len(p)
	m.For(n, func(v int) { star[v] = 1 })
	m.For(n, func(v int) {
		pv := pram.Load32(p, v)
		gp := pram.Load32(p, int(pv))
		if gp != pv {
			pram.Store32(star, v, 0)
			pram.Store32(star, int(gp), 0)
		}
	})
	m.For(n, func(v int) {
		pv := pram.Load32(p, v)
		if !pram.Flag(star, int(pv)) {
			pram.Store32(star, v, 0)
		}
	})
}

// RandomMate runs Reif's random-mate contraction: every round each root
// flips a coin; head-roots hook onto adjacent tail-roots; then a shortcut.
// O(log n) rounds w.h.p., full edge scans per round.
func RandomMate(m *pram.Machine, g *graph.Graph, seed uint64) *labeled.Forest {
	f := labeled.New(g.N)
	p := f.P
	E := slices.Clone(g.Edges)
	coin := make([]int32, g.N)
	round := int64(0)
	for len(E) > 0 {
		round++
		m.For(g.N, func(v int) {
			if pram.SplitMix64(seed^uint64(round)<<32^uint64(v))&1 == 1 {
				coin[v] = 1
			} else {
				coin[v] = 0
			}
		})
		m.For(len(E), func(i int) {
			e := E[i]
			uRoot := pram.Load32(p, int(e.U)) == e.U
			vRoot := pram.Load32(p, int(e.V)) == e.V
			if !uRoot || !vRoot {
				return
			}
			if coin[e.U] == 1 && coin[e.V] == 0 {
				pram.Store32(p, int(e.U), e.V)
			} else if coin[e.V] == 1 && coin[e.U] == 0 {
				pram.Store32(p, int(e.V), e.U)
			}
		})
		labeled.ShortcutAll(m, f)
		E = labeled.Alter(m, f, E)
	}
	return f
}

// LabelProp runs synchronous minimum-label propagation until fixpoint:
// Θ(diameter) rounds.  Returns labels directly.
//
// The rounds are frontier-driven (par.Frontier): only vertices whose label
// changed in the previous round push their label across their incident
// edges, and only vertices whose shadow value actually dropped are
// committed and re-seeded.  A vertex outside the frontier pushed its
// (unchanged) label the last time it changed — and labels only decrease —
// so the skipped pushes are exactly the redundant ones: the label
// evolution is round-identical to the classic dense formulation (snapshot,
// relax every edge, commit every vertex), while the charged work per round
// is Σ deg over the frontier plus the touched-set commit instead of
// m + n.  lab64 is a persistent shadow of lab (equal at every round
// boundary), so no per-round snapshot pass runs at all.
func LabelProp(m *pram.Machine, g *graph.Graph) []int32 {
	n := g.N
	csr := graph.BuildPlanOn(m.Exec(), g).CSR
	lab := make([]int32, n)
	m.Iota32(lab)
	lab64 := make([]int64, n)
	m.For(n, func(v int) { lab64[v] = int64(lab[v]) })
	// The frontier pair stays in full/sparse-list mode throughout so the
	// machine's per-index loops can address it by position.
	cur := par.NewFrontier(nil, n)
	touched := par.NewFrontier(nil, n)
	cur.SeedAll()
	// Hoisted round bodies: the rounds share two closures instead of
	// allocating two per round.
	relax := func(i int) {
		v := cur.At(i)
		lv := int64(lab[v])
		for _, u := range csr.Neighbors(v) {
			// The pre-check makes membership exact: u is touched iff its
			// shadow strictly dropped (whoever wins the racing Min64, some
			// strict lowerer also Adds u; the bitmap dedups).
			if lv < pram.Load64(lab64, int(u)) {
				pram.Min64(lab64, int(u), lv)
				touched.Add(u)
			}
		}
	}
	commit := func(i int) {
		v := touched.At(i)
		lab[v] = int32(lab64[v])
	}
	for cur.Count() > 0 {
		touched.BeginCollect(true)
		var relaxWork int64
		for i, l := 0, cur.Len(); i < l; i++ {
			relaxWork += int64(csr.Deg(cur.At(i)))
		}
		m.ForWork(cur.Len(), relaxWork, relax)
		m.ForWork(touched.Len(), int64(touched.Len()), commit)
		cur.Clear()
		cur, touched = touched, cur
	}
	return lab
}

// ParallelBFS labels components by multi-source level-synchronous BFS: all
// unvisited vertices start a frontier wave per component.  It is the
// natural work-optimal comparator at the other end of the time spectrum:
// O(d) rounds and O(m+n) total work (each edge relaxes O(1) times per
// wave), against which the paper's O(log(1/λ) + log log n) rounds are
// measured.  Frontier compaction per round uses the approximate-compaction
// contract like the rest of the codebase.
func ParallelBFS(m *pram.Machine, g *graph.Graph) []int32 {
	n := g.N
	csr := graph.BuildPlanOn(m.Exec(), g).CSR
	labels := make([]int32, n)
	m.For(n, func(v int) { labels[v] = int32(v) })
	// Every vertex is initially its own frontier; a vertex adopts the
	// smallest label seen among its neighbors' waves.  Rather than running
	// one BFS per component sequentially (which would charge Σd rounds),
	// all components proceed in parallel: per round, every frontier vertex
	// relaxes its edges once.
	frontier := make([]int32, n)
	m.Iota32(frontier)
	lab64 := make([]int64, n)
	inNf := make([]int32, n) // membership of the next frontier (uncharged dedup)
	// Hoisted round bodies (closures capture the frontier/nf variables, so
	// reassigning them between rounds is visible inside).
	var nf []int32
	snap := func(i int) {
		v := frontier[i]
		pram.Store64(lab64, int(v), int64(labels[v]))
	}
	relax := func(i int) {
		v := frontier[i]
		lv := int64(labels[v])
		for _, w := range csr.Neighbors(v) {
			pram.Min64(lab64, int(w), lv)
		}
	}
	advance := func() {
		for _, v := range frontier {
			for _, w := range csr.Neighbors(v) {
				if int32(lab64[w]) < labels[w] && inNf[w] == 0 {
					inNf[w] = 1
					nf = append(nf, w)
				}
			}
		}
		for _, w := range nf {
			labels[w] = int32(lab64[w])
			inNf[w] = 0
		}
	}
	for len(frontier) > 0 {
		m.ForWork(len(frontier), int64(len(frontier)), snap)
		var relaxWork int64
		for _, v := range frontier {
			relaxWork += int64(csr.Deg(v))
		}
		m.ForWork(len(frontier), relaxWork, relax)
		// Next frontier: vertices whose label improved.
		nf = make([]int32, 0, n)
		m.Contract(prim.LogStar(n)+1, int64(len(frontier)), advance)
		frontier = nf
	}
	return labels
}
