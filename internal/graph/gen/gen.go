// Package gen provides deterministic graph generators for the experiment
// suite.  Each family is chosen because its component-wise spectral gap λ,
// diameter d, or density plays a specific role in the paper:
//
//   - expanders (random regular): λ = Θ(1) — the O(log log n) regime;
//   - hypercubes: λ = Θ(1/log n);
//   - grids/tori: λ = Θ(1/n) (2D: Θ(1/side²) per side length);
//   - paths/cycles: λ = Θ(1/n²) — the Ω(log n) regime;
//   - ring-of-cliques: λ tunable by bridge multiplicity;
//   - one n-cycle vs two n/2-cycles: the 2-CYCLE instances (Appendix A);
//   - the Appendix-B construction: small diameter that blows up under
//     edge sampling.
//
// All randomized generators take an explicit seed and are reproducible.
package gen

import (
	"parcc/internal/graph"
	"parcc/internal/splitmix"
)

// rng is the generators' stream: splitmix's, with intn's modulo
// reduction.  Its draws are Hash(seed + k·Gamma) for k = 1, 2, …, the
// stream seeded one Gamma past the generator's seed.
type rng struct{ splitmix.Stream }

func newRNG(seed uint64) *rng { return &rng{splitmix.NewStream(seed + splitmix.Gamma)} }

// intn returns a value in [0,n).
func (r *rng) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.Next() % uint64(n))
}

// Path returns the path graph v0-v1-...-v(n-1).  λ = Θ(1/n²).
func Path(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Cycle returns the n-cycle.  λ = Θ(1/n²).
func Cycle(n int) *graph.Graph {
	g := Path(n)
	if n >= 3 {
		g.AddEdge(n-1, 0)
	}
	return g
}

// TwoCycles returns two disjoint cycles of ⌊n/2⌋ and ⌈n/2⌉ vertices: the
// hard sibling of Cycle(n) in the 2-CYCLE conjecture (Appendix A).
func TwoCycles(n int) *graph.Graph {
	g := graph.New(n)
	h := n / 2
	addCycle := func(lo, hi int) {
		if hi-lo < 2 {
			return
		}
		for i := lo; i+1 < hi; i++ {
			g.AddEdge(i, i+1)
		}
		g.AddEdge(hi-1, lo)
	}
	addCycle(0, h)
	addCycle(h, n)
	return g
}

// Grid returns the r x c grid graph.  λ = Θ(1/max(r,c)²) per dimension.
func Grid(r, c int) *graph.Graph {
	g := graph.New(r * c)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.AddEdge(id(i, j), id(i, j+1))
			}
			if i+1 < r {
				g.AddEdge(id(i, j), id(i+1, j))
			}
		}
	}
	return g
}

// Torus returns the r x c torus (grid with wraparound).
func Torus(r, c int) *graph.Graph {
	g := graph.New(r * c)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			g.AddEdge(id(i, j), id(i, (j+1)%c))
			g.AddEdge(id(i, j), id((i+1)%r, j))
		}
	}
	return g
}

// Hypercube returns the d-dimensional hypercube on 2^d vertices.
// λ = 2/d = Θ(1/log n).
func Hypercube(d int) *graph.Graph {
	n := 1 << d
	g := graph.New(n)
	for v := 0; v < n; v++ {
		for b := 0; b < d; b++ {
			w := v ^ (1 << b)
			if v < w {
				g.AddEdge(v, w)
			}
		}
	}
	return g
}

// Complete returns the complete graph K_n.  λ = n/(n-1).
func Complete(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// Star returns the star K_{1,n-1} centered at vertex 0.  λ = 1.
func Star(n int) *graph.Graph {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

// BinaryTree returns the complete binary tree on n vertices (heap indexing).
func BinaryTree(n int) *graph.Graph {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge((i-1)/2, i)
	}
	return g
}

// RandomRegular returns a random d-regular multigraph on n vertices via the
// configuration model (n*d must be even).  For constant d ≥ 3 these are
// expanders with λ = Θ(1) w.h.p. — the paper's headline O(log log n) regime.
// Self-loops and parallel edges may occur; the paper's model permits both.
func RandomRegular(n, d int, seed uint64) *graph.Graph {
	if n*d%2 != 0 {
		d++
	}
	r := newRNG(seed)
	stubs := make([]int32, n*d)
	for i := range stubs {
		stubs[i] = int32(i / d)
	}
	// Fisher-Yates shuffle, then pair consecutive stubs.
	for i := len(stubs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		stubs[i], stubs[j] = stubs[j], stubs[i]
	}
	g := graph.New(n)
	for i := 0; i+1 < len(stubs); i += 2 {
		g.Edges = append(g.Edges, graph.Edge{U: stubs[i], V: stubs[i+1]})
	}
	return g
}

// GNM returns an Erdős–Rényi G(n,m) multigraph: m edges drawn uniformly with
// replacement from all vertex pairs.
func GNM(n, m int, seed uint64) *graph.Graph {
	r := newRNG(seed)
	g := graph.New(n)
	g.Edges = make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		u := int32(r.intn(n))
		v := int32(r.intn(n))
		g.Edges = append(g.Edges, graph.Edge{U: u, V: v})
	}
	return g
}

// RingOfCliques returns k cliques of size s arranged in a ring, consecutive
// cliques joined by `bridges` parallel edges.  Increasing `bridges` raises
// the conductance (and hence λ, via Cheeger) of the single component, so the
// family sweeps λ while holding n ≈ k·s fixed — the knob experiment E1 needs.
func RingOfCliques(k, s, bridges int, seed uint64) *graph.Graph {
	if k < 1 {
		k = 1
	}
	if s < 2 {
		s = 2
	}
	r := newRNG(seed)
	g := graph.New(k * s)
	base := func(c int) int { return c * s }
	for c := 0; c < k; c++ {
		b := base(c)
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				g.AddEdge(b+i, b+j)
			}
		}
	}
	if k > 1 {
		for c := 0; c < k; c++ {
			nb := base((c + 1) % k)
			b := base(c)
			for t := 0; t < bridges; t++ {
				g.AddEdge(b+r.intn(s), nb+r.intn(s))
			}
			if k == 2 {
				break // avoid doubling the single bridge pair
			}
		}
	}
	return g
}

// Lollipop returns a clique of size k with a path of length n-k attached.
// Its λ is tiny (Θ(1/n³)-ish mixing), a worst case for gap-based bounds.
func Lollipop(n, k int) *graph.Graph {
	if k > n {
		k = n
	}
	g := graph.New(n)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			g.AddEdge(i, j)
		}
	}
	for i := k - 1; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Barbell returns two k-cliques joined by a path of n-2k vertices.
func Barbell(n, k int) *graph.Graph {
	if 2*k > n {
		k = n / 2
	}
	g := graph.New(n)
	clique := func(lo int) {
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				g.AddEdge(lo+i, lo+j)
			}
		}
	}
	clique(0)
	clique(n - k)
	prev := k - 1
	for v := k; v < n-k; v++ {
		g.AddEdge(prev, v)
		prev = v
	}
	if prev != n-k {
		g.AddEdge(prev, n-k)
	}
	return g
}

// Union returns the disjoint union of the given graphs.
func Union(gs ...*graph.Graph) *graph.Graph {
	n := 0
	for _, g := range gs {
		n += g.N
	}
	out := graph.New(n)
	off := int32(0)
	for _, g := range gs {
		for _, e := range g.Edges {
			out.Edges = append(out.Edges, graph.Edge{U: e.U + off, V: e.V + off})
		}
		off += int32(g.N)
	}
	return out
}

// ManyComponents returns k disjoint copies of the generator's output,
// exercising the "minimum gap over all components" semantics.
func ManyComponents(k int, mk func(i int) *graph.Graph) *graph.Graph {
	gs := make([]*graph.Graph, k)
	for i := range gs {
		gs[i] = mk(i)
	}
	return Union(gs...)
}

// SampleEdges returns a copy of g keeping each edge independently with
// probability p (seeded).  This is the random edge sampling of Stage 3.
func SampleEdges(g *graph.Graph, p float64, seed uint64) *graph.Graph {
	thr := splitmix.P64(p)
	out := graph.New(g.N)
	for i, e := range g.Edges {
		if splitmix.Hash(seed^uint64(i)*splitmix.Gamma) < thr {
			out.Edges = append(out.Edges, e)
		}
	}
	return out
}

// AppendixB builds a graph in the spirit of the paper's Appendix-B
// counterexample: small diameter, but edge sampling with probability
// p = 1/t turns it into (w.h.p.) a long path, so the sampled diameter is
// Θ(n/poly(t)).  Construction: a base path of L segments where consecutive
// vertices are joined by bundles of B = ceil(t·ln L)+1 parallel edges (each
// bundle survives sampling w.h.p.), plus a hierarchy of single-edge express
// paths with stride s = t at every level (express edges mostly die).  The
// original diameter is O(t·log n); the sampled diameter is Ω(L/poly(t)).
func AppendixB(nTarget, t int) *graph.Graph {
	if t < 2 {
		t = 2
	}
	bundle := 1
	for approxLn := 1; 1<<approxLn < nTarget; approxLn++ {
		bundle = approxLn
	}
	bundle = t*bundle + 1 // ceil(t ln L)-ish
	// Choose base length L so total vertices ≈ nTarget, including express
	// levels: L + L/t + L/t² + ... ≤ L·t/(t-1).
	L := nTarget * (t - 1) / t
	if L < 4 {
		L = 4
	}
	g := graph.New(0)
	// Base path vertices 0..L-1 with bundles.
	addPathVertices := func(count int) (lo int) {
		lo = g.N
		g.N += count
		return lo
	}
	base := addPathVertices(L)
	for i := 0; i+1 < L; i++ {
		for b := 0; b < bundle; b++ {
			g.AddEdge(base+i, base+i+1)
		}
	}
	// Express levels: level ℓ has ceil(prev/t) vertices; vertex j of level ℓ
	// is rung-attached to vertex j*t of the level below by a bundle (so the
	// sampled graph stays connected), while consecutive express vertices
	// are joined by single edges (so the sampled graph loses the
	// shortcuts).  Sampling therefore keeps connectivity but destroys the
	// hierarchy, leaving a path-like graph of diameter Ω(L/poly(t)).
	prevLo, prevLen := base, L
	for prevLen > t {
		cur := (prevLen + t - 1) / t
		lo := addPathVertices(cur)
		for j := 0; j < cur; j++ {
			below := j * t
			if below >= prevLen {
				below = prevLen - 1
			}
			for b := 0; b < bundle; b++ {
				g.AddEdge(lo+j, prevLo+below)
			}
			if j+1 < cur {
				g.AddEdge(lo+j, lo+j+1)
			}
		}
		prevLo, prevLen = lo, cur
	}
	return g
}
