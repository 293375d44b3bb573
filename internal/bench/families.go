package bench

import (
	"math"

	"parcc"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
	"parcc/internal/splitmix"
)

// Family is one generator family of the solve sweep, exposed so code
// outside this package (the auto-dispatch golden test, ccperf) can run
// against the exact graph population BenchmarkSolveFamilies measures.
type Family struct {
	Name string
	Make func() *parcc.Graph
}

// Families instantiates all twenty-three generator families at the target
// vertex count, in sweep order.
func Families(n int, seed uint64) []Family {
	fams := solveFamilies(n, seed)
	out := make([]Family, 0, len(fams))
	for _, f := range fams {
		out = append(out, Family{Name: f.name, Make: f.make})
	}
	return out
}

// solveFamily is one row of the solve sweep; barred marks the
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
	r := splitmix.NewStream(seed ^ 0xA5A5A5A5)
	for i := 0; i < 2*g.N; i++ {
		g.AddEdge(int(r.Next()%uint64(g.N)), int(r.Next()%uint64(g.N)))
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
