// Package spectral computes the spectral quantities the paper's bounds are
// parameterized by: the spectral gap λ(G) (second-smallest eigenvalue of the
// normalized Laplacian, Definition 2.1/2.2) and graph diameters.
//
// The gap is estimated per connected component by deflated power iteration
// on the positive-semidefinite matrix M = (I + D^{-1/2} A D^{-1/2})/2, whose
// top eigenvector is known in closed form (v₁ ∝ D^{1/2}·1); the second
// eigenvalue μ of M gives λ = 2(1-μ).  Multigraph semantics follow the
// paper: w(u,v) counts parallel edges, a self-loop counts once toward the
// degree and contributes w(v,v) to the diagonal.
package spectral

import (
	"math"

	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/pram"
)

// Options tunes the eigensolver.
type Options struct {
	MaxIter int     // power-iteration cap (default 5000)
	Tol     float64 // relative convergence tolerance (default 1e-9)
	Seed    uint64  // randomized start vector seed
	Restart int     // number of random restarts, max taken (default 2)
}

func (o *Options) defaults() Options {
	out := Options{MaxIter: 5000, Tol: 1e-9, Seed: 1, Restart: 2}
	if o == nil {
		return out
	}
	if o.MaxIter > 0 {
		out.MaxIter = o.MaxIter
	}
	if o.Tol > 0 {
		out.Tol = o.Tol
	}
	if o.Seed != 0 {
		out.Seed = o.Seed
	}
	if o.Restart > 0 {
		out.Restart = o.Restart
	}
	return out
}

// component holds one connected component in local indexing.
type component struct {
	verts []int32
	edges []graph.Edge // local endpoints
	deg   []float64    // paper degree (self-loop counts once)
	wSelf []float64    // self-loop multiplicity w(v,v)
}

func splitComponents(pl *graph.Plan) []*component {
	g := pl.G
	labels := baseline.BFSLabelsCSR(pl.CSR, g.N, nil)
	idx := make(map[int32]int)
	var comps []*component
	local := make([]int32, g.N)
	for v := 0; v < g.N; v++ {
		l := labels[v]
		ci, ok := idx[l]
		if !ok {
			ci = len(comps)
			idx[l] = ci
			comps = append(comps, &component{})
		}
		c := comps[ci]
		local[v] = int32(len(c.verts))
		c.verts = append(c.verts, int32(v))
	}
	for _, c := range comps {
		c.deg = make([]float64, len(c.verts))
		c.wSelf = make([]float64, len(c.verts))
	}
	for _, e := range g.Edges {
		c := comps[idx[labels[e.U]]]
		u, v := local[e.U], local[e.V]
		if u == v {
			c.deg[u]++
			c.wSelf[u]++
		} else {
			c.deg[u]++
			c.deg[v]++
		}
		c.edges = append(c.edges, graph.Edge{U: u, V: v})
	}
	return comps
}

// Gap returns the minimum spectral gap over all connected components with at
// least 2 vertices (the paper's λ).  Components that are single vertices are
// skipped; if the graph has no multi-vertex component the result is 2 (the
// maximum possible eigenvalue).  It reads the adjacency of a prebuilt plan,
// so a Solver serving repeated spectral queries reuses its cached CSR.
func Gap(pl *graph.Plan, o *Options) float64 {
	gaps := ComponentGaps(pl, o)
	min := 2.0
	for _, l := range gaps {
		if !math.IsNaN(l) && l < min {
			min = l
		}
	}
	return min
}

// ComponentGaps returns λ(C) for every connected component C, in order of
// each component's smallest vertex.  Single-vertex components yield NaN.
func ComponentGaps(pl *graph.Plan, o *Options) []float64 {
	opt := o.defaults()
	comps := splitComponents(pl)
	out := make([]float64, len(comps))
	for i, c := range comps {
		out[i] = gapOf(c, opt)
	}
	return out
}

// gapOf computes λ of one connected component via deflated power iteration.
func gapOf(c *component, opt Options) float64 {
	n := len(c.verts)
	if n < 2 {
		return math.NaN()
	}
	// v1 ∝ D^{1/2}·1 is the top eigenvector of M (eigenvalue 1).
	v1 := make([]float64, n)
	var norm float64
	for i := 0; i < n; i++ {
		v1[i] = math.Sqrt(c.deg[i])
		norm += c.deg[i]
	}
	norm = math.Sqrt(norm)
	for i := range v1 {
		v1[i] /= norm
	}
	invSqrtDeg := make([]float64, n)
	for i := range invSqrtDeg {
		invSqrtDeg[i] = 1 / math.Sqrt(c.deg[i])
	}
	best := -1.0
	for r := 0; r < opt.Restart; r++ {
		mu := powerIter(c, v1, invSqrtDeg, opt, uint64(r+1)*opt.Seed)
		if mu > best {
			best = mu
		}
	}
	lambda := 2 * (1 - best)
	if lambda < 0 {
		lambda = 0
	}
	if lambda > 2 {
		lambda = 2
	}
	return lambda
}

// powerIter returns the second-largest eigenvalue μ₂ of
// M = (I + D^{-1/2} A D^{-1/2})/2 using deflation against v1.
func powerIter(c *component, v1, invSqrtDeg []float64, opt Options, seed uint64) float64 {
	n := len(c.verts)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(int64(pram.SplitMix64(seed^uint64(i)))%1000)/1000.0 - 0.5
	}
	deflate(x, v1)
	normalize(x)
	prev := math.Inf(-1)
	for it := 0; it < opt.MaxIter; it++ {
		// y = Mx = (x + D^{-1/2} A D^{-1/2} x) / 2.
		for i := range y {
			y[i] = 0
		}
		for _, e := range c.edges {
			if e.U == e.V {
				// self-loop contributes w(v,v)/deg(v) on the diagonal
				y[e.U] += x[e.U] * invSqrtDeg[e.U] * invSqrtDeg[e.U]
				continue
			}
			cu := invSqrtDeg[e.U] * invSqrtDeg[e.V]
			y[e.U] += cu * x[e.V]
			y[e.V] += cu * x[e.U]
		}
		for i := range y {
			y[i] = (x[i] + y[i]) / 2
		}
		deflate(y, v1)
		mu := dot(x, y) // Rayleigh quotient (x normalized)
		nn := normalize(y)
		x, y = y, x
		if nn == 0 {
			return 0 // x was (numerically) in span(v1): gap ≈ max
		}
		if math.Abs(mu-prev) < opt.Tol*math.Max(1, math.Abs(mu)) && it > 16 {
			return mu
		}
		prev = mu
	}
	return prev
}

func deflate(x, v1 []float64) {
	d := dot(x, v1)
	for i := range x {
		x[i] -= d * v1[i]
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func normalize(x []float64) float64 {
	n := math.Sqrt(dot(x, x))
	if n == 0 {
		return 0
	}
	for i := range x {
		x[i] /= n
	}
	return n
}

// NormalizedLaplacian returns the dense normalized Laplacian of g
// (Definition 2.1) for small-graph tests.
func NormalizedLaplacian(g *graph.Graph) [][]float64 {
	n := g.N
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	deg := make([]float64, n)
	for _, e := range g.Edges {
		if e.U == e.V {
			deg[e.U]++
			w[e.U][e.U]++
			continue
		}
		deg[e.U]++
		deg[e.V]++
		w[e.U][e.V]++
		w[e.V][e.U]++
	}
	L := make([][]float64, n)
	for i := range L {
		L[i] = make([]float64, n)
		for j := range L[i] {
			switch {
			case i == j && deg[i] != 0:
				L[i][j] = 1 - w[i][i]/deg[i]
			case i != j && w[i][j] != 0:
				L[i][j] = -w[i][j] / math.Sqrt(deg[i]*deg[j])
			}
		}
	}
	return L
}

// EigenvaluesDense returns all eigenvalues of a symmetric matrix ascending,
// via cyclic Jacobi rotations.  Intended for small test matrices.
func EigenvaluesDense(a [][]float64) []float64 {
	n := len(a)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
	}
	for sweep := 0; sweep < 100; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m[i][j] * m[i][j]
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				if math.Abs(m[p][q]) < 1e-15 {
					continue
				}
				theta := (m[q][q] - m[p][p]) / (2 * m[p][q])
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				cos := 1 / math.Sqrt(t*t+1)
				sin := t * cos
				for k := 0; k < n; k++ {
					mp, mq := m[p][k], m[q][k]
					m[p][k] = cos*mp - sin*mq
					m[q][k] = sin*mp + cos*mq
				}
				for k := 0; k < n; k++ {
					mp, mq := m[k][p], m[k][q]
					m[k][p] = cos*mp - sin*mq
					m[k][q] = sin*mp + cos*mq
				}
			}
		}
	}
	ev := make([]float64, n)
	for i := 0; i < n; i++ {
		ev[i] = m[i][i]
	}
	for i := 1; i < n; i++ { // insertion sort
		v := ev[i]
		j := i - 1
		for j >= 0 && ev[j] > v {
			ev[j+1] = ev[j]
			j--
		}
		ev[j+1] = v
	}
	return ev
}

// GapDense computes λ of a connected graph exactly via the dense
// eigensolver.  Test oracle for small graphs.
func GapDense(g *graph.Graph) float64 {
	ev := EigenvaluesDense(NormalizedLaplacian(g))
	if len(ev) < 2 {
		return math.NaN()
	}
	return ev[1]
}

// Eccentricity returns max distance from s (-1 if g is disconnected from s
// is unreachable anywhere; unreachable vertices are ignored).
func eccentricity(csr *graph.CSR, n int, s int32, dist []int32) (far int32, ecc int32) {
	for i := 0; i < n; i++ {
		dist[i] = -1
	}
	dist[s] = 0
	queue := []int32{s}
	far, ecc = s, 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range csr.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				if dist[w] > ecc {
					ecc, far = dist[w], w
				}
				queue = append(queue, w)
			}
		}
	}
	return far, ecc
}

// DiameterExact returns the maximum eccentricity over all vertices, computed
// per component (the paper's d: longest shortest path within a component).
// O(n·m); use for small graphs.
func DiameterExact(pl *graph.Plan) int {
	g := pl.G
	csr := pl.CSR
	dist := make([]int32, g.N)
	var d int32
	for s := 0; s < g.N; s++ {
		_, e := eccentricity(csr, g.N, int32(s), dist)
		if e > d {
			d = e
		}
	}
	return int(d)
}

// DiameterApprox lower-bounds the diameter with iterated double sweeps from
// every component, which is exact on trees and typically tight in practice.
func DiameterApprox(pl *graph.Plan, sweeps int) int {
	g := pl.G
	if sweeps < 1 {
		sweeps = 2
	}
	csr := pl.CSR
	labels := baseline.BFSLabelsCSR(pl.CSR, g.N, nil)
	seen := map[int32]bool{}
	dist := make([]int32, g.N)
	var best int32
	for v := 0; v < g.N; v++ {
		l := labels[v]
		if seen[l] {
			continue
		}
		seen[l] = true
		cur := int32(v)
		for s := 0; s < sweeps; s++ {
			far, ecc := eccentricity(csr, g.N, cur, dist)
			if ecc > best {
				best = ecc
			}
			cur = far
		}
	}
	return int(best)
}
