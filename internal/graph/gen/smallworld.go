package gen

import (
	"sort"

	"parcc/internal/graph"
	"parcc/internal/splitmix"
)

// WattsStrogatz returns a Watts–Strogatz small-world graph: a ring lattice
// where each vertex connects to its k nearest neighbors (k even), with each
// edge rewired to a random endpoint with probability p.  Sweeping p moves
// the family from a high-diameter, low-gap lattice (p=0) toward an
// expander-like graph (p→1) — a continuous λ knob between the paper's two
// regimes, complementing RingOfCliques.
func WattsStrogatz(n, k int, p float64, seed uint64) *graph.Graph {
	if k < 2 {
		k = 2
	}
	k -= k % 2
	if n < k+2 {
		n = k + 2
	}
	r := newRNG(seed)
	thr := splitmix.P64(p)
	g := graph.New(n)
	for v := 0; v < n; v++ {
		for j := 1; j <= k/2; j++ {
			w := (v + j) % n
			if r.Next() < thr {
				// rewire the far endpoint, avoiding a loop on v
				w = r.intn(n - 1)
				if w >= v {
					w++
				}
			}
			g.AddEdge(v, w)
		}
	}
	return g
}

// BarabasiAlbert returns a Barabási–Albert preferential-attachment graph:
// starting from a small clique, each new vertex attaches m edges to
// existing vertices with probability proportional to their degree.  The
// family has a heavy-tailed degree distribution — the regime where the
// paper's high/low degree classification (BUILD, §5.1) does real work.
func BarabasiAlbert(n, m int, seed uint64) *graph.Graph {
	if m < 1 {
		m = 1
	}
	if n < m+2 {
		n = m + 2
	}
	r := newRNG(seed)
	g := graph.New(n)
	// Preferential attachment via the repeated-endpoints trick: picking a
	// uniform element of the endpoint multiset selects vertices
	// proportionally to degree.
	endpoints := make([]int32, 0, 2*m*n)
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			g.AddEdge(i, j)
			endpoints = append(endpoints, int32(i), int32(j))
		}
	}
	for v := m + 1; v < n; v++ {
		chosen := make([]int32, 0, m)
		for len(chosen) < m {
			w := endpoints[r.intn(len(endpoints))]
			if int(w) == v || containsInt32(chosen, w) {
				continue
			}
			chosen = append(chosen, w)
		}
		sort.Slice(chosen, func(i, j int) bool { return chosen[i] < chosen[j] })
		for _, w := range chosen {
			g.AddEdge(v, int(w))
			endpoints = append(endpoints, int32(v), w)
		}
	}
	return g
}

func containsInt32(xs []int32, x int32) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
