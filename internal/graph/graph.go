// Package graph defines the undirected multigraph representation used
// throughout the repository.  Following the paper (§2.1), graphs may contain
// self-loops and parallel edges; vertices are 0..N-1; a self-loop counts once
// toward its endpoint's degree.
//
// Everything in this package is uncharged serving infrastructure: no PRAM
// cost is booked here (the machine in internal/pram charges the model; this
// package only represents inputs and builds adjacency).  Unless a symbol's
// comment says otherwise, functions are single-threaded, values are safe
// for any number of concurrent readers once built, and nothing is safe for
// concurrent mutation.
package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
)

// Edge is an undirected edge between U and V (possibly U == V).
type Edge struct {
	U, V int32
}

// CanonKey packs the edge into a 64-bit multiset key with the smaller
// endpoint in the high word, so both orientations of an undirected edge
// collide — the canonical form the incremental path's remove-batch
// matching keys on.  O(1), pure, safe anywhere.
func (e Edge) CanonKey() int64 {
	u, v := e.U, e.V
	if u > v {
		u, v = v, u
	}
	return int64(u)<<32 | int64(uint32(v))
}

// Graph is an undirected multigraph on vertices 0..N-1.
type Graph struct {
	N     int
	Edges []Edge
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	return &Graph{N: n}
}

// FromPairs builds a graph on n vertices from (u,v) pairs.
func FromPairs(n int, pairs [][2]int) *Graph {
	g := New(n)
	for _, p := range pairs {
		g.AddEdge(p[0], p[1])
	}
	return g
}

// M returns the number of edges (counting multiplicities and loops).
func (g *Graph) M() int { return len(g.Edges) }

// AddEdge appends the undirected edge (u,v).
func (g *Graph) AddEdge(u, v int) {
	g.Edges = append(g.Edges, Edge{int32(u), int32(v)})
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	e := make([]Edge, len(g.Edges))
	copy(e, g.Edges)
	return &Graph{N: g.N, Edges: e}
}

// Validate checks that the vertex count fits the int32-indexed stack
// (0 ≤ N ≤ MaxInt32) and that every endpoint is in range.
func (g *Graph) Validate() error {
	if g.N < 0 || g.N > math.MaxInt32 {
		return fmt.Errorf("vertex count %d out of range [0,%d]", g.N, math.MaxInt32)
	}
	for i, e := range g.Edges {
		if e.U < 0 || int(e.U) >= g.N || e.V < 0 || int(e.V) >= g.N {
			return fmt.Errorf("edge %d = (%d,%d) out of range [0,%d)", i, e.U, e.V, g.N)
		}
	}
	return nil
}

// Degrees returns per-vertex degrees.  Per §2.1, a self-loop contributes one
// (not two) to its endpoint's degree.
func (g *Graph) Degrees() []int32 {
	deg := make([]int32, g.N)
	for _, e := range g.Edges {
		if e.U == e.V {
			deg[e.U]++
			continue
		}
		deg[e.U]++
		deg[e.V]++
	}
	return deg
}

// CSR is a compressed adjacency representation.  Nbr[Off[v]:Off[v+1]] lists
// the neighbors of v; a self-loop appears once, a non-loop edge appears in
// both endpoints' lists.
type CSR struct {
	Off []int64
	Nbr []int32
}

// Deg returns the number of adjacency entries of v.
func (c *CSR) Deg(v int32) int { return int(c.Off[v+1] - c.Off[v]) }

// Neighbors returns the adjacency slice of v (do not modify).
func (c *CSR) Neighbors(v int32) []int32 { return c.Nbr[c.Off[v]:c.Off[v+1]] }

// BuildCSR constructs adjacency lists for g by sequential counting sort:
// O(m+n) time, two passes over the edge list.  Each vertex's neighbors
// appear in edge-scan order.
func BuildCSR(g *Graph) *CSR {
	n := g.N
	cnt := make([]int64, n+1)
	for _, e := range g.Edges {
		cnt[e.U+1]++
		if e.U != e.V {
			cnt[e.V+1]++
		}
	}
	for i := 0; i < n; i++ {
		cnt[i+1] += cnt[i]
	}
	nbr := make([]int32, cnt[n])
	pos := make([]int64, n)
	copy(pos, cnt[:n])
	for _, e := range g.Edges {
		nbr[pos[e.U]] = e.V
		pos[e.U]++
		if e.U != e.V {
			nbr[pos[e.V]] = e.U
			pos[e.V]++
		}
	}
	return &CSR{Off: cnt, Nbr: nbr}
}

// WriteEdgeList writes "n m" followed by one "u v" line per edge.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N, len(g.Edges)); err != nil {
		return err
	}
	for _, e := range g.Edges {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the format written by WriteEdgeList.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var n, m int
	if _, err := fmt.Fscan(br, &n, &m); err != nil {
		return nil, fmt.Errorf("reading header: %w", err)
	}
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("invalid header n=%d m=%d", n, m)
	}
	g := New(n)
	g.Edges = make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		var u, v int
		if _, err := fmt.Fscan(br, &u, &v); err != nil {
			return nil, fmt.Errorf("reading edge %d: %w", i, err)
		}
		g.AddEdge(u, v)
	}
	return g, g.Validate()
}

// ComponentsOf groups vertices by label, returning each component's vertex
// list sorted by the smallest member.  O(n log n) sequential presentation
// helper — hot paths keep flat label arrays instead.
func ComponentsOf(labels []int32) [][]int32 {
	byLabel := map[int32][]int32{}
	for v, l := range labels {
		byLabel[l] = append(byLabel[l], int32(v))
	}
	out := make([][]int32, 0, len(byLabel))
	for _, c := range byLabel {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// SamePartition reports whether two labelings induce the same partition of
// vertices (labels themselves may differ).  O(n) sequential; the
// equivalence check every cross-backend and incremental test is built on.
func SamePartition(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[int32]int32{}
	bwd := map[int32]int32{}
	for i := range a {
		if x, ok := fwd[a[i]]; ok {
			if x != b[i] {
				return false
			}
		} else {
			fwd[a[i]] = b[i]
		}
		if y, ok := bwd[b[i]]; ok {
			if y != a[i] {
				return false
			}
		} else {
			bwd[b[i]] = a[i]
		}
	}
	return true
}

// NumLabels returns the number of distinct labels.  O(n) sequential with a
// map: a test and reporting helper; solves count from their own forests.
func NumLabels(labels []int32) int {
	set := map[int32]struct{}{}
	for _, l := range labels {
		set[l] = struct{}{}
	}
	return len(set)
}
