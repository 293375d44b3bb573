package par_test

import (
	"slices"
	"testing"

	"parcc/internal/bench"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
	"parcc/internal/par"
)

// TestUniteRemMatchesSequentialMinima is the schedule test of the
// splicing union-find: on every bench family at n = 2^12, in the given
// and the reversed edge order, plus a path with descending ids and a
// star, Components's UniteRem pass at procs 2, 4 and 8 must label
// every vertex with exactly its component minimum — the labels a
// sequential union-find pass produces.  Each procs runs five seeds, and
// the seed also picks a small grain (32 to 512 edges), so chunks change
// hands between workers often and the walks interleave.  Run under
// -race, this is the data-race check of UniteRem too.
func TestUniteRemMatchesSequentialMinima(t *testing.T) {
	const n = 1 << 12
	cases := map[string]*graph.Graph{}
	for _, f := range bench.Families(n, 1) {
		g := f.Make()
		cases[f.Name] = g
		rev := &graph.Graph{N: g.N, Edges: slices.Clone(g.Edges)}
		slices.Reverse(rev.Edges)
		cases[f.Name+"/reversed"] = rev
	}
	desc := graph.New(n)
	for v := n - 1; v > 0; v-- {
		desc.AddEdge(v, v-1)
	}
	cases["path-descending"] = desc
	cases["star"] = gen.Star(n)

	want := map[string][]int32{}
	for name, g := range cases {
		want[name] = sequentialMinima(g)
	}
	for _, procs := range []int{2, 4, 8} {
		for seed := uint64(1); seed <= 5; seed++ {
			rt := par.New(par.Procs(procs), par.Seed(seed), par.Grain(16<<seed))
			var dst []int32
			for name, g := range cases {
				dst = par.Components(rt, g, dst)
				if i := firstDiff(dst, want[name]); i >= 0 {
					t.Errorf("%s procs=%d seed=%d: label[%d] = %d, want component minimum %d",
						name, procs, seed, i, dst[i], want[name][i])
				}
			}
			rt.Close()
		}
	}
}

// sequentialMinima labels each vertex with its component's minimum by a
// plain sequential union-find pass (union by index, full path
// compression) — independent of every par kernel.
func sequentialMinima(g *graph.Graph) []int32 {
	p := make([]int32, g.N)
	for v := range p {
		p[v] = int32(v)
	}
	var find func(v int32) int32
	find = func(v int32) int32 {
		if p[v] != v {
			p[v] = find(p[v])
		}
		return p[v]
	}
	for _, e := range g.Edges {
		a, b := find(e.U), find(e.V)
		if a < b {
			p[b] = a
		} else if b < a {
			p[a] = b
		}
	}
	for v := range p {
		find(int32(v))
	}
	return p
}

// firstDiff returns the first index where got and want (of equal length)
// differ, or -1.
func firstDiff(got, want []int32) int {
	for i := range got {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}
