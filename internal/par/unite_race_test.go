package par_test

import (
	"fmt"
	"slices"
	"testing"

	"parcc"
	"parcc/internal/bench"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
	"parcc/internal/par"
)

// TestUniteRemMatchesSequentialMinima is the schedule test of the
// splicing union-find: on every bench family at n = 2^12, in the given
// and the reversed edge order, plus a path with descending ids and a
// star, Components's UniteRem pass must label every vertex with exactly
// its component minimum — the labels a sequential union-find pass
// produces — and count the components as n minus its hooks.  The
// concurrent form runs at procs 2, 4 and 8, five seeds each, and the
// seed also picks a small grain (32 to 512 edges), so chunks change
// hands between workers often and the walks interleave.  The one-worker
// plain-store form runs on a procs-1 runtime, on a nil one, and through
// parcc's union-find arm on a procs-2 session.  Run under -race, this is
// the data-race check of UniteRem too.
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
	wantComps := map[string]int{}
	for name, g := range cases {
		want[name] = sequentialMinima(g)
		wantComps[name] = graph.NumLabels(want[name])
	}
	check := func(what, name string, got []int32, comps int) {
		t.Helper()
		if i := firstDiff(got, want[name]); i >= 0 {
			t.Errorf("%s %s: label[%d] = %d, want component minimum %d",
				name, what, i, got[i], want[name][i])
		}
		if comps != wantComps[name] {
			t.Errorf("%s %s: %d components, want %d", name, what, comps, wantComps[name])
		}
	}
	for _, procs := range []int{1, 2, 4, 8} {
		for seed := uint64(1); seed <= 5; seed++ {
			rt := par.New(par.Procs(procs), par.Seed(seed), par.Grain(16<<seed))
			var dst []int32
			var comps int
			for name, g := range cases {
				dst, comps = par.Components(rt, g, dst)
				check(fmt.Sprintf("procs=%d seed=%d", procs, seed), name, dst, comps)
			}
			rt.Close()
		}
	}
	var dst []int32
	var comps int
	for name, g := range cases {
		dst, comps = par.Components(nil, g, dst)
		check("nil runtime", name, dst, comps)
	}
	s, err := parcc.NewSolver(&parcc.Options{
		Algorithm: parcc.UnionFind, Backend: parcc.BackendConcurrent, Procs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := &parcc.Result{}
	for name, g := range cases {
		if err := s.SolveInto(g, res); err != nil {
			t.Fatal(err)
		}
		check("union-find arm procs=2", name, res.Labels, res.NumComponents)
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
