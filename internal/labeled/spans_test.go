package labeled

import (
	"slices"
	"testing"

	"parcc/internal/graph"
	"parcc/internal/par"
	"parcc/internal/pram"
)

// randomForest returns an n-vertex forest whose parents point to smaller
// ids (so it is acyclic), with trees of height up to a few levels.
func randomForest(n int, seed uint64) *Forest {
	f := New(n)
	for v := 1; v < n; v++ {
		seed = pram.SplitMix64(seed)
		if seed%3 != 0 {
			f.P[v] = int32(seed % uint64(v))
		}
	}
	return f
}

func randomEdges(n, m int, seed uint64) []graph.Edge {
	E := make([]graph.Edge, m)
	for i := range E {
		seed = pram.SplitMix64(seed)
		E[i] = graph.Edge{U: int32(seed % uint64(n)), V: int32((seed >> 32) % uint64(n))}
	}
	return E
}

// The fused ALTER/SHORTCUT passes must produce the same edges, in the same
// order, and the same parents whether the loop runs as one span, as one
// index per span (Reverse order), or as many spans on a pooled runtime.
func TestFusedPassesAgreeAcrossSpanLayouts(t *testing.T) {
	rt := par.New(par.Procs(2), par.Grain(64))
	defer rt.Close()
	machines := map[string]func() *pram.Machine{
		"reverse": func() *pram.Machine { return pram.New(pram.WriteOrder(pram.Reverse)) },
		"runtime": func() *pram.Machine { return pram.New(pram.OnRuntime(rt), pram.Grain(16)) },
	}
	const n, m = 3000, 5000
	// synchronous asserts one shortcut step read only pre-step parents:
	// every vertex lists its parent before itself, so a step that let a
	// write feed a later read of the same step would jump too far.
	synchronous := func(name string, before, after []int32, vs []int32) {
		for _, v := range vs {
			if after[v] != before[before[v]] {
				t.Fatalf("%s: p[%d] = %d after one shortcut step, want %d", name, v, after[v], before[before[v]])
			}
		}
	}
	all := make([]int32, n)
	for v := range all {
		all[v] = int32(v)
	}
	run := func(name string, mk func() *pram.Machine) ([]graph.Edge, []graph.Edge, []int32, []int32) {
		mach := mk()
		f := randomForest(n, 7)
		kept := Alter(mach, f, randomEdges(n, m, 11))
		loops := randomEdges(n, m, 13)
		AlterKeep(mach, f, loops)
		before := slices.Clone(f.P)
		Shortcut(mach, f, append([]int32{17}, all...))
		synchronous(name+"/Shortcut", before, f.P, all)
		before = slices.Clone(f.P)
		ShortcutAll(mach, f)
		synchronous(name+"/ShortcutAll", before, f.P, all)
		once := slices.Clone(f.P)
		FlattenAll(mach, f)
		return kept, loops, once, f.P
	}
	wantKept, wantLoops, wantOnce, wantFlat := run("forward", func() *pram.Machine { return pram.New() })
	for name, mk := range machines {
		kept, loops, once, flat := run(name, mk)
		if !slices.Equal(kept, wantKept) {
			t.Errorf("%s: Alter kept %d edges, differs from the one-span run (%d)", name, len(kept), len(wantKept))
		}
		if !slices.Equal(loops, wantLoops) {
			t.Errorf("%s: AlterKeep differs from the one-span run", name)
		}
		if !slices.Equal(once, wantOnce) || !slices.Equal(flat, wantFlat) {
			t.Errorf("%s: shortcut parents differ from the one-span run", name)
		}
	}
	for _, e := range wantKept {
		if e.U == e.V {
			t.Fatalf("Alter kept the loop %v", e)
		}
	}
}
