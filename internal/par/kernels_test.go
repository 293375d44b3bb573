package par

import (
	"testing"

	"parcc/internal/graph"
	"parcc/internal/graph/gen"
)

// bfsLabels is an independent sequential ground truth (duplicated from
// internal/baseline to keep par's dependencies minimal).
func bfsLabels(g *graph.Graph) []int32 {
	adj := make([][]int32, g.N)
	for _, e := range g.Edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	labels := make([]int32, g.N)
	for i := range labels {
		labels[i] = -1
	}
	for s := 0; s < g.N; s++ {
		if labels[s] >= 0 {
			continue
		}
		labels[s] = int32(s)
		queue := []int32{int32(s)}
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range adj[v] {
				if labels[w] < 0 {
					labels[w] = int32(s)
					queue = append(queue, w)
				}
			}
		}
	}
	return labels
}

func kernelGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"empty":     graph.New(0),
		"isolated":  graph.New(25),
		"path":      gen.Path(500),
		"two-cycle": gen.TwoCycles(401),
		"expander":  gen.RandomRegular(1024, 4, 1),
		"gnm":       gen.GNM(700, 900, 3),
		"union":     gen.Union(gen.Grid(9, 11), gen.Star(40), graph.New(7)),
		"loops":     graph.FromPairs(5, [][2]int{{0, 0}, {1, 2}, {3, 3}, {3, 4}}),
	}
}

func TestComponentsMatchesBFS(t *testing.T) {
	for _, procs := range []int{1, 4} {
		r := New(Procs(procs), Grain(64))
		for name, g := range kernelGraphs() {
			labels, _ := Components(r, g, nil)
			if !graph.SamePartition(bfsLabels(g), labels) {
				t.Errorf("procs=%d %s: wrong partition", procs, name)
			}
			// Unite-by-min makes labels exactly the component minimum.
			for v, l := range labels {
				if l > int32(v) {
					t.Errorf("procs=%d %s: label[%d]=%d not the component min", procs, name, v, l)
					break
				}
			}
		}
		r.Close()
	}
}

func TestComponentsDeterministicAcrossProcs(t *testing.T) {
	g := gen.GNM(2000, 3000, 7)
	r1 := New(Procs(1))
	defer r1.Close()
	want, _ := Components(r1, g, nil)
	for _, procs := range []int{2, 8} {
		r := New(Procs(procs), Grain(128))
		got, _ := Components(r, g, nil)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("procs=%d: label[%d]=%d, want %d", procs, v, got[v], want[v])
			}
		}
		r.Close()
	}
}

func TestUniteFindSequentialSemantics(t *testing.T) {
	p := []int32{0, 1, 2, 3, 4}
	if _, ok := Unite(p, 0, 0); ok {
		t.Fatal("self-unite should report false")
	}
	if r, ok := Unite(p, 3, 4); !ok || r != 4 || Find(p, 4) != 3 || Find(p, 3) != 3 {
		t.Fatal("unite(3,4) should hook 4 and root at 3")
	}
	if r, ok := Unite(p, 4, 1); !ok || r != 3 || Find(p, 3) != 1 {
		t.Fatal("unite(4,1) should hook 3, re-rooting the {3,4} set at 1")
	}
	if _, ok := Unite(p, 1, 3); ok {
		t.Fatal("already united")
	}
}

func TestCompressFlattensArbitraryForest(t *testing.T) {
	// A forest with increasing parent pointers (like the FLS stages build):
	// 0<-1<-2<-3<-4 rooted at 0... actually chain v -> v+1 rooted at 4,
	// plus a second chain rooted at 9 — Compress must not need p[v] <= v.
	p := []int32{1, 2, 3, 4, 4, 6, 7, 8, 9, 9}
	r := New(Procs(4), Grain(2))
	defer r.Close()
	Compress(r, p)
	for v := 0; v <= 4; v++ {
		if p[v] != 4 {
			t.Fatalf("p[%d]=%d, want 4", v, p[v])
		}
	}
	for v := 5; v <= 9; v++ {
		if p[v] != 9 {
			t.Fatalf("p[%d]=%d, want 9", v, p[v])
		}
	}
}

func TestPropagateMinFixpoint(t *testing.T) {
	g := gen.Union(gen.Cycle(101), gen.Path(57))
	r := New(Procs(4), Grain(32))
	defer r.Close()
	labels := make([]int32, g.N)
	r.For(g.N, func(v int) { labels[v] = int32(v) })
	rounds := PropagateMin(r, g.Edges, labels)
	if rounds < 2 {
		t.Fatalf("implausibly few rounds: %d", rounds)
	}
	if !graph.SamePartition(bfsLabels(g), labels) {
		t.Fatal("wrong partition")
	}
	for v, l := range labels {
		if l > int32(v) {
			t.Fatalf("label[%d]=%d not the minimum", v, l)
		}
	}
}

func TestCompactIndices(t *testing.T) {
	r := New(Procs(4))
	defer r.Close()
	idx := CompactIndices(r, 20_000, func(i int) bool { return i%1000 == 1 })
	if len(idx) != 20 {
		t.Fatalf("len = %d", len(idx))
	}
	for k, i := range idx {
		if int(i) != k*1000+1 {
			t.Fatalf("idx[%d] = %d", k, i)
		}
	}
	if got := CompactIndices(nil, 10, func(i int) bool { return i > 7 }); len(got) != 2 {
		t.Fatalf("nil exec fallback: %v", got)
	}
}

func TestUniteStressParallel(t *testing.T) {
	// Many goroutines uniting overlapping edges of one big cycle: the result
	// must still be a single min-rooted component.
	n := 1 << 14
	g := gen.Cycle(n)
	r := New(Procs(8), Grain(256))
	defer r.Close()
	for trial := 0; trial < 4; trial++ {
		labels, _ := Components(r, g, nil)
		for v := range labels {
			if labels[v] != 0 {
				t.Fatalf("trial %d: label[%d]=%d", trial, v, labels[v])
			}
		}
	}
}
