package gen

import (
	"testing"

	"parcc/internal/baseline"
	"parcc/internal/graph"
)

func components(g *graph.Graph) int {
	return graph.NumLabels(baseline.BFSLabels(g))
}

func TestPath(t *testing.T) {
	g := Path(10)
	if g.M() != 9 || components(g) != 1 {
		t.Fatalf("path: m=%d comps=%d", g.M(), components(g))
	}
	if Path(1).M() != 0 {
		t.Error("single-vertex path has no edges")
	}
}

func TestCycle(t *testing.T) {
	g := Cycle(10)
	if g.M() != 10 || components(g) != 1 {
		t.Fatalf("cycle: m=%d comps=%d", g.M(), components(g))
	}
	deg := g.Degrees()
	for _, d := range deg {
		if d != 2 {
			t.Fatal("cycle must be 2-regular")
		}
	}
}

func TestTwoCycles(t *testing.T) {
	g := TwoCycles(20)
	if components(g) != 2 {
		t.Fatalf("two cycles: comps=%d", components(g))
	}
	if g.N != 20 {
		t.Fatal("vertex count")
	}
	// Same vertex count and edge count as one 20-cycle: the 2-CYCLE pair.
	if g.M() != Cycle(20).M() {
		t.Fatalf("edge count %d differs from single cycle %d", g.M(), Cycle(20).M())
	}
}

func TestGridAndTorus(t *testing.T) {
	g := Grid(4, 5)
	if g.N != 20 || components(g) != 1 {
		t.Fatal("grid wrong")
	}
	if g.M() != 4*4+3*5 {
		t.Fatalf("grid edges = %d", g.M())
	}
	tor := Torus(4, 5)
	if tor.M() != 2*20 || components(tor) != 1 {
		t.Fatalf("torus edges = %d", tor.M())
	}
	for _, d := range tor.Degrees() {
		if d != 4 {
			t.Fatal("torus must be 4-regular")
		}
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(5)
	if g.N != 32 || components(g) != 1 {
		t.Fatal("hypercube wrong")
	}
	for _, d := range g.Degrees() {
		if d != 5 {
			t.Fatal("d-cube must be d-regular")
		}
	}
}

func TestCompleteStarTree(t *testing.T) {
	if Complete(8).M() != 28 {
		t.Error("K8 edges")
	}
	s := Star(9)
	if s.M() != 8 || components(s) != 1 {
		t.Error("star wrong")
	}
	bt := BinaryTree(15)
	if bt.M() != 14 || components(bt) != 1 {
		t.Error("tree wrong")
	}
}

func TestRandomRegular(t *testing.T) {
	g := RandomRegular(100, 4, 3)
	deg := 0
	for _, e := range g.Edges {
		_ = e
		deg += 2
	}
	if deg != 100*4 {
		t.Fatalf("stub count %d, want %d", deg, 400)
	}
	// 4-regular random graphs are connected w.h.p.
	if components(g) != 1 {
		t.Errorf("random 4-regular graph disconnected (seed-dependent but vanishingly unlikely)")
	}
	// determinism
	h := RandomRegular(100, 4, 3)
	for i := range g.Edges {
		if g.Edges[i] != h.Edges[i] {
			t.Fatal("generator not deterministic for equal seed")
		}
	}
}

func TestRandomRegularOddProduct(t *testing.T) {
	g := RandomRegular(5, 3, 1) // n·d odd: generator bumps d
	if g.N != 5 {
		t.Fatal("vertex count changed")
	}
	if g.M() != 10 { // d bumped to 4: 5*4/2
		t.Fatalf("m=%d, want 10", g.M())
	}
}

func TestGNM(t *testing.T) {
	g := GNM(50, 123, 9)
	if g.N != 50 || g.M() != 123 {
		t.Fatal("GNM size wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRingOfCliques(t *testing.T) {
	g := RingOfCliques(5, 4, 2, 1)
	if g.N != 20 || components(g) != 1 {
		t.Fatalf("ring of cliques: n=%d comps=%d", g.N, components(g))
	}
	// bridges scale edge count
	g2 := RingOfCliques(5, 4, 6, 1)
	if g2.M() <= g.M() {
		t.Error("more bridges must add edges")
	}
	// k=2 must not double the bridge set
	g3 := RingOfCliques(2, 4, 1, 1)
	if g3.M() != 2*6+1 {
		t.Fatalf("2 cliques: m=%d, want 13", g3.M())
	}
	// degenerate params clamp
	if RingOfCliques(0, 1, 0, 1).N < 2 {
		t.Error("clamped ring too small")
	}
}

func TestLollipopBarbell(t *testing.T) {
	l := Lollipop(30, 10)
	if l.N != 30 || components(l) != 1 {
		t.Fatal("lollipop wrong")
	}
	b := Barbell(40, 10)
	if b.N != 40 || components(b) != 1 {
		t.Fatal("barbell wrong")
	}
	// clique too big gets clamped
	if Barbell(10, 50).N != 10 {
		t.Fatal("barbell clamp")
	}
}

func TestUnionOffsets(t *testing.T) {
	g := Union(Path(3), Cycle(4), graph.New(2))
	if g.N != 9 {
		t.Fatalf("union n=%d", g.N)
	}
	if components(g) != 4 { // path + cycle + 2 isolated
		t.Fatalf("union comps=%d", components(g))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestManyComponents(t *testing.T) {
	g := ManyComponents(5, func(i int) *graph.Graph { return Cycle(4 + i) })
	if components(g) != 5 {
		t.Fatalf("comps=%d", components(g))
	}
}

func TestSampleEdges(t *testing.T) {
	g := Complete(40)
	s := SampleEdges(g, 0.5, 3)
	if s.N != g.N {
		t.Fatal("sampling must not change vertices")
	}
	frac := float64(s.M()) / float64(g.M())
	if frac < 0.35 || frac > 0.65 {
		t.Errorf("sampled fraction %.3f, want ≈0.5", frac)
	}
	if SampleEdges(g, 0, 1).M() != 0 {
		t.Error("p=0 must drop everything")
	}
	if SampleEdges(g, 1, 1).M() != g.M() {
		t.Error("p=1 must keep everything")
	}
}

func TestAppendixBConnected(t *testing.T) {
	g := AppendixB(2000, 4)
	if components(g) != 1 {
		t.Fatalf("Appendix-B graph must be connected, got %d comps", components(g))
	}
	if g.N < 1000 {
		t.Fatalf("vertex count %d too small for target 2000", g.N)
	}
}

func TestAppendixBSmallT(t *testing.T) {
	g := AppendixB(100, 0) // t clamps to 2
	if components(g) != 1 {
		t.Fatal("clamped construction must stay connected")
	}
}

func TestWattsStrogatz(t *testing.T) {
	g := WattsStrogatz(200, 4, 0.1, 7)
	if g.N != 200 || g.M() != 200*2 {
		t.Fatalf("n=%d m=%d", g.N, g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// p=0 is the pure ring lattice: exactly k-regular and connected.
	lattice := WattsStrogatz(100, 4, 0, 1)
	for _, d := range lattice.Degrees() {
		if d != 4 {
			t.Fatal("lattice must be k-regular")
		}
	}
	if components(lattice) != 1 {
		t.Fatal("lattice must be connected")
	}
	// No rewired edge may be a loop.
	for _, e := range WattsStrogatz(150, 6, 1.0, 3).Edges {
		if e.U == e.V {
			t.Fatal("rewiring created a loop")
		}
	}
	// Degenerate parameters clamp.
	if WattsStrogatz(2, 1, 0.5, 1).N < 4 {
		t.Fatal("clamp failed")
	}
}

func TestWattsStrogatzRewiringShrinksDiameter(t *testing.T) {
	// The small-world effect: a little rewiring collapses the diameter.
	lattice := WattsStrogatz(400, 4, 0, 5)
	rewired := WattsStrogatz(400, 4, 0.2, 5)
	dl := diameterOf(lattice)
	dr := diameterOf(rewired)
	if dr >= dl {
		t.Errorf("rewiring should shrink diameter: %d -> %d", dl, dr)
	}
}

func diameterOf(g *graph.Graph) int {
	// double sweep on the largest component (test-local helper)
	lab := baseline.BFSLabels(g)
	_ = lab
	// cheap: BFS from 0 then from the farthest vertex
	csr := graph.BuildCSR(g)
	far, _ := bfsFar(csr, g.N, 0)
	_, ecc := bfsFar(csr, g.N, far)
	return int(ecc)
}

func bfsFar(csr *graph.CSR, n int, s int32) (int32, int32) {
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	q := []int32{s}
	far, ecc := s, int32(0)
	for len(q) > 0 {
		v := q[0]
		q = q[1:]
		for _, w := range csr.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				if dist[w] > ecc {
					ecc, far = dist[w], w
				}
				q = append(q, w)
			}
		}
	}
	return far, ecc
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(300, 3, 9)
	if g.N != 300 {
		t.Fatalf("n=%d", g.N)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if components(g) != 1 {
		t.Fatal("BA graphs are connected by construction")
	}
	// Heavy tail: the max degree should far exceed the median.
	deg := g.Degrees()
	var max int32
	for _, d := range deg {
		if d > max {
			max = d
		}
	}
	if max < 3*6 {
		t.Errorf("max degree %d suspiciously small for preferential attachment", max)
	}
	// Determinism and clamping.
	h := BarabasiAlbert(300, 3, 9)
	for i := range g.Edges {
		if g.Edges[i] != h.Edges[i] {
			t.Fatal("BA not deterministic")
		}
	}
	if BarabasiAlbert(2, 0, 1).N < 3 {
		t.Fatal("clamp failed")
	}
}
