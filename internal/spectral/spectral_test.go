package spectral

import (
	"math"
	"testing"

	"parcc/internal/graph"
	"parcc/internal/graph/gen"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestGapCompleteGraph(t *testing.T) {
	// λ(K_n) = n/(n-1).
	for _, n := range []int{4, 8, 16} {
		g := gen.Complete(n)
		want := float64(n) / float64(n-1)
		if got := Gap(graph.NewPlan(g), nil); !almost(got, want, 0.02) {
			t.Errorf("K%d: gap = %f, want %f", n, got, want)
		}
	}
}

func TestGapCycle(t *testing.T) {
	// λ(C_n) = 1 - cos(2π/n).
	for _, n := range []int{8, 16, 32} {
		g := gen.Cycle(n)
		want := 1 - math.Cos(2*math.Pi/float64(n))
		if got := Gap(graph.NewPlan(g), nil); !almost(got, want, 0.01) {
			t.Errorf("C%d: gap = %f, want %f", n, got, want)
		}
	}
}

func TestGapPath(t *testing.T) {
	// λ(P_n) = 1 - cos(π/(n-1)) for the path's normalized Laplacian.
	g := gen.Path(16)
	want := 1 - math.Cos(math.Pi/15)
	if got := Gap(graph.NewPlan(g), nil); !almost(got, want, 0.01) {
		t.Errorf("P16: gap = %f, want %f", got, want)
	}
}

func TestGapHypercube(t *testing.T) {
	// λ(Q_d) = 2/d.
	for _, d := range []int{3, 4, 5} {
		g := gen.Hypercube(d)
		want := 2 / float64(d)
		if got := Gap(graph.NewPlan(g), nil); !almost(got, want, 0.02) {
			t.Errorf("Q%d: gap = %f, want %f", d, got, want)
		}
	}
}

func TestGapStar(t *testing.T) {
	// λ(K_{1,n}) = 1.
	if got := Gap(graph.NewPlan(gen.Star(12)), nil); !almost(got, 1, 0.02) {
		t.Errorf("star gap = %f, want 1", got)
	}
}

func TestGapMatchesDenseOracle(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Cycle(9), gen.Grid(3, 4), gen.Complete(6),
		gen.Lollipop(10, 4), gen.RandomRegular(12, 4, 7),
	}
	for i, g := range graphs {
		want := GapDense(g)
		got := Gap(graph.NewPlan(g), &Options{MaxIter: 20000, Tol: 1e-12})
		if !almost(got, want, 0.02) {
			t.Errorf("graph %d: power-iter gap %f vs dense %f", i, got, want)
		}
	}
}

func TestGapDisconnectedIsZero(t *testing.T) {
	g := gen.Union(gen.Cycle(8), gen.Cycle(8))
	// Component-wise λ: the min over components (each is a connected cycle).
	want := 1 - math.Cos(2*math.Pi/8)
	if got := Gap(graph.NewPlan(g), nil); !almost(got, want, 0.01) {
		t.Errorf("two-cycles component gap = %f, want %f", got, want)
	}
	// But the whole-graph dense λ2 of a disconnected graph is 0.
	if l := EigenvaluesDense(NormalizedLaplacian(g)); !almost(l[1], 0, 1e-9) {
		t.Errorf("disconnected λ2 = %f, want 0", l[1])
	}
}

func TestComponentGapsSkipsSingletons(t *testing.T) {
	g := gen.Union(gen.Cycle(6), graph.New(3))
	gaps := ComponentGaps(graph.NewPlan(g), nil)
	nan := 0
	for _, l := range gaps {
		if math.IsNaN(l) {
			nan++
		}
	}
	if nan != 3 {
		t.Errorf("expected 3 singleton NaNs, got %d (gaps=%v)", nan, gaps)
	}
	if Gap(graph.NewPlan(g), nil) > 2 || Gap(graph.NewPlan(g), nil) <= 0 {
		t.Error("gap of union should come from the cycle")
	}
}

func TestGapExpanderConstant(t *testing.T) {
	g := gen.RandomRegular(256, 6, 5)
	if got := Gap(graph.NewPlan(g), nil); got < 0.15 {
		t.Errorf("6-regular expander gap = %f, suspiciously small", got)
	}
}

func TestSelfLoopsRaiseNoPanic(t *testing.T) {
	g := graph.FromPairs(3, [][2]int{{0, 0}, {0, 1}, {1, 2}, {2, 2}})
	got := Gap(graph.NewPlan(g), nil)
	want := GapDense(g)
	if !almost(got, want, 0.03) {
		t.Errorf("loops: %f vs dense %f", got, want)
	}
}

func TestCheegerInequality(t *testing.T) {
	// φ²/2 ≤ λ ≤ 2φ on small graphs with exact conductance.
	graphs := []*graph.Graph{
		gen.Cycle(8), gen.Path(7), gen.Complete(6), gen.Grid(3, 3),
		gen.Lollipop(9, 4),
	}
	for i, g := range graphs {
		phi := Conductance(g)
		lam := GapDense(g)
		if lam > 2*phi+1e-9 || lam < phi*phi/2-1e-9 {
			t.Errorf("graph %d: Cheeger violated: φ=%f λ=%f", i, phi, lam)
		}
	}
}

// Conductance computes φ(G) (Definition 2.3) exactly by enumerating vertex
// subsets.  Only usable for n ≤ ~20; the Cheeger test's oracle.
func Conductance(g *graph.Graph) float64 {
	n := g.N
	deg := g.Degrees()
	var vol int64
	for _, d := range deg {
		vol += int64(d)
	}
	best := math.Inf(1)
	for mask := 1; mask < 1<<n-1; mask++ {
		var volS, cut int64
		for v := 0; v < n; v++ {
			if mask>>v&1 == 1 {
				volS += int64(deg[v])
			}
		}
		if volS == 0 || volS*2 > vol {
			continue
		}
		for _, e := range g.Edges {
			if e.U == e.V {
				continue
			}
			inU := mask>>e.U&1 == 1
			inV := mask>>e.V&1 == 1
			if inU != inV {
				cut++
			}
		}
		phi := float64(cut) / float64(volS)
		if phi < best {
			best = phi
		}
	}
	return best
}

func TestNormalizedLaplacianDefinition(t *testing.T) {
	// Definition 2.1 on a triangle with a self-loop at 0.
	g := graph.FromPairs(3, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 0}})
	L := NormalizedLaplacian(g)
	// deg(0) = 3 (self-loop counts once), w(0,0)=1 → L[0][0] = 1 - 1/3.
	if !almost(L[0][0], 1-1.0/3, 1e-12) {
		t.Errorf("L[0][0] = %f", L[0][0])
	}
	if !almost(L[1][1], 1, 1e-12) {
		t.Errorf("L[1][1] = %f", L[1][1])
	}
	// L[0][1] = -1/sqrt(deg0*deg1) = -1/sqrt(6).
	if !almost(L[0][1], -1/math.Sqrt(6), 1e-12) {
		t.Errorf("L[0][1] = %f", L[0][1])
	}
}

func TestEigenvaluesDenseIdentity(t *testing.T) {
	a := [][]float64{{2, 0}, {0, -1}}
	ev := EigenvaluesDense(a)
	if !almost(ev[0], -1, 1e-9) || !almost(ev[1], 2, 1e-9) {
		t.Errorf("eigenvalues = %v", ev)
	}
}

func TestDiameterExact(t *testing.T) {
	if d := DiameterExact(graph.NewPlan(gen.Path(10))); d != 9 {
		t.Errorf("path diameter = %d", d)
	}
	if d := DiameterExact(graph.NewPlan(gen.Cycle(10))); d != 5 {
		t.Errorf("cycle diameter = %d", d)
	}
	if d := DiameterExact(graph.NewPlan(gen.Complete(6))); d != 1 {
		t.Errorf("K6 diameter = %d", d)
	}
	if d := DiameterExact(graph.NewPlan(gen.Grid(3, 4))); d != 5 {
		t.Errorf("grid diameter = %d", d)
	}
}

func TestDiameterApproxOnTrees(t *testing.T) {
	// Double sweep is exact on trees.
	g := gen.BinaryTree(63)
	if got, want := DiameterApprox(graph.NewPlan(g), 2), DiameterExact(graph.NewPlan(g)); got != want {
		t.Errorf("tree diameter approx %d vs exact %d", got, want)
	}
}

func TestDiameterApproxLowerBounds(t *testing.T) {
	g := gen.Torus(8, 8)
	lo := DiameterApprox(graph.NewPlan(g), 3)
	hi := DiameterExact(graph.NewPlan(g))
	if lo > hi {
		t.Errorf("approx %d exceeds exact %d", lo, hi)
	}
	if lo < hi/2 {
		t.Errorf("approx %d too loose vs exact %d", lo, hi)
	}
}

func TestDiameterMultiComponent(t *testing.T) {
	g := gen.Union(gen.Path(5), gen.Path(11))
	if d := DiameterExact(graph.NewPlan(g)); d != 10 {
		t.Errorf("union diameter = %d, want 10", d)
	}
	if d := DiameterApprox(graph.NewPlan(g), 2); d != 10 {
		t.Errorf("approx union diameter = %d, want 10", d)
	}
}

func TestGapSampledStaysClose(t *testing.T) {
	// Corollary C.3 shape: with large min degree, sampling perturbs λ little.
	g := gen.RandomRegular(300, 24, 11)
	lam := Gap(graph.NewPlan(g), nil)
	s := gen.SampleEdges(g, 0.5, 7)
	lam2 := Gap(graph.NewPlan(s), nil)
	if math.Abs(lam-lam2) > 0.35 {
		t.Errorf("sampled gap moved too far: %f -> %f", lam, lam2)
	}
}
