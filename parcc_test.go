package parcc

import (
	"bytes"
	"fmt"
	"testing"
)

func TestAllAlgorithmsAgree(t *testing.T) {
	g := UnionGraphs(Cycle(120), Grid(9, 11), RandomRegular(128, 4, 3), NewGraph(7))
	algos := []Algorithm{FLS, FLSKnownGap, UnionFind, CASUnite, Sample, Frontier}
	for _, a := range algos {
		res, err := ConnectedComponents(g, &Options{Algorithm: a, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if !Verify(g, res.Labels) {
			t.Errorf("%s: wrong partition", a)
		}
		if res.NumComponents != 10 { // 3 graphs + 7 isolated vertices
			t.Errorf("%s: %d components, want 10", a, res.NumComponents)
		}
		if res.Algorithm != a {
			t.Errorf("result echoes %q, want %q", res.Algorithm, a)
		}
	}
}

func TestDefaultOptions(t *testing.T) {
	g := Cycle(50)
	res, err := ConnectedComponents(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != FLS || res.NumComponents != 1 {
		t.Fatalf("default run: algo=%s comps=%d", res.Algorithm, res.NumComponents)
	}
	if res.Steps <= 0 || res.Work <= 0 {
		t.Error("accounting missing")
	}
}

func TestNilAndInvalidInputs(t *testing.T) {
	if _, err := ConnectedComponents(nil, nil); err == nil {
		t.Error("nil graph should error")
	}
	bad := NewGraph(2)
	bad.Edges = append(bad.Edges, Edge{U: 0, V: 9})
	if _, err := ConnectedComponents(bad, nil); err == nil {
		t.Error("invalid edge should error")
	}
	// Vertex counts outside [0, MaxInt32] are refused before anything is
	// sized by them.
	for _, n := range []int{-1, 1 << 31} {
		for _, algo := range []Algorithm{UnionFind, FLS, Auto} {
			if _, err := ConnectedComponents(NewGraph(n), &Options{Algorithm: algo}); err == nil {
				t.Errorf("n=%d %s: out-of-range vertex count should error", n, algo)
			}
		}
	}
	// The classical baselines run through their internal packages only:
	// naming one is the same unknown-algorithm error as a typo.
	for _, name := range []Algorithm{"nope", "ltz", "sv", "random-mate", "label-prop", "liu-tarjan", "parallel-bfs", "bfs"} {
		_, err := ConnectedComponents(Cycle(4), &Options{Algorithm: name})
		if err == nil || err.Error() != fmt.Sprintf("parcc: unknown algorithm %q", name) {
			t.Errorf("%s: err = %v, want the unknown-algorithm error", name, err)
		}
	}
}

func TestSameComponentAndComponents(t *testing.T) {
	g := UnionGraphs(Path(4), Path(3))
	res, err := ConnectedComponents(g, &Options{Algorithm: UnionFind})
	if err != nil {
		t.Fatal(err)
	}
	if !res.SameComponent(0, 3) || res.SameComponent(0, 4) {
		t.Error("SameComponent wrong")
	}
	comps := res.Components()
	if len(comps) != 2 || len(comps[0]) != 4 || len(comps[1]) != 3 {
		t.Errorf("Components = %v", comps)
	}
}

func TestSequentialDeterministic(t *testing.T) {
	g := GNM(300, 450, 7)
	run := func() *Result {
		res, err := ConnectedComponents(g, &Options{Backend: BackendSequential, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Steps != b.Steps || a.Work != b.Work {
		t.Errorf("sequential runs differ: steps %d vs %d, work %d vs %d",
			a.Steps, b.Steps, a.Work, b.Work)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("sequential labels differ")
		}
	}
}

func TestGraphIO(t *testing.T) {
	g := UnionGraphs(Cycle(5), Path(4))
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N != g.N || h.M() != g.M() {
		t.Fatal("round trip changed graph")
	}
}

func TestSpectralHelpers(t *testing.T) {
	if l := SpectralGap(Complete(8)); l < 1.0 || l > 1.3 {
		t.Errorf("K8 gap = %f", l)
	}
	if d := Diameter(Path(9)); d != 8 {
		t.Errorf("path diameter = %d", d)
	}
	if d := DiameterApprox(BinaryTree(31)); d != Diameter(BinaryTree(31)) {
		t.Errorf("tree approx diameter %d != exact", d)
	}
	gaps := ComponentSpectralGaps(UnionGraphs(Cycle(6), Cycle(8)))
	if len(gaps) != 2 {
		t.Errorf("expected 2 component gaps, got %v", gaps)
	}
}

func TestKnownGapB(t *testing.T) {
	g := RandomRegular(512, 6, 1)
	res, err := ConnectedComponents(g, &Options{Algorithm: FLSKnownGap, KnownGapB: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(g, res.Labels) || res.NumComponents != 1 {
		t.Error("known-gap solve wrong")
	}
}

func TestProcsOption(t *testing.T) {
	g := GNM(2000, 4000, 1)
	for _, p := range []int{1, 2, 8} {
		res, err := ConnectedComponents(g, &Options{Procs: p, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !Verify(g, res.Labels) {
			t.Errorf("procs=%d: wrong partition", p)
		}
	}
}

func TestCertifyResult(t *testing.T) {
	g := UnionGraphs(Cycle(50), Grid(6, 7), NewGraph(3))
	res, err := ConnectedComponents(g, &Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Certify(g, res.Labels)
	if err != nil {
		t.Fatalf("labeling failed certification: %v", err)
	}
	if err := VerifyCertificate(g, c); err != nil {
		t.Fatal(err)
	}
	// a spanning forest has n - #components edges
	want := g.N - res.NumComponents
	if len(c.Forest) != want {
		t.Errorf("forest has %d edges, want %d", len(c.Forest), want)
	}
}
