package parcc

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
)

// familyGraphs instantiates every generator family in internal/graph/gen
// (gen.go and smallworld.go) at sizes small enough for the full algorithm ×
// backend product.
func familyGraphs() map[string]*Graph {
	return map[string]*Graph{
		"path":            gen.Path(257),
		"cycle":           gen.Cycle(200),
		"two-cycles":      gen.TwoCycles(201),
		"grid":            gen.Grid(13, 17),
		"torus":           gen.Torus(9, 11),
		"hypercube":       gen.Hypercube(7),
		"complete":        gen.Complete(40),
		"star":            gen.Star(120),
		"binary-tree":     gen.BinaryTree(255),
		"random-regular":  gen.RandomRegular(512, 4, 7),
		"gnm":             gen.GNM(400, 700, 9),
		"ring-of-cliques": gen.RingOfCliques(8, 12, 2, 3),
		"lollipop":        gen.Lollipop(150, 40),
		"barbell":         gen.Barbell(90, 25),
		"union":           gen.Union(gen.Path(60), gen.Cycle(45), graph.New(10)),
		"many-components": gen.ManyComponents(5, func(i int) *Graph { return gen.GNM(80, 120, uint64(i+1)) }),
		"sampled":         gen.SampleEdges(gen.Grid(20, 20), 0.55, 11),
		"appendix-b":      gen.AppendixB(400, 3),
		"watts-strogatz":  gen.WattsStrogatz(300, 6, 0.1, 13),
		"barabasi-albert": gen.BarabasiAlbert(300, 3, 17),
	}
}

// TestBackendEquivalenceAcrossFamilies is the cross-backend property test:
// for every generator family, the concurrent backend must produce the same
// component partition as the sequential simulator (both checked against
// BFS ground truth, so a mutual failure cannot hide).  The classical
// baselines get the same check in internal/bench's
// TestBaselineEquivalenceAcrossFamilies.
func TestBackendEquivalenceAcrossFamilies(t *testing.T) {
	algos := []Algorithm{FLS, CASUnite}
	for name, g := range familyGraphs() {
		truth := baseline.BFSLabels(g)
		for _, algo := range algos {
			seqL := mustLabels(t, g, &Options{Algorithm: algo, Backend: BackendSequential, Seed: 5})
			conL := mustLabels(t, g, &Options{Algorithm: algo, Backend: BackendConcurrent, Procs: 4, Seed: 5})
			if !graph.SamePartition(truth, seqL) {
				t.Errorf("%s/%s: sequential backend wrong", name, algo)
			}
			if !graph.SamePartition(seqL, conL) {
				t.Errorf("%s/%s: concurrent partition differs from sequential", name, algo)
			}
		}
	}
}

// TestDeterminismProbe pins the two deterministic configurations to each
// other: for every selectable algorithm on every family, the sequential
// backend and the concurrent backend at one proc must charge the same
// Steps and Work and return the same labels.  The classical baselines are
// pinned the same way by internal/bench's
// TestBaselineEquivalenceAcrossFamilies.
func TestDeterminismProbe(t *testing.T) {
	algos := append(slices.Clone(solverAlgos), Sample, Frontier, Auto)
	for name, g := range familyGraphs() {
		for _, algo := range algos {
			seq, err := ConnectedComponents(g, &Options{Algorithm: algo, Backend: BackendSequential, Seed: 5})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, algo, err)
			}
			one, err := ConnectedComponents(g, &Options{Algorithm: algo, Backend: BackendConcurrent, Procs: 1, Seed: 5})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, algo, err)
			}
			if seq.Steps != one.Steps || seq.Work != one.Work || !slices.Equal(seq.Labels, one.Labels) {
				t.Errorf("%s/%s: sequential (steps=%d work=%d) and procs=1 (steps=%d work=%d) diverge (labels equal: %v)",
					name, algo, seq.Steps, seq.Work, one.Steps, one.Work, slices.Equal(seq.Labels, one.Labels))
			}
		}
	}
}

func mustLabels(t *testing.T, g *Graph, o *Options) []int32 {
	t.Helper()
	res, err := ConnectedComponents(g, o)
	if err != nil {
		t.Fatalf("%s: %v", o.Algorithm, err)
	}
	return res.Labels
}

func TestBackendEquivalenceQuick(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.GNM(150, 220, seed)
		a, err := ConnectedComponents(g, &Options{Backend: BackendSequential, Seed: seed})
		if err != nil {
			return false
		}
		b, err := ConnectedComponents(g, &Options{Backend: BackendConcurrent, Procs: 3, Seed: seed})
		if err != nil {
			return false
		}
		return graph.SamePartition(a.Labels, b.Labels) && Verify(g, b.Labels)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestCASUniteDeterministicMinLabels(t *testing.T) {
	g := gen.Union(gen.Cycle(99), gen.GNM(200, 300, 4))
	want := mustLabels(t, g, &Options{Algorithm: CASUnite, Backend: BackendSequential})
	for _, procs := range []int{1, 2, 8} {
		got := mustLabels(t, g, &Options{Algorithm: CASUnite, Backend: BackendConcurrent, Procs: procs})
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("procs=%d: label[%d]=%d, want %d (cas-unite must be schedule-independent)",
					procs, v, got[v], want[v])
			}
		}
	}
	// cas-unite charges a nominal model cost, so comparisons stay honest.
	res, err := ConnectedComponents(g, &Options{Algorithm: CASUnite})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 || res.Work == 0 {
		t.Error("cas-unite should charge a nominal PRAM cost")
	}
}

func TestUnknownBackendRejected(t *testing.T) {
	if _, err := ConnectedComponents(NewGraph(3), &Options{Backend: "gpu"}); err == nil {
		t.Fatal("unknown backend should error")
	}
}

func TestResultEchoesBackendAndProcs(t *testing.T) {
	res, err := ConnectedComponents(gen.Path(50), &Options{Backend: BackendConcurrent, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != BackendConcurrent || res.Procs != 2 {
		t.Fatalf("echo = (%q, %d)", res.Backend, res.Procs)
	}
	seq, err := ConnectedComponents(gen.Path(50), &Options{Backend: BackendSequential, Procs: 9})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Procs != 1 {
		t.Fatalf("sequential backend should report procs=1, got %d", seq.Procs)
	}
	def, err := ConnectedComponents(gen.Path(50), &Options{})
	if err != nil {
		t.Fatal(err)
	}
	if def.Backend != BackendConcurrent || def.Procs != runtime.NumCPU() {
		t.Fatalf("zero Options echo = (%q, %d), want (%q, %d)", def.Backend, def.Procs, BackendConcurrent, runtime.NumCPU())
	}
}
