package par

import (
	"testing"

	"parcc/internal/graph"
	"parcc/internal/graph/gen"
)

// samplePipeline runs the full sampling fast path — identity init, sample
// rounds, flatten, majority vote, finish pass, flatten — and returns the
// labels plus the processed count, exactly as the solver composes the
// kernels.  useMajority selects the majority finish mode regardless of the
// measured coverage (both modes must produce the same partition).
func samplePipeline(r *Runtime, g *graph.Graph, rounds int, useMajority bool) ([]int32, int64) {
	p := make([]int32, g.N)
	r.Run(g.N, func(v int) { p[v] = int32(v) })
	csr := graph.BuildCSR(g)
	SampleUnite(r, p, csr, rounds)
	Compress(r, p)
	maj := int32(-1)
	if useMajority && g.N > 0 {
		maj, _ = MajorityRoot(r, p, 256, nil)
	}
	processed, _ := SkipUnite(r, p, csr, maj)
	Compress(r, p)
	return p, processed
}

func TestSamplePipelineMatchesBFS(t *testing.T) {
	for _, procs := range []int{1, 4} {
		r := New(Procs(procs), Grain(64), Seed(7))
		for name, g := range kernelGraphs() {
			for _, useMajority := range []bool{false, true} {
				labels, processed := samplePipeline(r, g, 2, useMajority)
				if !graph.SamePartition(bfsLabels(g), labels) {
					t.Errorf("procs=%d %s maj=%v: sample pipeline partition wrong", procs, name, useMajority)
				}
				if processed < 0 || processed > 2*int64(len(g.Edges)) {
					t.Errorf("procs=%d %s maj=%v: processed=%d out of [0,2m]", procs, name, useMajority, processed)
				}
				// The fixpoint of the CAS forest is min-labeled components.
				want, _, _ := Components(r, g, nil)
				for v := range want {
					if labels[v] != want[v] {
						t.Fatalf("procs=%d %s maj=%v: label[%d]=%d, want min-label %d",
							procs, name, useMajority, v, labels[v], want[v])
					}
				}
			}
		}
		r.Close()
	}
}

func TestSampleUniteSettlesDenseCommunities(t *testing.T) {
	// 16 cliques of 64: two sampling rounds must collapse nearly every
	// clique, so the finish pass unites almost none of the ~32k edges.
	g := gen.RingOfCliques(16, 64, 2, 3)
	r := New(Procs(2), Grain(128), Seed(1))
	defer r.Close()
	_, processed := samplePipeline(r, g, 2, false)
	if ratio := float64(processed) / float64(len(g.Edges)); ratio > 0.1 {
		t.Fatalf("processed ratio on ring-of-cliques = %.3f, want ≤ 0.1", ratio)
	}
}

func TestSampleUniteEnumeratesLowDegreeExactly(t *testing.T) {
	// Degree ≤ rounds vertices enumerate their adjacency deterministically,
	// so two rounds settle a path completely: the finish pass unites
	// nothing, in either mode (the path is one component, so it is its own
	// majority — vertex skips eliminate the whole pass).
	g := gen.Path(2000)
	r := New(Procs(2), Seed(5))
	defer r.Close()
	for _, useMajority := range []bool{false, true} {
		if _, processed := samplePipeline(r, g, 2, useMajority); processed != 0 {
			t.Fatalf("path maj=%v: processed %d edges, want 0", useMajority, processed)
		}
	}
}

func TestMajorityRootFindsDominantComponent(t *testing.T) {
	// One giant component (4/5 of vertices) plus scattered singletons.
	giant := gen.GNM(4000, 12000, 2)
	g := gen.Union(giant, graph.New(1000))
	r := New(Procs(2), Seed(9))
	defer r.Close()
	p := make([]int32, g.N)
	r.Run(g.N, func(v int) { p[v] = int32(v) })
	UniteBatch(p, g.Edges, make([]bool, g.M()), make([]int32, g.M()))
	Compress(r, p)
	root, cover := MajorityRoot(r, p, 512, nil)
	if want := Find(p, 0); root != want {
		t.Fatalf("majority root = %d, want the giant's root %d", root, want)
	}
	if cover < 0.6 || cover > 0.95 {
		t.Fatalf("majority coverage = %.3f, want ≈ 0.8", cover)
	}
}

func TestSampleKernelsEdgeCases(t *testing.T) {
	r := New(Procs(2))
	defer r.Close()
	if root, cover := MajorityRoot(r, nil, 64, nil); root != -1 || cover != 0 {
		t.Fatalf("MajorityRoot(empty) = (%d, %v), want (-1, 0)", root, cover)
	}
	g := graph.New(0)
	if processed, hooks := SkipUnite(r, nil, graph.BuildCSR(g), -1); processed != 0 || hooks != 0 {
		t.Fatalf("SkipUnite(empty) = %d, want 0", processed)
	}
}

func TestSkipUniteProcessesOnlyUnsettled(t *testing.T) {
	g := graph.FromPairs(4, [][2]int{{0, 0}, {0, 1}, {0, 1}, {2, 3}})
	r := New(Procs(1))
	defer r.Close()
	p := []int32{0, 1, 2, 3}
	// Nothing sampled, filtered mode: the self-loop falls out of the u > v
	// filter, the first (0,1) visit unites, the duplicate adjacency entry
	// is settled by then (sequential procs=1), and (2,3) unites.
	processed, hooks := SkipUnite(r, p, graph.BuildCSR(g), -1)
	if processed != 2 || hooks != 2 {
		t.Fatalf("processed, hooks = %d, %d, want 2, 2 (one Unite per component merge)", processed, hooks)
	}
	Compress(r, p)
	if p[1] != 0 || p[3] != 2 {
		t.Fatalf("labels = %v, want [0 0 2 2]", p)
	}
}

func TestSkipUniteMajorityModeRevisitsBoundary(t *testing.T) {
	// Majority mode must pick up edges that leave the majority component
	// from their non-majority endpoint: pretend {0,1} is the settled
	// majority and (1,2) is an unsettled boundary edge.
	g := graph.FromPairs(3, [][2]int{{0, 1}, {1, 2}})
	r := New(Procs(1))
	defer r.Close()
	p := []int32{0, 0, 2}
	if processed, _ := SkipUnite(r, p, graph.BuildCSR(g), 0); processed != 1 {
		t.Fatalf("processed = %d, want 1 (the boundary edge from vertex 2)", processed)
	}
	Compress(r, p)
	if p[2] != 0 {
		t.Fatalf("labels = %v, want all 0", p)
	}
}
