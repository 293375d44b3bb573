package parcc

import (
	"testing"

	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
)

// TestSampleAutoEquivalenceAcrossFamilies is the cross-algorithm property
// suite for the sampling fast path: on every generator family and both
// backends, `sample` and `auto` must produce the same partition as the
// sequential cas baseline, which is itself checked against BFS ground
// truth.  Sample's labels are additionally pinned to cas's exactly — both
// converge to component minima under any schedule.
func TestSampleAutoEquivalenceAcrossFamilies(t *testing.T) {
	for name, g := range familyGraphs() {
		truth := baseline.BFSLabels(g)
		casL := mustLabels(t, g, &Options{Algorithm: CASUnite, Backend: BackendSequential})
		if !graph.SamePartition(truth, casL) {
			t.Fatalf("%s: cas baseline wrong", name)
		}
		for _, backend := range []Backend{BackendSequential, BackendConcurrent} {
			opts := &Options{Algorithm: Sample, Backend: backend, Procs: 4, Seed: 5}
			res, err := ConnectedComponents(g, opts)
			if err != nil {
				t.Fatalf("%s/%s sample: %v", name, backend, err)
			}
			if !graph.SamePartition(casL, res.Labels) {
				t.Errorf("%s/%s: sample partition differs from cas", name, backend)
			}
			if res.Phases == 0 {
				// The skip pass ran: min-labels must match cas exactly.
				for v := range casL {
					if res.Labels[v] != casL[v] {
						t.Fatalf("%s/%s: sample label[%d]=%d, want min-label %d",
							name, backend, v, res.Labels[v], casL[v])
					}
				}
			}
			if res.SkipRatio < 0 || res.SkipRatio > 1 {
				t.Errorf("%s/%s: SkipRatio = %v outside [0,1]", name, backend, res.SkipRatio)
			}
			auto, err := ConnectedComponents(g, &Options{Algorithm: Auto, Backend: backend, Procs: 4, Seed: 5})
			if err != nil {
				t.Fatalf("%s/%s auto: %v", name, backend, err)
			}
			if !graph.SamePartition(casL, auto.Labels) {
				t.Errorf("%s/%s: auto partition differs from cas", name, backend)
			}
			switch auto.Algorithm {
			case UnionFind, CASUnite, Sample, Frontier:
			default:
				t.Errorf("%s/%s: auto recorded %q, want a concrete dispatch decision",
					name, backend, auto.Algorithm)
			}
		}
	}
}

// TestAutoDecisionRecorded pins the dispatch table's rows on
// representative shapes, on a session of two procs (narrow) and of four
// (wide): tiny → union-find and dense (2m/n ≥ 24) → sample at any width;
// the rest → union-find on the narrow session and cas on the wide one,
// id-local meshes and random graphs just under the dense row alike.
func TestAutoDecisionRecorded(t *testing.T) {
	cases := []struct {
		name         string
		g            *Graph
		narrow, wide Algorithm
	}{
		{"tiny", gen.Path(50), UnionFind, UnionFind},
		{"complete", gen.Complete(1024), Sample, Sample},
		{"dense", gen.GNM(4096, 1<<17, 3), Sample, Sample},
		{"gnm-20", gen.GNM(4096, 40960, 3), UnionFind, CASUnite},
		{"mesh", gen.Path(1 << 13), UnionFind, CASUnite},
		{"sparse", gen.GNM(1<<13, 1<<13, 3), UnionFind, CASUnite},
	}
	for _, c := range cases {
		for _, w := range []struct {
			procs int
			want  Algorithm
		}{{2, c.narrow}, {4, c.wide}} {
			res, err := ConnectedComponents(c.g, &Options{Algorithm: Auto, Procs: w.procs})
			if err != nil {
				t.Fatal(err)
			}
			if res.Algorithm != w.want {
				t.Errorf("%s procs=%d: auto picked %q, want %q", c.name, w.procs, res.Algorithm, w.want)
			}
			if !Verify(c.g, res.Labels) {
				t.Errorf("%s procs=%d: auto labels wrong", c.name, w.procs)
			}
		}
	}
}

// TestAutoStableAcrossPlanCaching: the dispatch decision reads n and m
// alone, so a session that holds a cached plan must pick the same kernel
// and partition as one that does not.
func TestAutoStableAcrossPlanCaching(t *testing.T) {
	g := gen.GNM(2000, 40000, 11) // avg deg 40: the dense row
	s, err := NewSolver(&Options{Algorithm: Auto})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cold, err := s.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	s.Plan(g) // cache the CSR plan
	warm, err := s.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Algorithm != Sample || warm.Algorithm != cold.Algorithm {
		t.Fatalf("auto picked %q cold, %q warm; want %q on both", cold.Algorithm, warm.Algorithm, Sample)
	}
	if !graph.SamePartition(cold.Labels, warm.Labels) {
		t.Fatal("auto partitions diverged across plan caching")
	}
}
