// Benchmarks: one testing.B entry per experiment table (E1–E17, listed in
// the README; cmd/ccbench regenerates the full tables and
// docs/ARCHITECTURE.md §1 maps them to the paper), plus micro-benchmarks
// for the hot subroutines.  Wall-clock numbers here
// complement the charged PRAM time/work the experiments report.
package parcc_test

import (
	"fmt"
	"testing"

	"parcc"

	"parcc/internal/baseline"
	"parcc/internal/bench"
	"parcc/internal/core"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
	"parcc/internal/labeled"
	"parcc/internal/ltz"
	"parcc/internal/pram"
	"parcc/internal/pram/pramtest"
	"parcc/internal/spectral"
	"parcc/internal/stage1"
	"parcc/internal/stage2"
)

// runExperiment benches one full experiment-table regeneration at Small
// scale (the per-row operations are what E-benchmarks below isolate).
func runExperiment(b *testing.B, id string) {
	e, ok := bench.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab := e.Run(bench.Config{Scale: bench.Small, Seed: uint64(i + 1)})
		if len(tab.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkE1TimeVsGap(b *testing.B)     { runExperiment(b, "E1") }
func BenchmarkE2WorkLinearity(b *testing.B) { runExperiment(b, "E2") }
func BenchmarkE3MatchingShrink(b *testing.B) {
	runExperiment(b, "E3")
}
func BenchmarkE4ReduceShrink(b *testing.B)   { runExperiment(b, "E4") }
func BenchmarkE5SkeletonSize(b *testing.B)   { runExperiment(b, "E5") }
func BenchmarkE6MinDegree(b *testing.B)      { runExperiment(b, "E6") }
func BenchmarkE7DiameterBlowup(b *testing.B) { runExperiment(b, "E7") }
func BenchmarkE8SampledGap(b *testing.B)     { runExperiment(b, "E8") }
func BenchmarkE9KKTRemain(b *testing.B)      { runExperiment(b, "E9") }
func BenchmarkE10Headline(b *testing.B)      { runExperiment(b, "E10") }
func BenchmarkE11TwoCycle(b *testing.B)      { runExperiment(b, "E11") }
func BenchmarkE12PhaseSchedule(b *testing.B) { runExperiment(b, "E12") }
func BenchmarkE13ContractionGap(b *testing.B) {
	runExperiment(b, "E13")
}
func BenchmarkE14NaiveSampling(b *testing.B)  { runExperiment(b, "E14") }
func BenchmarkE15StageBreakdown(b *testing.B) { runExperiment(b, "E15") }

// --- end-to-end solver benchmarks on fixed workloads ---

func benchSolve(b *testing.B, g *graph.Graph, algo parcc.Algorithm) {
	b.ReportAllocs()
	b.SetBytes(int64(g.M()) * 8)
	for i := 0; i < b.N; i++ {
		res, err := parcc.ConnectedComponents(g, &parcc.Options{Algorithm: algo, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		_ = res.NumComponents
	}
}

func BenchmarkSolveFLSExpander64k(b *testing.B) {
	benchSolve(b, gen.RandomRegular(1<<16, 8, 1), parcc.FLS)
}

func BenchmarkSolveFLSPath64k(b *testing.B) {
	benchSolve(b, gen.Path(1<<16), parcc.FLS)
}

func BenchmarkSolveFLSGNM64k(b *testing.B) {
	benchSolve(b, gen.GNM(1<<16, 3<<16, 1), parcc.FLS)
}

func BenchmarkSolveLTZExpander64k(b *testing.B) {
	benchSolve(b, gen.RandomRegular(1<<16, 8, 1), parcc.LTZ)
}

func BenchmarkSolveSVExpander64k(b *testing.B) {
	benchSolve(b, gen.RandomRegular(1<<16, 8, 1), parcc.SV)
}

func BenchmarkSolveLabelPropExpander64k(b *testing.B) {
	benchSolve(b, gen.RandomRegular(1<<16, 8, 1), parcc.LabelProp)
}

func BenchmarkSolveUnionFindExpander64k(b *testing.B) {
	benchSolve(b, gen.RandomRegular(1<<16, 8, 1), parcc.UnionFind)
}

func BenchmarkSolveBFSExpander64k(b *testing.B) {
	benchSolve(b, gen.RandomRegular(1<<16, 8, 1), parcc.BFS)
}

// --- subroutine micro-benchmarks ---

func BenchmarkMatchingOnce64k(b *testing.B) {
	g := gen.RandomRegular(1<<16, 4, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := pramtest.New(b, 0, pram.Seed(uint64(i+1)))
		f := labeled.New(g.N)
		r := stage1.NewRunner(m, f, stage1.DefaultParams(g.N))
		b.StartTimer()
		r.Matching(g.Edges)
	}
}

func BenchmarkReduce64k(b *testing.B) {
	g := gen.RandomRegular(1<<16, 4, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := pramtest.New(b, 0, pram.Seed(uint64(i+1)))
		f := labeled.New(g.N)
		r := stage1.NewRunner(m, f, stage1.DefaultParams(g.N))
		b.StartTimer()
		r.Reduce(g)
	}
}

func BenchmarkExpandMaxlinkRound64k(b *testing.B) {
	g := gen.RandomRegular(1<<16, 4, 1)
	m := pramtest.New(b, 0, pram.Seed(1))
	f := labeled.New(g.N)
	V := make([]int32, g.N)
	m.Iota32(V)
	st := ltz.NewState(m, f, V, g.Edges, ltz.DefaultParams(g.N))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st.Done() {
			b.StopTimer()
			f = labeled.New(g.N)
			st = ltz.NewState(m, f, V, g.Edges, ltz.DefaultParams(g.N))
			b.StartTimer()
		}
		st.Round()
	}
}

func BenchmarkSkeletonBuild64k(b *testing.B) {
	g := gen.GNM(1<<14, 1<<17, 1)
	m := pramtest.New(b, 0, pram.Seed(1))
	V := make([]int32, g.N)
	m.Iota32(V)
	p := stage2.DefaultParams(g.N, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stage2.Build(m, V, g.Edges, p)
	}
}

func BenchmarkAlter1M(b *testing.B) {
	g := gen.GNM(1<<18, 1<<20, 1)
	m := pramtest.New(b, 0, pram.Seed(1))
	f := labeled.New(g.N)
	E := make([]graph.Edge, len(g.Edges))
	b.ReportAllocs()
	b.SetBytes(int64(len(E)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(E, g.Edges)
		labeled.Alter(m, f, E)
	}
}

func BenchmarkShortcutAll1M(b *testing.B) {
	f := labeled.New(1 << 20)
	m := pramtest.New(b, 0, pram.Seed(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		labeled.ShortcutAll(m, f)
	}
}

func BenchmarkSpectralGapExpander(b *testing.B) {
	g := gen.RandomRegular(1<<12, 8, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spectral.Gap(g, &spectral.Options{Seed: uint64(i + 1)})
	}
}

func BenchmarkBFSLabels1M(b *testing.B) {
	g := gen.GNM(1<<18, 1<<20, 1)
	b.ReportAllocs()
	b.SetBytes(int64(g.M()) * 8)
	for i := 0; i < b.N; i++ {
		baseline.BFSLabels(g)
	}
}

func BenchmarkUnionFind1M(b *testing.B) {
	g := gen.GNM(1<<18, 1<<20, 1)
	b.ReportAllocs()
	b.SetBytes(int64(g.M()) * 8)
	for i := 0; i < b.N; i++ {
		baseline.UnionFindLabels(g)
	}
}

// BenchmarkConnectivityProcs sweeps the runtime's parallelism to expose
// the concurrent backend's speedup on one fixed workload.
func BenchmarkConnectivityProcs(b *testing.B) {
	g := gen.GNM(1<<17, 3<<17, 1)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := pramtest.New(b, w, pram.Seed(uint64(i+1)))
				core.Connectivity(m, g, core.Default(g.N))
			}
		})
	}
}

func BenchmarkE16FilterDeletion(b *testing.B) { runExperiment(b, "E16") }
func BenchmarkE17BudgetGrid(b *testing.B)     { runExperiment(b, "E17") }
