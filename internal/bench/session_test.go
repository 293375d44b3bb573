package bench

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"parcc"
	"parcc/internal/graph/gen"
)

// The CI smoke benchmarks: one-shot vs session on a small instance, so
// `go test -bench . -benchtime 1x` exercises both solve paths.
func benchGraph() *parcc.Graph {
	return gen.Union(gen.RandomRegular(1500, 6, 1), gen.Path(300))
}

func BenchmarkOneShotSolve(b *testing.B) {
	g := benchGraph()
	opts := &parcc.Options{Algorithm: parcc.FLS, Backend: parcc.BackendSequential}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parcc.ConnectedComponents(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionSolve(b *testing.B) {
	g := benchGraph()
	s, err := parcc.NewSolver(&parcc.Options{Algorithm: parcc.FLS, Backend: parcc.BackendSequential})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	res := &parcc.Result{}
	if err := s.SolveInto(g, res); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SolveInto(g, res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionSolveConcurrent(b *testing.B) {
	g := benchGraph()
	s, err := parcc.NewSolver(&parcc.Options{Algorithm: parcc.CASUnite, Backend: parcc.BackendConcurrent})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	res := &parcc.Result{}
	if err := s.SolveInto(g, res); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SolveInto(g, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttachPublish times a live session's one linear-work step,
// Attach plus the first PublishSnapshot — the core of Engine.Create,
// Engine.Recover and a follower reset.  Per shape and procs, each
// iteration attaches a fresh copy of the graph on a new session of the
// default (concurrent) backend, from a collected heap, and publishes
// once; ns/edge is the median over the iterations:
//
//	go test -run '^$' -bench AttachPublish -benchtime 9x ./internal/bench/
func BenchmarkAttachPublish(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *parcc.Graph
	}{
		{"grid-512x512", gen.Grid(512, 512)},
		{"gnm-2^16-deg8", gen.GNM(1<<16, 1<<18, 1)},
		{"gnm-2^18-deg4", gen.GNM(1<<18, 1<<19, 1)},
	} {
		for _, procs := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/procs-%d", c.name, procs), func(b *testing.B) {
				perEdge := make([]float64, 0, b.N)
				for range b.N {
					s, err := parcc.NewSolver(&parcc.Options{Procs: procs, Seed: 1})
					if err != nil {
						b.Fatal(err)
					}
					live := c.g.Clone()
					runtime.GC()
					t0 := time.Now()
					if err := s.Attach(live); err != nil {
						b.Fatal(err)
					}
					if _, err := s.PublishSnapshot(); err != nil {
						b.Fatal(err)
					}
					perEdge = append(perEdge, float64(time.Since(t0).Nanoseconds())/float64(c.g.M()))
					s.Close()
				}
				b.ReportMetric(median(perEdge), "ns/edge")
			})
		}
	}
}
