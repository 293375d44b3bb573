package bench

import (
	"testing"

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
	opts := &parcc.Options{Algorithm: parcc.LT, Backend: parcc.BackendSequential}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parcc.ConnectedComponents(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionSolve(b *testing.B) {
	g := benchGraph()
	s, err := parcc.NewSolver(&parcc.Options{Algorithm: parcc.LT, Backend: parcc.BackendSequential})
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
