package parcc

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"parcc/internal/graph"
	"parcc/internal/graph/gen"
)

// validateAlgos are the public algorithms the invalid-input tests run:
// the two charged pipelines, which sweep the edges up front, the
// edge-list kernels, which check ranges in their own pass, the plan
// kernels, which validate when they build a plan, and Auto.
var validateAlgos = []Algorithm{FLS, FLSKnownGap, UnionFind, CASUnite, Sample, Frontier, Auto}

// validateSessions are the backends the invalid-input tests run on: the
// sequential one, and the concurrent one at procs 1 and 2.
var validateSessions = []struct {
	name    string
	backend Backend
	procs   int
}{
	{"sequential", BackendSequential, 0},
	{"concurrent-1", BackendConcurrent, 1},
	{"concurrent-2", BackendConcurrent, 2},
}

// wantValidateError checks that err is exactly Validate's error on g,
// wrapped by the package prefix.
func wantValidateError(t *testing.T, what string, g *Graph, err error) {
	t.Helper()
	verr := g.Validate()
	if verr == nil {
		t.Fatalf("%s: the case's graph validates; the test is broken", what)
	}
	if want := "parcc: " + verr.Error(); err == nil || err.Error() != want {
		t.Errorf("%s: err = %v, want %q", what, err, want)
	}
}

// TestInvalidInputSameError: every invalid graph gets Validate's exact
// error from every algorithm on every backend, cold and warm, and none
// panics.  The edge cases put an out-of-range edge at the first, a
// middle and the last position and a negative endpoint in the middle of
// a graph of 8 pool spans; the vertex-count cases set N below 0 and
// above MaxInt32 on the struct, where sizing any array from it would
// fail.  Cold is a fresh session's first solve.  Warm is a good solve
// of the same graph first, then the graph is broken: a bad edge
// appended (under TrustGraph too, whose edge count check sees the
// append), an edge overwritten in place (the plan kernels catch it by
// the fingerprint), N changed, and, for the edge-list kernels, an
// in-place overwrite under TrustGraph, which only their own pass sees.
// A failed warm solve leaves the Result's fields as they were.
func TestInvalidInputSameError(t *testing.T) {
	const n = 1 << 12
	base := gen.GNM(n, 4*n, 7)
	m := base.M()
	type breaker func(g *Graph)
	overwrite := func(i int, e Edge) breaker { return func(g *Graph) { g.Edges[i] = e } }
	broken := map[string]breaker{
		"first":      overwrite(0, Edge{U: n, V: 0}),
		"middle":     overwrite(m/2, Edge{U: 0, V: n + 5}),
		"last":       overwrite(m-1, Edge{U: n, V: n}),
		"negative":   overwrite(m/2+1, Edge{U: -1, V: 3}),
		"n<0":        func(g *Graph) { g.N = -1 },
		"n>MaxInt32": func(g *Graph) { g.N = math.MaxInt32 + 1 },
	}
	type warmCase struct {
		trust bool
		brk   breaker
	}
	newSession := func(algo Algorithm, be Backend, procs int, trust bool) *Solver {
		t.Helper()
		s, err := NewSolver(&Options{Algorithm: algo, Backend: be, Procs: procs, Seed: 3, TrustGraph: trust})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, se := range validateSessions {
		for _, algo := range validateAlgos {
			// Cold: each broken graph on a fresh session.
			for name, brk := range broken {
				g := base.Clone()
				brk(g)
				s := newSession(algo, se.backend, se.procs, false)
				what := fmt.Sprintf("%s/%s cold %s", se.name, algo, name)
				wantValidateError(t, what, g, solveRecover(s, g, &Result{}))
				s.Close()
			}
			// Warm: one good solve, then the graph is broken.
			warm := map[string]warmCase{
				"append":         {false, func(g *Graph) { g.Edges = append(g.Edges, Edge{U: 1, V: n}) }},
				"append trusted": {true, func(g *Graph) { g.Edges = append(g.Edges, Edge{U: -2, V: 1}) }},
			}
			for name, brk := range broken {
				warm[name] = warmCase{false, brk}
				if algo == UnionFind || algo == CASUnite {
					warm[name+" trusted"] = warmCase{true, brk}
				}
			}
			for name, c := range warm {
				g := base.Clone()
				s := newSession(algo, se.backend, se.procs, c.trust)
				res := &Result{}
				for i := 0; i < 2; i++ {
					if err := s.SolveInto(g, res); err != nil {
						t.Fatalf("%s/%s warm %s: good solve: %v", se.name, algo, name, err)
					}
				}
				before := *res
				c.brk(g)
				what := fmt.Sprintf("%s/%s warm %s", se.name, algo, name)
				wantValidateError(t, what, g, solveRecover(s, g, res))
				if res.NumComponents != before.NumComponents || res.Algorithm != before.Algorithm ||
					res.Steps != before.Steps || res.Work != before.Work || len(res.Labels) != len(before.Labels) {
					t.Errorf("%s: the failed solve changed the Result's fields", what)
				}
				s.Close()
			}
		}
	}
	// ConnectedComponents is one cold solve and gives the same errors.
	for name, brk := range broken {
		g := base.Clone()
		brk(g)
		for _, algo := range validateAlgos {
			_, err := ConnectedComponents(g, &Options{Algorithm: algo})
			wantValidateError(t, fmt.Sprintf("ConnectedComponents %s %s", algo, name), g, err)
		}
	}
}

// TestPlanFollowsVertexCount is the regression test of a cached plan
// that outlived a change of g.N: the CSR is sized for the vertex count
// it was built with, so a warm sample or frontier solve after growing N
// indexed past its offsets.  After a warm sample, frontier or auto solve
// (with and without TrustGraph) on a path and on a dense graph auto
// sends to sample, growing N must give union-find's labels on the grown
// graph, and shrinking N so that edges fall out of range must give the
// range error.
func TestPlanFollowsVertexCount(t *testing.T) {
	graphs := map[string]*Graph{
		"path":  gen.Path(10000),
		"dense": gen.GNM(2048, 2048*20, 5),
	}
	for gname, base := range graphs {
		for _, se := range validateSessions {
			for _, algo := range []Algorithm{Sample, Frontier, Auto} {
				for _, trust := range []bool{false, true} {
					what := fmt.Sprintf("%s %s/%s trust=%v", gname, se.name, algo, trust)
					g := base.Clone()
					s, err := NewSolver(&Options{Algorithm: algo, Backend: se.backend, Procs: se.procs, TrustGraph: trust})
					if err != nil {
						t.Fatal(err)
					}
					res := &Result{}
					for i := 0; i < 2; i++ {
						if err := s.SolveInto(g, res); err != nil {
							t.Fatalf("%s: warm solve: %v", what, err)
						}
					}
					g.N = 2 * base.N
					want, err := ConnectedComponents(g, &Options{Algorithm: UnionFind})
					if err != nil {
						t.Fatal(err)
					}
					if err := solveRecover(s, g, res); err != nil {
						t.Errorf("%s: grown to n=%d: %v", what, g.N, err)
					} else if !slices.Equal(res.Labels, want.Labels) || res.NumComponents != want.NumComponents {
						t.Errorf("%s: grown to n=%d: labels differ from union-find's (%d vs %d components)",
							what, g.N, res.NumComponents, want.NumComponents)
					}
					g.N = base.N / 2
					wantValidateError(t, what+" shrunk", g, solveRecover(s, g, res))
					s.Close()
				}
			}
		}
	}
}

// solveRecover is s.SolveInto(g, res) with a panic on the calling
// goroutine returned as an error.
func solveRecover(s *Solver, g *Graph, res *Result) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return s.SolveInto(g, res)
}

// TestSpectralCallsPanicWithValidateMessage checks that the spectral
// calls, whose signatures carry no error, reject an invalid graph with
// Validate's message before building a plan from it: an out-of-range edge
// and a negative vertex count, through the four package-level calls and
// Solver.SpectralGap.
func TestSpectralCallsPanicWithValidateMessage(t *testing.T) {
	s, err := NewSolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	calls := map[string]func(*Graph){
		"SpectralGap":           func(g *Graph) { SpectralGap(g) },
		"ComponentSpectralGaps": func(g *Graph) { ComponentSpectralGaps(g) },
		"Diameter":              func(g *Graph) { Diameter(g) },
		"DiameterApprox":        func(g *Graph) { DiameterApprox(g) },
		"Solver.SpectralGap":    func(g *Graph) { s.SpectralGap(g) },
	}
	for name, call := range calls {
		for _, g := range []*Graph{{N: 4, Edges: []graph.Edge{{U: 0, V: 9}}}, {N: -1}} {
			want := "parcc: " + g.Validate().Error()
			func() {
				defer func() {
					if r := recover(); r == nil || fmt.Sprint(r) != want {
						t.Errorf("%s(N=%d): panic %v, want %q", name, g.N, r, want)
					}
				}()
				call(g)
			}()
		}
	}
}
