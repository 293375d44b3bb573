package parcc

import (
	"fmt"
	"testing"

	"parcc/internal/ltz"
	"parcc/internal/pram"
)

// randomMultigraph decodes a byte string into a multigraph, the shared
// decoder for the differential tests and the fuzz target.  Every byte pair
// is an edge; self-loops and parallel edges arise naturally.
func randomMultigraph(data []byte) *Graph {
	n := 2 + int(pram.SplitMix64(uint64(len(data)))%62)
	g := NewGraph(n)
	for i := 0; i+1 < len(data); i += 2 {
		g.AddEdge(int(data[i])%n, int(data[i+1])%n)
	}
	return g
}

// TestDifferentialAllAlgorithms cross-checks the paper's two charged
// pipelines against BFS on a large battery of random multigraphs — the
// ARBITRARY CRCW obligation, exercised broadly.  The classical baselines
// are cross-checked in internal/bench's
// TestBaselineEquivalenceAcrossFamilies.
func TestDifferentialAllAlgorithms(t *testing.T) {
	algos := []Algorithm{FLS, FLSKnownGap}
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		data := make([]byte, 8+trial*7)
		s := uint64(trial)*0x9e3779b97f4a7c15 + 1
		for i := range data {
			s = pram.SplitMix64(s)
			data[i] = byte(s)
		}
		g := randomMultigraph(data)
		for _, a := range algos {
			res, err := ConnectedComponents(g, &Options{Algorithm: a, Seed: uint64(trial + 1)})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, a, err)
			}
			if !Verify(g, res.Labels) {
				t.Fatalf("trial %d: %s wrong on n=%d m=%d", trial, a, g.N, g.M())
			}
		}
	}
}

func TestDifferentialSequentialOrders(t *testing.T) {
	algos := []Algorithm{FLS, FLSKnownGap}
	for trial := 0; trial < 8; trial++ {
		data := make([]byte, 16+trial*11)
		s := uint64(trial) + 77
		for i := range data {
			s = pram.SplitMix64(s)
			data[i] = byte(s)
		}
		g := randomMultigraph(data)
		for _, a := range algos {
			for _, b := range []Backend{BackendConcurrent, BackendSequential} {
				res, err := ConnectedComponents(g, &Options{
					Algorithm: a, Seed: uint64(trial + 1), Backend: b,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !Verify(g, res.Labels) {
					t.Fatalf("trial %d %s %s: wrong partition", trial, a, b)
				}
			}
		}
	}
}

// TestDifferentialDegenerateShapes hits shapes that historically break
// contraction algorithms: all-loops, one giant star, heavy parallelism,
// a single edge, and alternating isolated blocks.
func TestDifferentialDegenerateShapes(t *testing.T) {
	shapes := map[string]*Graph{}

	loops := NewGraph(10)
	for v := 0; v < 10; v++ {
		loops.AddEdge(v, v)
	}
	shapes["all-loops"] = loops

	heavy := NewGraph(2)
	for i := 0; i < 500; i++ {
		heavy.AddEdge(0, 1)
	}
	shapes["heavy-parallel"] = heavy

	single := NewGraph(100)
	single.AddEdge(42, 77)
	shapes["single-edge"] = single

	blocks := NewGraph(60)
	for b := 0; b < 6; b += 2 {
		for v := 0; v < 9; v++ {
			blocks.AddEdge(b*10+v, b*10+v+1)
		}
	}
	shapes["alternating-blocks"] = blocks

	star := NewGraph(512)
	for v := 1; v < 512; v++ {
		star.AddEdge(0, v)
		star.AddEdge(0, v) // doubled spokes
	}
	shapes["double-star"] = star

	for name, g := range shapes {
		for _, a := range []Algorithm{FLS, FLSKnownGap} {
			res, err := ConnectedComponents(g, &Options{Algorithm: a, Seed: 9})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, a, err)
			}
			if !Verify(g, res.Labels) {
				t.Fatalf("%s/%s: wrong partition", name, a)
			}
		}
	}
}

func TestBreakdownExposed(t *testing.T) {
	g := Cycle(256)
	res, err := ConnectedComponents(g, &Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Breakdown) == 0 {
		t.Fatal("FLS result should carry a stage breakdown")
	}
	var steps int64
	seen := map[string]bool{}
	for _, sc := range res.Breakdown {
		steps += sc.Steps
		seen[sc.Stage] = true
	}
	if !seen["stage1-reduce"] {
		t.Error("breakdown missing stage1-reduce")
	}
	if steps != res.Steps {
		t.Errorf("breakdown steps %d != total %d", steps, res.Steps)
	}
}

// FuzzConnectivity is the native fuzz target: any byte string decodes to a
// multigraph; FLS must match BFS on it.  Run with:
//
//	go test -fuzz=FuzzConnectivity -fuzztime=30s .
func FuzzConnectivity(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0})
	f.Add([]byte{5, 5, 5, 5})
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	for i := 0; i < 8; i++ {
		b := make([]byte, 3+i*9)
		s := uint64(i) * 31
		for j := range b {
			s = pram.SplitMix64(s)
			b[j] = byte(s)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := randomMultigraph(data)
		res, err := ConnectedComponents(g, &Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !Verify(g, res.Labels) {
			t.Fatalf("FLS disagrees with BFS on %s", fmt.Sprint(g.Edges))
		}
	})
}

// FuzzLTZ fuzzes the Theorem-2 baseline the same way.
func FuzzLTZ(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2})
	f.Add([]byte{9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := randomMultigraph(data)
		forest := ltz.Solve(pram.New(pram.Seed(1)), g, ltz.DefaultParams(g.N))
		if !Verify(g, forest.Labels()) {
			t.Fatal("LTZ disagrees with BFS")
		}
	})
}
