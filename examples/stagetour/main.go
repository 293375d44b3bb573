// Stagetour: a guided walk through the three stages of the algorithm on one
// graph, printing the quantity each paper lemma governs after each stage —
// vertex counts (Lemma 4.25), skeleton size (Lemma 5.5), minimum degree
// (Lemma 5.25), and the sampled-solve finish (§6).  Uses the internal
// packages directly, so it doubles as a map of the codebase.
//
//	go run ./examples/stagetour
package main

import (
	"fmt"

	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
	"parcc/internal/labeled"
	"parcc/internal/pram"
	"parcc/internal/solve"
	"parcc/internal/stage1"
	"parcc/internal/stage2"
	"parcc/internal/stage3"
)

// input is the toured graph: an expander, a ring of cliques and a cycle.
func input() *graph.Graph {
	return gen.Union(
		gen.RandomRegular(6000, 6, 1),
		gen.RingOfCliques(20, 12, 2, 3),
		gen.Cycle(800),
	)
}

func main() {
	g := input()
	truth := baseline.BFSLabels(g)
	fmt.Printf("input graph: n=%d m=%d components=%d\n\n",
		g.N, g.M(), graph.NumLabels(truth))

	m := pram.New(pram.Seed(42))
	cx := solve.New(m) // one-shot context: no arena, no recorder
	f := labeled.New(g.N)

	// ---- Stage 1 (§4): contract to n/poly(log n) vertices -------------
	fmt.Println("Stage 1 — REDUCE (§4): MATCHING/FILTER/EXTRACT contractions")
	r := stage1.NewRunner(cx, f, stage1.DefaultParams(g.N))
	red := r.Reduce(g)
	live := map[int32]struct{}{}
	for _, e := range red.Edges {
		if e.U != e.V {
			live[e.U] = struct{}{}
			live[e.V] = struct{}{}
		}
	}
	fmt.Printf("  roots remaining:      %d of %d (%.1f%%)\n",
		len(red.Roots), g.N, 100*float64(len(red.Roots))/float64(g.N))
	fmt.Printf("  live (active) roots:  %d   [Lemma 4.25: n/poly(log n)]\n", len(live))
	fmt.Printf("  edges remaining:      %d of %d\n", len(red.Edges), g.M())
	fmt.Printf("  charged so far:       %d steps, %.1f work/(m+n)\n\n",
		m.Steps(), float64(m.Work())/float64(g.M()+g.N))

	// ---- Stage 2 (§5): skeleton + densify + degree boost ---------------
	fmt.Println("Stage 2 — INCREASE (§5): skeleton BUILD, DENSIFY, degree boost")
	b := 8
	p2 := stage2.DefaultParams(g.N, b)
	H := stage2.Build(cx, red.Roots, red.Edges, p2)
	fmt.Printf("  skeleton edges:       %d (%.3f of m+n)   [Lemma 5.5]\n",
		len(H), float64(len(H))/float64(g.M()+g.N))
	E := append([]graph.Edge(nil), red.Edges...)
	stage2.Increase(cx, f, red.Roots, E, p2)
	deg := map[int32]int{}
	for _, e := range E {
		if e.U != e.V {
			deg[e.U]++
			deg[e.V]++
		}
	}
	minDeg := -1
	active := 0
	for v, d := range deg {
		if f.P[v] == v {
			active++
			if minDeg < 0 || d < minDeg {
				minDeg = d
			}
		}
	}
	if active == 0 {
		fmt.Printf("  active roots:         0 — Stage 2 contracted every component outright\n")
	} else {
		fmt.Printf("  active roots:         %d, min degree %d (target b=%d)   [Lemma 5.25]\n",
			active, minDeg, b)
	}
	fmt.Printf("  charged so far:       %d steps\n\n", m.Steps())

	// ---- Stage 3 (§6): sample and solve --------------------------------
	fmt.Println("Stage 3 — SAMPLESOLVE (§6): edge sampling + Theorem-2 finish")
	var roots []int32
	for v := int32(0); int(v) < g.N; v++ {
		if f.P[v] == v {
			roots = append(roots, v)
		}
	}
	E = labeled.Alter(m, f, E)
	sampled := stage3.SampleSolve(cx, f, roots, E, stage3.DefaultParams(g.N))
	fmt.Printf("  sampled edges solved: %d\n", sampled)
	labeled.FlattenAll(m, f)

	got := f.Labels()
	fmt.Printf("  components found:     %d (truth: %d)\n",
		graph.NumLabels(got), graph.NumLabels(truth))
	fmt.Printf("  exact partition:      %v\n", graph.SamePartition(truth, got))
	fmt.Printf("  total charged:        %d steps, %.1f work/(m+n)\n",
		m.Steps(), float64(m.Work())/float64(g.M()+g.N))
	fmt.Println("\n(any components the sampling misses are finished by the REMAIN/")
	fmt.Println(" backstop cleanup in the full CONNECTIVITY driver — see internal/core)")
}
