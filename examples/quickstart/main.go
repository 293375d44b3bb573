// Quickstart: label the connected components of a graph with the paper's
// algorithm and inspect the PRAM cost.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"parcc"
)

// input is the example's graph: two communities (random 8-regular
// expanders, λ = Θ(1)) plus a long path (λ = Θ(1/n²)) and a few isolated
// vertices.
func input() *parcc.Graph {
	return parcc.UnionGraphs(
		parcc.RandomRegular(2000, 8, 1),
		parcc.RandomRegular(1500, 8, 2),
		parcc.Path(800),
		parcc.NewGraph(5),
	)
}

func main() {
	g := input()
	fmt.Printf("input: n=%d m=%d  λ=%.4g\n", g.N, g.M(), parcc.SpectralGap(g))

	// The default algorithm is FLS — the paper's CONNECTIVITY (Theorem 1):
	// O(log(1/λ) + log log n) simulated PRAM time, O(m+n) work.  The
	// sequential backend makes the charged rounds exactly reproducible.
	opt := &parcc.Options{Seed: 42, Backend: parcc.BackendSequential}
	res, err := parcc.ConnectedComponents(g, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("components: %d\n", res.NumComponents)
	fmt.Printf("pram time:  %d rounds\n", res.Steps)
	fmt.Printf("pram work:  %.1f ops per edge+vertex\n",
		float64(res.Work)/float64(g.M()+g.N))

	// Constant-time connectivity queries on the labeling (§2.1).
	fmt.Printf("0 ~ 1999?   %v (same expander)\n", res.SameComponent(0, 1999))
	fmt.Printf("0 ~ 2000?   %v (different components)\n", res.SameComponent(0, 2000))

	// Compare with the fixed-degree-target pipeline (Theorem 3) on the
	// same input.
	kg, err := parcc.ConnectedComponents(g, &parcc.Options{
		Algorithm: parcc.FLSKnownGap, Seed: 42, Backend: parcc.BackendSequential,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("known-gap:  %d rounds, %.1f ops per edge+vertex\n",
		kg.Steps, float64(kg.Work)/float64(g.M()+g.N))

	// Every result can be verified against sequential BFS.
	fmt.Printf("verified:   %v\n", parcc.Verify(g, res.Labels))

	// Serving repeated queries: a Solver session keeps the goroutine pool,
	// PRAM machine, scratch arena, and cached CSR plan alive across
	// solves, so repeat queries skip the per-call setup entirely.
	// SolveInto additionally recycles the Result (labels buffer included),
	// which makes the steady state of this loop near-allocation-free.
	solver, err := parcc.NewSolver(opt)
	if err != nil {
		log.Fatal(err)
	}
	defer solver.Close()
	session := &parcc.Result{}
	for i := 0; i < 3; i++ {
		if err := solver.SolveInto(g, session); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("session:    %d components after 3 reused solves (steps=%d, same as one-shot: %v)\n",
		session.NumComponents, session.Steps, session.Steps == res.Steps)
}
