// Command spectral estimates the quantities the paper's bounds depend on:
// the per-component spectral gap λ (Definition 2.2) and a lower bound on
// the diameter d.
//
// Usage:
//
//	spectral -gen hypercube:d=10
//	spectral -graph g.txt -per-component
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"parcc/internal/cli"
	"parcc/internal/graph"
	"parcc/internal/spectral"
)

func main() {
	var (
		graphFile = flag.String("graph", "", "edge-list file (- for stdin)")
		genSpec   = flag.String("gen", "", "generator spec (families: "+cli.Families()+")")
		perComp   = flag.Bool("per-component", false, "print λ per component")
	)
	flag.Parse()
	g, err := cli.LoadGraph(*graphFile, *genSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spectral:", err)
		os.Exit(1)
	}
	fmt.Printf("graph:     n=%d m=%d\n", g.N, g.M())
	pl := graph.NewPlan(g)
	lam := spectral.Gap(pl, nil)
	fmt.Printf("lambda:    %.6g (min over components)\n", lam)
	if lam > 0 {
		fmt.Printf("log2(1/λ): %.2f\n", math.Log2(1/lam))
	}
	if *perComp {
		for i, l := range spectral.ComponentGaps(pl, nil) {
			fmt.Printf("component %d: λ = %.6g\n", i, l)
		}
	}
	fmt.Printf("diameter:  ≥ %d (double sweep)\n", spectral.DiameterApprox(pl, 3))
}
