// Command spectral estimates the quantities the paper's bounds depend on:
// the per-component spectral gap λ (Definition 2.2), the diameter d, and —
// for small graphs — the exact conductance φ (Definition 2.3).
//
// Usage:
//
//	spectral -gen hypercube:d=10
//	spectral -graph g.txt -conductance
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
		cond      = flag.Bool("conductance", false, "exact conductance (n ≤ 20 only)")
		exact     = flag.Bool("exact-diameter", false, "exact diameter (O(nm))")
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
	if *exact {
		fmt.Printf("diameter:  %d (exact)\n", spectral.DiameterExact(pl))
	} else {
		fmt.Printf("diameter:  ≥ %d (double sweep)\n", spectral.DiameterApprox(pl, 3))
	}
	if *cond {
		if g.N > 20 {
			fmt.Fprintln(os.Stderr, "spectral: -conductance enumerates subsets; n must be ≤ 20")
			os.Exit(1)
		}
		phi := spectral.Conductance(g)
		fmt.Printf("phi:       %.6g  (Cheeger: φ²/2=%.4g ≤ λ ≤ 2φ=%.4g)\n",
			phi, phi*phi/2, 2*phi)
	}
}
