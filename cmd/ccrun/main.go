// Command ccrun runs a connectivity algorithm on a graph and reports the
// result together with the charged PRAM time and work.
//
// Usage:
//
//	ccrun -gen expander:n=65536,d=8 -algo fls
//	ccrun -graph edges.txt -algo fls-known-gap -backend sequential
//	graphgen -gen cycle:n=100000 | ccrun -graph - -algo auto
//
// Algorithms: fls (the paper), fls-known-gap, union-find, cas, sample,
// frontier, auto.  The classical baselines (LTZ, Shiloach–Vishkin, ...)
// run through ccbench's experiment tables, not through ccrun.
//
// Backends: sequential (deterministic single-threaded simulation) and
// concurrent (the default: the internal/par goroutine pool).  The T1/TP
// self-speedup of the concurrent backend is ccbench's SP table.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"parcc"
	"parcc/internal/cli"
)

func main() {
	var (
		graphFile = flag.String("graph", "", "edge-list file (- for stdin)")
		genSpec   = flag.String("gen", "", "generator spec, e.g. expander:n=4096,d=8 (families: "+cli.Families()+")")
		algo      = flag.String("algo", "fls", "algorithm: fls fls-known-gap union-find cas sample frontier auto")
		backend   = flag.String("backend", string(parcc.BackendConcurrent), "execution backend: sequential | concurrent")
		procs     = flag.Int("procs", 0, "parallelism of the concurrent backend (0 = NumCPU)")
		seed      = flag.Uint64("seed", 1, "random seed")
		b         = flag.Int("b", 16, "degree target for fls-known-gap")
		verify    = flag.Bool("verify", false, "check the result against BFS")
		list      = flag.Bool("components", false, "print every component")
		trace     = flag.Bool("trace", false, "record and print the solve-phase trace (wall time per phase, kernel counters)")
	)
	flag.Parse()

	g, err := cli.LoadGraph(*graphFile, *genSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccrun:", err)
		os.Exit(1)
	}

	opt := parcc.Options{
		Algorithm: parcc.Algorithm(*algo),
		Backend:   parcc.Backend(*backend),
		Procs:     *procs,
		Seed:      *seed,
		KnownGapB: *b,
		Trace:     *trace,
	}
	start := time.Now()
	res, err := parcc.ConnectedComponents(g, &opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccrun:", err)
		os.Exit(1)
	}
	wall := time.Since(start)

	fmt.Printf("graph:       n=%d m=%d\n", g.N, g.M())
	fmt.Printf("algorithm:   %s\n", res.Algorithm)
	fmt.Printf("backend:     %s (procs=%d)\n", res.Backend, res.Procs)
	fmt.Printf("components:  %d\n", res.NumComponents)
	fmt.Printf("pram time:   %d rounds\n", res.Steps)
	fmt.Printf("pram work:   %d ops (%.2f per edge+vertex)\n", res.Work,
		float64(res.Work)/float64(g.M()+g.N))
	fmt.Printf("wall clock:  %v\n", wall)
	if res.Phases > 0 {
		fmt.Printf("phases:      %d\n", res.Phases)
	}
	if *trace && res.Trace != nil {
		res.Trace.WriteText(os.Stdout)
	}

	if *verify {
		if parcc.Verify(g, res.Labels) {
			fmt.Println("verify:      OK (matches BFS)")
		} else {
			fmt.Println("verify:      FAILED")
			os.Exit(2)
		}
	}
	if *list {
		for i, comp := range res.Components() {
			fmt.Printf("component %d (%d vertices): %v\n", i, len(comp), comp)
		}
	}
}
