// Command graphgen emits a generated graph as an edge list on stdout (or to
// a file), in the "n m" + one-edge-per-line format the other tools read.
//
// Usage:
//
//	graphgen -gen expander:n=65536,d=8 > g.txt
//	graphgen -gen cliques:k=32,s=16,bridges=4 -out ring.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"parcc/internal/cli"
	"parcc/internal/graph"
)

func main() {
	var (
		genSpec = flag.String("gen", "", "generator spec (families: "+cli.Families()+")")
		out     = flag.String("out", "", "output file (default stdout)")
	)
	flag.Parse()
	if *genSpec == "" {
		fmt.Fprintln(os.Stderr, "graphgen: -gen SPEC is required; families:", cli.Families())
		os.Exit(1)
	}
	spec, err := cli.ParseSpec(*genSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
	g, err := spec.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "graphgen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := graph.WriteEdgeList(w, g); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}
