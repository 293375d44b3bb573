// Command ccbench regenerates the experiment tables listed in the README.
// Every table and figure series is derived from a quantitative claim of the
// paper (docs/ARCHITECTURE.md §1 maps the paper's results to the code each
// experiment exercises).
//
// Usage:
//
//	ccbench                      # run everything at small scale, markdown
//	ccbench -list                # the experiment IDs and titles
//	ccbench -run E1,E2 -scale full
//	ccbench -run SP -scale full -backend concurrent -procs 8   # T1/TP self-speedup
//	ccbench -format csv -out results/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"parcc"
	"parcc/internal/bench"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiments and exit")
		run     = flag.String("run", "all", "comma-separated experiment IDs (E1..E17, SP) or 'all'")
		scale   = flag.String("scale", "small", "small | full")
		format  = flag.String("format", "md", "md | csv | json")
		outDir  = flag.String("out", "", "write one file per experiment into this directory")
		seed    = flag.Uint64("seed", 1, "random seed")
		backend = flag.String("backend", "sequential", "execution backend: sequential | concurrent")
		procs   = flag.Int("procs", 0, "parallelism of the concurrent backend (0 = NumCPU); also the top procs of SP")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	switch strings.ToLower(*backend) {
	case "sequential", "concurrent":
	default:
		fmt.Fprintf(os.Stderr, "ccbench: unknown backend %q (want sequential or concurrent)\n", *backend)
		os.Exit(1)
	}
	if *procs < 0 {
		fmt.Fprintln(os.Stderr, "ccbench:", &parcc.ProcsRangeError{Procs: *procs})
		os.Exit(1)
	}
	cfg := bench.Config{Seed: *seed, Backend: *backend, Procs: *procs}
	switch strings.ToLower(*scale) {
	case "small":
		cfg.Scale = bench.Small
	case "full":
		cfg.Scale = bench.Full
	default:
		fmt.Fprintln(os.Stderr, "ccbench: -scale must be small or full")
		os.Exit(1)
	}
	render := map[string]func(*bench.Table) string{
		"md": (*bench.Table).Markdown, "csv": (*bench.Table).CSV, "json": (*bench.Table).JSON,
	}[*format]
	if render == nil {
		fmt.Fprintln(os.Stderr, "ccbench: -format must be md, csv, or json")
		os.Exit(1)
	}

	var todo []bench.Experiment
	if strings.EqualFold(*run, "all") {
		todo = bench.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, ok := bench.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "ccbench: unknown experiment %q\n", id)
				os.Exit(1)
			}
			todo = append(todo, e)
		}
	}

	for _, e := range todo {
		t0 := time.Now()
		body := render(e.Run(cfg))
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "ccbench:", err)
				os.Exit(1)
			}
			path := filepath.Join(*outDir, fmt.Sprintf("%s.%s", strings.ToLower(e.ID), *format))
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "ccbench:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "%s: wrote %s (%v)\n", e.ID, path, time.Since(t0).Round(time.Millisecond))
			continue
		}
		fmt.Println(body)
		fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
}
