// Command ccload runs the replication chaos scenario (BENCH_repl.json)
// against real ccserved processes — a WAL-backed primary and N -follow
// followers over loopback HTTP — with an oracle-tracked sequential
// writer, kill -9 of the primary mid-write plus restart from its log,
// every follower read verified against the oracle partition at the
// version the follower reported, and a replica-scaling measurement of
// aggregate follower read QPS at 1..N followers.
//
//	ccload -ccserved /tmp/ccserved -out BENCH_repl.json
//
// The graph is a disjoint union of -block-vertex blocks and writes stay
// block-local — the serving-realistic locality (tenants, clusters,
// percolation cells) under which a deletion's dirty region stays one
// block.  Solve, serve and durable-write throughput are measured by the
// ccperf benchmark (ccperf/README.md).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"parcc"
)

func main() {
	var (
		deg     = flag.Int("deg", 2, "initial edges per vertex (m0 = deg*n)")
		block   = flag.Int("block", 1024, "block size: the graph is a disjoint union of blocks and writes stay block-local")
		dur     = flag.Duration("dur", 2*time.Second, "measured duration of each read-qps row")
		batch   = flag.Int("batch", 8, "edges per write batch")
		backend = flag.String("backend", string(parcc.BackendConcurrent), "solver backend of the ccserved processes: sequential | concurrent")
		seed    = flag.Uint64("seed", 1, "random seed")
		out     = flag.String("out", "", "write the JSON table here (default stdout)")

		replFollowers = flag.Int("repl-followers", 2, "follower processes")
		replKills     = flag.Int("repl-kills", 3, "primary kill -9 cycles")
		replBatches   = flag.Int("repl-batches", 120, "acknowledged write batches in the stream")
		replN         = flag.Int("repl-n", 8192, "vertices in the chaos graph")
		ccservedPath  = flag.String("ccserved", "", "ccserved binary (default: $PATH, else go build ./cmd/ccserved)")
	)
	flag.Parse()
	runReplScenario(strings.ToLower(*backend), *replN, *deg, *block, *batch, *replBatches,
		*replFollowers, *replKills, *dur, *seed, *ccservedPath, *out)
}

// blockUnion builds the workload graph: n vertices as a disjoint union of
// `block`-sized cells, each wired like a supercritical GNM internally
// (deg edges per vertex, endpoints inside the cell).
func blockUnion(n, deg, block int, seed uint64) *parcc.Graph {
	g := parcc.NewGraph(n)
	rng := rand.New(rand.NewSource(int64(seed)*2654435761 + 1))
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		w := hi - lo
		for k := 0; k < deg*w; k++ {
			g.AddEdge(lo+rng.Intn(w), lo+rng.Intn(w))
		}
	}
	return g
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ccload:", err)
	os.Exit(1)
}
