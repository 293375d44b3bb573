// Command ccload is the closed-loop load generator for the connectivity
// service: it drives the internal/service engine with mixed
// read/write workloads at several shard counts and records sustained QPS
// against the naive alternative — answering every point query with a full
// from-scratch solve.  The table it emits is the BENCH_qps.json artifact
// CI publishes next to BENCH_inc.json, so the serving-layer throughput
// trajectory is recorded across PRs.
//
//	ccload -n 65536 -shards 1,2,4 -workers 8 -dur 2s -out BENCH_qps.json
//
// Workload mixes (reads/writes): read-heavy 99/1, mixed 90/10,
// write-heavy 50/50.  Reads are point queries off the published snapshot
// (Connected / ComponentOf+Size / ComponentCount); writes alternate
// AddEdges and RemoveEdges batches, so the write path exercises both the
// O(batch·α) insert fast path and the coalesced O(m)-sweep delete path.
// Every worker runs closed-loop (next op only after the previous
// completed), which is what makes the QPS numbers back-pressure-honest.
//
// Each shard's graph is a disjoint union of blocks (-block) with writes
// kept block-local — the serving-realistic locality (tenants, clusters,
// percolation cells) under which a deletion's dirty region stays one
// block and the scoped re-solve does bounded work.  One giant component
// instead degrades every delete to a full re-solve; that regime is
// already measured honestly by `ccbench -run INC` (delete-heavy row).
//
// -run wal switches to the durability scenario (BENCH_wal.json): an
// oracle-tracked write stream against a WAL-enabled engine, a simulated
// kill (the recovery input is the on-disk log image as of the last
// acknowledged write), recovery + replay-throughput measurement with
// correctness verified against the oracle — at the full log and at
// several byte-truncation crash points — plus a publish-cost sweep
// showing snapshot publishing is O(delta), not O(n): full-build vs
// k-vertex delta publish latencies across n and k.
//
// -run repl switches to the replication chaos scenario
// (BENCH_repl.json): real ccserved processes — a WAL-backed primary and
// N -follow followers over loopback HTTP — with an oracle-tracked
// sequential writer, kill -9 of the primary mid-write plus restart from
// its log, every follower read verified against the oracle partition at
// the version the follower reported, and a replica-scaling measurement
// of aggregate follower read QPS at 1..N followers.
package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parcc"
	"parcc/internal/baseline"
	"parcc/internal/bench"
	"parcc/internal/graph"
	"parcc/internal/service"
)

type mix struct {
	name    string
	readPct int
}

var mixes = []mix{
	{"read-heavy 99/1", 99},
	{"mixed 90/10", 90},
	{"write-heavy 50/50", 50},
}

func main() {
	var (
		n           = flag.Int("n", 1<<16, "vertices per shard graph")
		deg         = flag.Int("deg", 2, "initial edges per vertex (m0 = deg*n)")
		block       = flag.Int("block", 1024, "block size: shard graphs are disjoint unions of blocks and writes stay block-local")
		shardsFlag  = flag.String("shards", "1,2,4", "comma-separated shard counts to sweep")
		workers     = flag.Int("workers", 8, "closed-loop client goroutines")
		dur         = flag.Duration("dur", 2*time.Second, "measured duration per workload row")
		batch       = flag.Int("batch", 8, "edges per write batch")
		window      = flag.Duration("window", 0, "engine batch-coalesce window")
		backend     = flag.String("backend", string(parcc.BackendConcurrent), "solver backend: sequential | concurrent")
		procs       = flag.Int("procs", 0, "parallelism of the concurrent backend")
		seed        = flag.Uint64("seed", 1, "random seed")
		baselineDur = flag.Duration("baseline-dur", 2*time.Second, "duration of the naive full-solve baseline run (0 disables)")
		out         = flag.String("out", "", "write the JSON table here (default stdout)")
		run         = flag.String("run", "qps", "scenario: qps (throughput sweep) | wal (durability: crash recovery + publish-cost sweep) | repl (replication chaos: follower processes + primary kill -9)")
		walBatches  = flag.Int("wal-batches", 400, "acknowledged write batches in the -run wal stream")

		replFollowers = flag.Int("repl-followers", 2, "follower processes in the -run repl topology")
		replKills     = flag.Int("repl-kills", 3, "primary kill -9 cycles in -run repl")
		replBatches   = flag.Int("repl-batches", 120, "acknowledged write batches in the -run repl stream")
		replN         = flag.Int("repl-n", 8192, "vertices in the -run repl chaos graph")
		ccservedPath  = flag.String("ccserved", "", "ccserved binary for -run repl (default: $PATH, else go build ./cmd/ccserved)")
	)
	flag.Parse()

	switch *run {
	case "qps":
	case "wal":
		runWALScenario(&parcc.Options{
			Backend:    parcc.Backend(strings.ToLower(*backend)),
			Procs:      *procs,
			Seed:       *seed,
			TrustGraph: true,
		}, *n, *deg, *block, *batch, *walBatches, *seed, *out)
		return
	case "repl":
		runReplScenario(strings.ToLower(*backend), *replN, *deg, *block, *batch, *replBatches,
			*replFollowers, *replKills, *dur, *seed, *ccservedPath, *out)
		return
	default:
		fmt.Fprintf(os.Stderr, "ccload: unknown -run %q (want qps, wal, or repl)\n", *run)
		os.Exit(1)
	}

	var shardCounts []int
	for _, s := range strings.Split(*shardsFlag, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || k < 1 {
			fmt.Fprintf(os.Stderr, "ccload: bad -shards entry %q\n", s)
			os.Exit(1)
		}
		shardCounts = append(shardCounts, k)
	}

	opts := &parcc.Options{
		Backend:    parcc.Backend(strings.ToLower(*backend)),
		Procs:      *procs,
		Seed:       *seed,
		TrustGraph: true, // the engine owns the live graphs
	}

	t := &bench.Table{
		ID:    "SVC",
		Title: "service QPS: sharded snapshot reads + coalesced writes vs naive per-query full solves",
		Claim: "point queries served lock-free from published label snapshots sustain orders of " +
			"magnitude more QPS than answering each query with a full from-scratch solve, and " +
			"read throughput scales with shard count while coalescing amortizes write batches",
		Columns: []string{"workload", "shards", "n/shard", "m0/shard", "workers",
			"ops", "qps", "applies", "coalesce%", "publish µs", "naive qps", "speedup"},
	}

	// Naive baseline: every point query pays a full solve of the same
	// graph.  Generously warm — a persistent Solver session with a cached
	// CSR plan and the cheapest full algorithm (union-find) — so the
	// recorded speedup is against the strongest "no snapshot" opponent.
	naiveQPS := 0.0
	if *baselineDur > 0 {
		naiveQPS = naiveBaseline(*n, *deg, *block, *workers, *seed, *baselineDur)
		fmt.Fprintf(os.Stderr, "naive full-solve baseline: %.0f qps (n=%d, m=%d, %d workers, union-find)\n",
			naiveQPS, *n, *deg**n, *workers)
	}

	readHeavySpeedup := 0.0
	for _, m := range mixes {
		for _, shards := range shardCounts {
			ops, wall, sm := runWorkload(opts, m, *n, *deg, *block, shards, *workers, *batch, *window, *seed, *dur)
			qps := float64(ops) / wall.Seconds()
			naiveCell, speedupCell := "-", "-"
			if naiveQPS > 0 {
				naiveCell = fmt.Sprintf("%.4g", naiveQPS)
				speedupCell = fmt.Sprintf("%.4gx", qps/naiveQPS)
				if m.readPct == 99 && qps/naiveQPS > readHeavySpeedup {
					readHeavySpeedup = qps / naiveQPS
				}
			}
			t.Add(m.name, shards, *n, *deg**n, *workers, ops, qps,
				sm.appliesCell(), sm.coalesceCell(), sm.publishCell(), naiveCell, speedupCell)
			fmt.Fprintf(os.Stderr, "%-18s shards=%d: %d ops in %v (%.0f qps)\n",
				m.name, shards, ops, wall.Round(time.Millisecond), qps)
		}
	}

	t.Note("closed loop: %d workers issue the next op only after the previous completed; "+
		"reads are snapshot point queries, writes alternate AddEdges/RemoveEdges batches of %d "+
		"edges routed through the shard writer (coalesce window %v).  backend=%q procs=%d.",
		*workers, *batch, *window, string(opts.Backend), *procs)
	t.Note("each shard graph is a disjoint union of %d-vertex blocks and writes are "+
		"block-local, so a deletion's dirty region is one block and its scoped re-solve does "+
		"bounded work; the one-giant-component delete regime is measured by ccbench -run INC.",
		*block)
	t.Note("the naive baseline answers every query with a full solve of the same graph on a " +
		"warm persistent session (cached CSR plan, union-find — the cheapest full algorithm), " +
		"i.e. it is the strongest opponent that lacks snapshots and incrementality.")
	t.Note("applies / coalesce%% / publish µs are GET /metrics deltas scraped over loopback " +
		"HTTP around each measured window (parcc_engine_applies_total, coalesced/writes, mean " +
		"parcc_snapshot_publish_seconds) — the same surface ccserved exports to Prometheus.")
	if naiveQPS > 0 {
		verdict := "PASS"
		if readHeavySpeedup < 10 {
			verdict = "FAIL"
		}
		t.Note("acceptance bar (read-heavy >= 10x naive at this n): best read-heavy speedup "+
			"%.4gx — %s.", readHeavySpeedup, verdict)
	}

	body := t.JSON()
	if *out != "" {
		if err := os.WriteFile(*out, []byte(body), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ccload:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
		return
	}
	fmt.Print(body)
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

// svcMetrics is the /metrics delta of one measured window: the engine's
// own Prometheus counters scraped over HTTP before and after the run.
type svcMetrics struct {
	ok                bool // both scrapes succeeded
	writes, applies   float64
	coalesced         float64
	pubCount, pubSecs float64
}

func (s svcMetrics) appliesCell() string {
	if !s.ok {
		return "-"
	}
	return fmt.Sprintf("%.0f", s.applies)
}

func (s svcMetrics) coalesceCell() string {
	if !s.ok || s.writes == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*s.coalesced/s.writes)
}

func (s svcMetrics) publishCell() string {
	if !s.ok || s.pubCount == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 1e6*s.pubSecs/s.pubCount)
}

// scrapeMetrics GETs a Prometheus text page and returns the unlabeled
// samples by name (labeled per-shard series are skipped — the engine
// totals are what the deltas need).
func scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.Contains(fields[0], "{") {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		out[fields[0]] = v
	}
	return out, sc.Err()
}

// metricsDelta converts a before/after scrape pair into the window's
// counter deltas.
func metricsDelta(before, after map[string]float64) svcMetrics {
	if before == nil || after == nil {
		return svcMetrics{}
	}
	d := func(name string) float64 { return after[name] - before[name] }
	return svcMetrics{
		ok:        true,
		writes:    d("parcc_engine_writes_total"),
		applies:   d("parcc_engine_applies_total"),
		coalesced: d("parcc_engine_coalesced_total"),
		pubCount:  d("parcc_snapshot_publish_seconds_count"),
		pubSecs:   d("parcc_snapshot_publish_seconds_sum"),
	}
}

// runWorkload measures one (mix, shard count) cell: an engine with
// `shards` independent block-union sessions, `workers` closed-loop
// clients spreading ops across them, for roughly dur.  The engine's real
// HTTP handler is served on a loopback port and /metrics is scraped
// before and after the window, so the embedded deltas exercise the same
// scrape path Prometheus would.
func runWorkload(opts *parcc.Options, m mix, n, deg, block, shards, workers, batchSize int, window time.Duration, seed uint64, dur time.Duration) (int64, time.Duration, svcMetrics) {
	eng := service.New(service.Options{Solver: opts, CoalesceWindow: window})
	defer eng.Close()
	names := make([]string, shards)
	for i := range names {
		names[i] = fmt.Sprintf("shard%d", i)
		if err := eng.Create(names[i], blockUnion(n, deg, block, seed+uint64(i))); err != nil {
			fmt.Fprintln(os.Stderr, "ccload:", err)
			os.Exit(1)
		}
	}

	// Serve the real API on loopback for the metric scrapes.  Scrape
	// failures degrade the metric cells to "-" rather than failing the run.
	var metricsURL string
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		srv := &http.Server{Handler: service.NewHandler(eng)}
		go srv.Serve(ln)
		defer srv.Close()
		metricsURL = fmt.Sprintf("http://%s/metrics", ln.Addr())
	} else {
		fmt.Fprintln(os.Stderr, "ccload: metrics listener:", err)
	}
	scrape := func() map[string]float64 {
		if metricsURL == "" {
			return nil
		}
		mm, err := scrapeMetrics(metricsURL)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccload: metrics scrape:", err)
			return nil
		}
		return mm
	}
	before := scrape()

	var stop atomic.Bool
	var total atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed) + int64(w)*7919))
			// Batches this worker added and may later remove; per-worker
			// queues keep the remove multiset semantics conflict-free.
			type addedBatch struct {
				name  string
				batch []parcc.Edge
			}
			var added []addedBatch
			ops := int64(0)
			for !stop.Load() {
				name := names[rng.Intn(len(names))]
				if rng.Intn(100) < m.readPct {
					switch rng.Intn(4) {
					case 0:
						if _, err := eng.ComponentOf(name, rng.Intn(n)); err != nil {
							fail(err)
						}
					case 1:
						if _, err := eng.ComponentSize(name, rng.Intn(n)); err != nil {
							fail(err)
						}
					case 2:
						if _, err := eng.ComponentCount(name); err != nil {
							fail(err)
						}
					default:
						if _, err := eng.Connected(name, rng.Intn(n), rng.Intn(n)); err != nil {
							fail(err)
						}
					}
				} else if len(added) > 0 && rng.Intn(2) == 0 {
					i := rng.Intn(len(added))
					ab := added[i]
					added[i] = added[len(added)-1]
					added = added[:len(added)-1]
					if err := eng.RemoveEdges(ab.name, ab.batch); err != nil {
						fail(err)
					}
				} else {
					// Block-local insert: endpoints inside one random cell.
					lo := (rng.Intn(n) / block) * block
					w := block
					if lo+w > n {
						w = n - lo
					}
					b := make([]parcc.Edge, batchSize)
					for j := range b {
						b[j] = parcc.Edge{U: int32(lo + rng.Intn(w)), V: int32(lo + rng.Intn(w))}
					}
					if err := eng.AddEdges(name, b); err != nil {
						fail(err)
					}
					added = append(added, addedBatch{name: name, batch: b})
				}
				ops++
			}
			total.Add(ops)
		}(w)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	wall := time.Since(start)
	return total.Load(), wall, metricsDelta(before, scrape())
}

// naiveBaseline measures the no-service alternative: the same point
// queries, each answered by a full solve of the same graph.
func naiveBaseline(n, deg, block, workers int, seed uint64, dur time.Duration) float64 {
	g := blockUnion(n, deg, block, seed)
	var stop atomic.Bool
	var total atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := parcc.NewSolver(&parcc.Options{
				Algorithm: parcc.UnionFind, Seed: seed, TrustGraph: true,
			})
			if err != nil {
				fail(err)
			}
			defer s.Close()
			rng := rand.New(rand.NewSource(int64(seed) + int64(w)*104729))
			res := &parcc.Result{}
			ops := int64(0)
			for !stop.Load() {
				if err := s.SolveInto(g, res); err != nil {
					fail(err)
				}
				u, v := rng.Intn(n), rng.Intn(n)
				_ = res.Labels[u] == res.Labels[v]
				ops++
			}
			total.Add(ops)
		}(w)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	return float64(total.Load()) / time.Since(start).Seconds()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ccload:", err)
	os.Exit(1)
}

// runWALScenario is the -run wal durability benchmark: write a tracked
// stream through a WAL-enabled engine, snapshot the log bytes as of the
// last acknowledged write (the crash image — fsync ordering guarantees
// this is exactly what a kill -9 would leave), then recover from the full
// image and from several byte-truncation crash points, verifying every
// recovered partition against the oracle at the replayed stream position.
// It finishes with the publish-cost sweep: full-build vs k-vertex delta
// snapshot publish latency across n and k.
func runWALScenario(opts *parcc.Options, n, deg, block, batchSize, batches int, seed uint64, out string) {
	t := &bench.Table{
		ID:    "WAL",
		Title: "durable shards: write-ahead logging, crash recovery, and O(delta) snapshot publishing",
		Claim: "every acknowledged write survives a kill at any byte position — recovery replays the " +
			"clean log prefix to exactly the oracle's partition at that stream position — and " +
			"republishing after a k-vertex write group costs O(k/pageSize) page clones, not O(n)",
		Columns: []string{"scenario", "n", "batches|k", "records", "edges", "wal KiB", "elapsed", "rate", "verdict"},
	}
	pass := true
	verdict := func(ok bool) string {
		if ok {
			return "PASS"
		}
		pass = false
		return "FAIL"
	}

	// Phase 1: the logged write stream, one acknowledged batch at a time so
	// log records map 1:1 to oracle positions.
	dirA, err := os.MkdirTemp("", "ccload-wal-a-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dirA)
	eng := service.New(service.Options{Solver: opts, WALDir: dirA})
	g0 := blockUnion(n, deg, block, seed)
	oracle := baseline.NewIncOracle(g0)
	if err := eng.Create("wal", g0.Clone()); err != nil {
		fail(err)
	}
	history := [][]int32{append([]int32(nil), oracle.Labels()...)}
	rng := rand.New(rand.NewSource(int64(seed)*6364136223846793005 + 3))
	edgesLogged := g0.M()
	t0 := time.Now()
	for b := 0; b < batches; b++ {
		live := oracle.Graph()
		if rng.Intn(10) < 6 || live.M() == 0 {
			// Block-local insert, same locality as the qps workload.
			lo := (rng.Intn(n) / block) * block
			w := block
			if lo+w > n {
				w = n - lo
			}
			batch := make([]parcc.Edge, batchSize)
			for i := range batch {
				batch[i] = parcc.Edge{U: int32(lo + rng.Intn(w)), V: int32(lo + rng.Intn(w))}
			}
			if err := eng.AddEdges("wal", batch); err != nil {
				fail(err)
			}
			if err := oracle.AddEdges(batch); err != nil {
				fail(err)
			}
			edgesLogged += len(batch)
		} else {
			k := 1 + rng.Intn(batchSize)
			if k > live.M() {
				k = live.M()
			}
			idx := rng.Perm(live.M())[:k]
			batch := make([]parcc.Edge, 0, k)
			for _, i := range idx {
				batch = append(batch, live.Edges[i])
			}
			if err := eng.RemoveEdges("wal", batch); err != nil {
				fail(err)
			}
			if err := oracle.RemoveEdges(batch); err != nil {
				fail(err)
			}
			edgesLogged += len(batch)
		}
		history = append(history, append([]int32(nil), oracle.Labels()...))
	}
	writeWall := time.Since(t0)

	// The crash image: the log bytes as of the last acknowledged write.
	// Every ack happened after its group's fsync, so reading the file now
	// (before any graceful shutdown) is byte-for-byte what a kill -9 at
	// this instant would leave on disk.
	entries, err := os.ReadDir(dirA)
	if err != nil || len(entries) != 1 {
		fail(fmt.Errorf("wal dir holds %d files (err %v), want 1", len(entries), err))
	}
	walFile := entries[0].Name()
	image, err := os.ReadFile(filepath.Join(dirA, walFile))
	if err != nil {
		fail(err)
	}
	eng.Close() // the abandoned engine; recovery only ever sees `image`
	t.Add("write+log", n, batches, batches+1, edgesLogged, len(image)/1024,
		fmt.Sprintf("%v", writeWall.Round(time.Millisecond)),
		fmt.Sprintf("%.4g edges/s", float64(edgesLogged)/writeWall.Seconds()), "-")
	fmt.Fprintf(os.Stderr, "logged %d batches (%d edges, %d KiB) in %v\n",
		batches, edgesLogged, len(image)/1024, writeWall.Round(time.Millisecond))

	// recoverImage starts a fresh engine over a (possibly truncated) copy
	// of the crash image and verifies the replayed partition against the
	// oracle at the position the log prefix encodes: create = version 1,
	// batch i = version i+1, so a recovered version v means position v-2.
	recoverImage := func(label string, data []byte) {
		dir, err := os.MkdirTemp("", "ccload-wal-r-")
		if err != nil {
			fail(err)
		}
		defer os.RemoveAll(dir)
		if err := os.WriteFile(filepath.Join(dir, walFile), data, 0o644); err != nil {
			fail(err)
		}
		e2 := service.New(service.Options{Solver: opts, WALDir: dir})
		defer e2.Close()
		stats, err := e2.Recover()
		if err != nil {
			fail(fmt.Errorf("%s: recover: %w", label, err))
		}
		sn, err := e2.Snapshot("wal")
		if errors.Is(err, service.ErrGraphNotFound) {
			// Cut inside the create record: nothing was durable yet, and
			// nothing may be served.
			ok := stats.Graphs == 0 && stats.Records == 0
			t.Add(label, n, -1, 0, 0, len(data)/1024,
				fmt.Sprintf("%v", stats.Elapsed.Round(time.Microsecond)), "-", verdict(ok))
			return
		}
		if err != nil {
			fail(fmt.Errorf("%s: %w", label, err))
		}
		pos := int(sn.Version()) - 2
		ok := pos >= 0 && pos < len(history) &&
			graph.SamePartition(history[pos], sn.Labels()) &&
			sn.NumComponents() == graph.NumLabels(history[pos])
		rate := "-"
		if stats.Elapsed > 0 {
			rate = fmt.Sprintf("%.4g edges/s", float64(stats.Edges)/stats.Elapsed.Seconds())
		}
		t.Add(label, n, pos, stats.Records, stats.Edges, len(data)/1024,
			fmt.Sprintf("%v", stats.Elapsed.Round(time.Microsecond)), rate, verdict(ok))
		fmt.Fprintf(os.Stderr, "%s: replayed %d records to position %d in %v — %s\n",
			label, stats.Records, pos, stats.Elapsed.Round(time.Millisecond), verdict(ok))
	}

	// Phase 2: recovery from the full image, then from byte-truncation
	// crash points spread across the batch tail of the log (the create
	// frame's length prefix tells us where the tail starts) and one cut
	// inside the create record itself.
	recoverImage("recover(full)", image)
	createEnd := 8 + int(binary.LittleEndian.Uint32(image[:4]))
	tail := len(image) - createEnd
	for _, q := range []int{1, 2, 3} {
		cut := createEnd + q*tail/4
		recoverImage(fmt.Sprintf("recover(cut@%d%%)", 25*q), image[:cut])
	}
	recoverImage("recover(torn-tail)", image[:len(image)-3])
	recoverImage("recover(mid-create)", image[:createEnd/2])

	// Phase 3: publish-cost sweep — full-build vs k-vertex delta publish
	// across n.  The delta cost tracks k (pages touched), not n: that is
	// the O(delta) claim, visible as a full/delta ratio that grows with n
	// at fixed k.
	for _, nn := range []int{1 << 14, 1 << 16, 1 << 18} {
		s, err := parcc.NewSolver(opts)
		if err != nil {
			fail(err)
		}
		if err := s.Attach(&parcc.Graph{N: nn}); err != nil {
			fail(err)
		}
		tf := time.Now()
		if _, err := s.PublishSnapshot(); err != nil {
			fail(err)
		}
		fullUS := float64(time.Since(tf).Microseconds())
		t.Add("publish(full)", nn, "-", "-", "-", "-", fmt.Sprintf("%.4g µs", fullUS), "-", "-")
		off := 0
		for _, k := range []int{64, 1024, 8192} {
			var samples []float64
			var cloned int
			for rep := 0; rep < 9; rep++ {
				if off+k+1 >= nn {
					off = 0
				}
				batch := make([]parcc.Edge, k)
				for i := range batch {
					batch[i] = parcc.Edge{U: int32(off + i), V: int32(off + i + 1)}
				}
				off += k + 1
				if err := s.AddEdges(batch); err != nil {
					fail(err)
				}
				td := time.Now()
				sn, err := s.PublishSnapshot()
				if err != nil {
					fail(err)
				}
				samples = append(samples, float64(time.Since(td).Microseconds()))
				cloned = sn.ClonedPages()
			}
			sort.Float64s(samples)
			deltaUS := samples[len(samples)/2]
			ratio := "-"
			if deltaUS > 0 {
				ratio = fmt.Sprintf("full/delta %.3gx", fullUS/deltaUS)
			}
			t.Add("publish(delta)", nn, k, "-", "-", "-",
				fmt.Sprintf("%.4g µs", deltaUS), ratio,
				fmt.Sprintf("%d pages cloned", cloned))
		}
		s.Close()
	}

	t.Note("crash image = log bytes read after the last acknowledged write and before any "+
		"graceful shutdown; acks follow the group fsync, so the image equals a kill -9 state.  "+
		"recovery rows replay a truncated copy and compare against the oracle partition at the "+
		"position the clean prefix encodes (recovered version v ⇒ position v-2); torn tails are "+
		"truncated and tolerated, mid-create cuts must recover to an empty engine.  backend=%q.",
		string(opts.Backend))
	t.Note("publish rows: first publish builds the full page mirror (O(n)); each later publish " +
		"clones only the label/size pages the write group touched (O(⌈k/1024⌉) — the 'pages " +
		"cloned' cell), so the full/delta latency ratio grows with n at fixed k.")
	t.Note("overall verdict: %s.", verdict(pass))

	body := t.JSON()
	if out != "" {
		if err := os.WriteFile(out, []byte(body), 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", out)
		return
	}
	fmt.Print(body)
}
