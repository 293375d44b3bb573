// The replication chaos scenario (BENCH_repl.json).  Real
// processes, not goroutines: a ccserved primary with a WAL and N ccserved
// followers tailing it over loopback HTTP.  A sequential oracle-tracked
// writer drives the primary while closed-loop readers hammer the
// followers; the primary is kill -9'd with a write in flight and
// restarted from its log, repeatedly; every follower read is verified
// against the oracle partition at the exact version the follower
// reported.  The scenario ends with the replica-scaling measurement:
// aggregate follower read QPS at fixed per-replica client concurrency,
// for 1..N followers.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"parcc"
	"parcc/internal/baseline"
	"parcc/internal/bench"
	"parcc/internal/graph"
)

// replProc is one managed ccserved process.
type replProc struct {
	cmd *exec.Cmd
	url string
	log *os.File
}

func startServed(bin, logPath string, args ...string) (*replProc, error) {
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, err
	}
	return &replProc{cmd: cmd, log: lf}, nil
}

// kill is the chaos action: SIGKILL, no drain, no checkpoint.
func (p *replProc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
	p.log.Close()
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port, nil
}

// ccservedBinary resolves the server binary: the flag, PATH, or a local
// `go build` of ./cmd/ccserved as a last resort.
func ccservedBinary(flagPath, tmp string) (string, error) {
	if flagPath != "" {
		return flagPath, nil
	}
	if p, err := exec.LookPath("ccserved"); err == nil {
		return p, nil
	}
	out := filepath.Join(tmp, "ccserved")
	build := exec.Command("go", "build", "-o", out, "./cmd/ccserved")
	if msg, err := build.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building ccserved: %v\n%s", err, msg)
	}
	return out, nil
}

var replClient = &http.Client{
	Timeout: 15 * time.Second,
	Transport: &http.Transport{
		MaxIdleConnsPerHost: 64,
	},
}

func replJSON(method, url string, body []byte) (int, map[string]any, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := replClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out := map[string]any{}
	if resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return resp.StatusCode, nil, err
		}
	}
	return resp.StatusCode, out, nil
}

// waitReadyz polls /readyz until it reports 200 — the gate both for a
// restarted primary (recovery done) and for followers (synced within
// max-lag).
func waitReadyz(url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, _, err := replJSON("GET", url+"/readyz", nil)
		if err == nil && st == http.StatusOK {
			return nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("%s/readyz not 200 within %v", url, timeout)
}

// edgePairs converts to the API's wire shape for edge lists.
func edgePairs(edges []parcc.Edge) [][2]int32 {
	out := make([][2]int32, len(edges))
	for i, e := range edges {
		out[i] = [2]int32{e.U, e.V}
	}
	return out
}

// versionHistory maps snapshot version -> oracle labels at that version.
// The writer appends; readers verify against it.
type versionHistory struct {
	mu sync.RWMutex
	m  map[uint64][]int32
}

func (h *versionHistory) set(v uint64, labels []int32) {
	h.mu.Lock()
	h.m[v] = append([]int32(nil), labels...)
	h.mu.Unlock()
}

func (h *versionHistory) get(v uint64) ([]int32, bool) {
	h.mu.RLock()
	l, ok := h.m[v]
	h.mu.RUnlock()
	return l, ok
}

// deferredRead is a follower read observed at a version the writer had
// not yet recorded (the follower can apply a group before the primary's
// ack reaches the writer) — verified after the run.
type deferredRead struct {
	version   uint64
	u, v      int
	connected bool
}

// readerStats aggregates the chaos readers' outcomes.
type readerStats struct {
	reads, errs, verifyFails atomic.Int64
	mu                       sync.Mutex
	deferred                 []deferredRead
}

// runChaosReaders keeps one closed-loop verifying reader per follower
// running until stop is closed.
func runChaosReaders(stop chan struct{}, wg *sync.WaitGroup, followers []string, n int, hist *versionHistory, stats *readerStats, seed int64) {
	for i, base := range followers {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(i)*7919))
			for {
				select {
				case <-stop:
					return
				default:
				}
				u, v := rng.Intn(n), rng.Intn(n)
				st, body, err := replJSON("GET", fmt.Sprintf("%s/graphs/chaos/connected?u=%d&v=%d", base, u, v), nil)
				if err != nil || st != http.StatusOK {
					stats.errs.Add(1)
					time.Sleep(5 * time.Millisecond)
					continue
				}
				stats.reads.Add(1)
				conn, _ := body["connected"].(bool)
				ver := uint64(body["version"].(float64))
				if labels, ok := hist.get(ver); ok {
					if (labels[u] == labels[v]) != conn {
						stats.verifyFails.Add(1)
					}
				} else {
					stats.mu.Lock()
					stats.deferred = append(stats.deferred, deferredRead{version: ver, u: u, v: v, connected: conn})
					stats.mu.Unlock()
				}
				time.Sleep(time.Millisecond)
			}
		}(i, base)
	}
}

// measureReadQPS runs `workersPer` closed-loop readers against each of
// the first `use` followers for dur, with a fixed per-request think time
// — the replica-scaling measurement: each follower gets the same client
// concurrency, so aggregate QPS tracks serving capacity added per
// replica.
func measureReadQPS(followers []string, use, workersPer, n int, think, dur time.Duration, seed int64) float64 {
	var stopFlag atomic.Bool
	var ops atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for f := 0; f < use; f++ {
		for w := 0; w < workersPer; w++ {
			wg.Add(1)
			go func(f, w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(f)*104729 + int64(w)))
				url := followers[f]
				for !stopFlag.Load() {
					u, v := rng.Intn(n), rng.Intn(n)
					st, _, err := replJSON("GET", fmt.Sprintf("%s/graphs/chaos/connected?u=%d&v=%d", url, u, v), nil)
					if err != nil || st != http.StatusOK {
						fail(fmt.Errorf("qps read: status %d err %v", st, err))
					}
					ops.Add(1)
					time.Sleep(think)
				}
			}(f, w)
		}
	}
	time.Sleep(dur)
	stopFlag.Store(true)
	wg.Wait()
	return float64(ops.Load()) / time.Since(start).Seconds()
}

// runReplScenario runs the whole scenario and writes its table to out.
func runReplScenario(backend string, n, deg, block, batchSize, batches, followerCount, kills int, qpsDur time.Duration, seed uint64, ccservedFlag, out string) {
	t := &bench.Table{
		ID:    "REPL",
		Title: "replication chaos: WAL-tailing followers under primary kill -9, with oracle-verified reads",
		Claim: "followers re-applying the primary's log serve reads indistinguishable from the primary " +
			"at every version they publish — through repeated kill -9 of the primary and its WAL " +
			"recovery — and keep serving while the primary is down; aggregate read throughput " +
			"scales with follower count at fixed per-replica client concurrency",
		Columns: []string{"scenario", "detail", "ops", "elapsed", "rate", "verdict"},
	}
	pass := true
	verdict := func(ok bool) string {
		if ok {
			return "PASS"
		}
		pass = false
		return "FAIL"
	}

	tmp, err := os.MkdirTemp("", "ccload-repl-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(tmp)
	bin, err := ccservedBinary(ccservedFlag, tmp)
	if err != nil {
		fail(err)
	}
	walDir := filepath.Join(tmp, "wal")
	if err := os.Mkdir(walDir, 0o755); err != nil {
		fail(err)
	}

	// Topology: one primary (durable) + followerCount followers on loopback.
	primaryPort, err := freePort()
	if err != nil {
		fail(err)
	}
	primaryURL := fmt.Sprintf("http://127.0.0.1:%d", primaryPort)
	primaryArgs := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", primaryPort),
		"-backend", backend, "-wal-dir", walDir,
	}
	startPrimary := func() *replProc {
		p, err := startServed(bin, filepath.Join(tmp, "primary.log"), primaryArgs...)
		if err != nil {
			fail(err)
		}
		if err := waitReadyz(primaryURL, 30*time.Second); err != nil {
			fail(err)
		}
		return p
	}
	primary := startPrimary()
	defer func() { primary.kill() }()

	// Create the graph, seed the oracle and the version history.
	g0 := blockUnion(n, deg, block, seed)
	oracle := baseline.NewIncOracle(g0)
	createBody, err := json.Marshal(map[string]any{"n": n, "edges": edgePairs(g0.Edges)})
	if err != nil {
		fail(err)
	}
	if st, body, err := replJSON("PUT", primaryURL+"/graphs/chaos", createBody); err != nil || st != http.StatusCreated {
		fail(fmt.Errorf("create: status %d err %v body %v", st, err, body))
	}
	hist := &versionHistory{m: map[uint64][]int32{}}
	hist.set(1, oracle.Labels())
	lastSeq := uint64(1)

	followers := make([]string, followerCount)
	fprocs := make([]*replProc, followerCount)
	for i := range followers {
		port, err := freePort()
		if err != nil {
			fail(err)
		}
		followers[i] = fmt.Sprintf("http://127.0.0.1:%d", port)
		fprocs[i], err = startServed(bin, filepath.Join(tmp, fmt.Sprintf("follower%d.log", i)),
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-backend", backend, "-follow", primaryURL, "-max-lag", "2s")
		if err != nil {
			fail(err)
		}
		defer fprocs[i].kill()
	}
	for _, u := range followers {
		if err := waitReadyz(u, 30*time.Second); err != nil {
			fail(err)
		}
	}
	fmt.Fprintf(os.Stderr, "topology up: primary %s + %d followers, graph n=%d m=%d\n",
		primaryURL, followerCount, n, g0.M())

	// Chaos readers run for the whole write phase, across every kill.
	stats := &readerStats{}
	stopReaders := make(chan struct{})
	var readerWG sync.WaitGroup
	runChaosReaders(stopReaders, &readerWG, followers, n, hist, stats, int64(seed))

	// The sequential writer: block-local adds and random removals, each
	// acked before the next, the oracle and history tracking every version
	// the primary assigns.  writeBatch returns the batch it built.
	rng := rand.New(rand.NewSource(int64(seed)*2862933555777941757 + 5))
	mkAdd := func() []parcc.Edge {
		lo := (rng.Intn(n) / block) * block
		w := block
		if lo+w > n {
			w = n - lo
		}
		b := make([]parcc.Edge, batchSize)
		for i := range b {
			b[i] = parcc.Edge{U: int32(lo + rng.Intn(w)), V: int32(lo + rng.Intn(w))}
		}
		return b
	}
	post := func(path string, batch []parcc.Edge) (uint64, error) {
		body, err := json.Marshal(map[string]any{"edges": edgePairs(batch)})
		if err != nil {
			return 0, err
		}
		st, resp, err := replJSON("POST", primaryURL+path, body)
		if err != nil {
			return 0, err
		}
		if st != http.StatusOK {
			return 0, fmt.Errorf("POST %s: status %d: %v", path, st, resp)
		}
		return uint64(resp["version"].(float64)), nil
	}
	ack := func(v uint64) {
		if v != lastSeq+1 {
			fail(fmt.Errorf("writer saw version %d after %d (want +1)", v, lastSeq))
		}
		lastSeq = v
		hist.set(v, oracle.Labels())
	}

	// killRestart fires a batch at the primary, kill -9s it with the write
	// in flight, restarts it from the WAL, and reconciles: the recovery
	// publish is always lastRecordSeq+1, so the recovered version says —
	// unambiguously — whether the in-flight group became durable.
	killRestart := func(k int) {
		batch := mkAdd()
		body, _ := json.Marshal(map[string]any{"edges": edgePairs(batch)})
		inflight := make(chan error, 1)
		sendDelay := time.Duration(rng.Intn(3000)) * time.Microsecond
		killDelay := time.Duration(rng.Intn(3000)) * time.Microsecond
		go func() {
			time.Sleep(sendDelay)
			_, _, err := replJSON("POST", primaryURL+"/graphs/chaos/edges", body)
			inflight <- err
		}()
		time.Sleep(killDelay)
		t0 := time.Now()
		primary.kill()
		<-inflight // outcome unknowable from the client side; the log decides
		primary = startPrimary()
		st, resp, err := replJSON("GET", primaryURL+"/graphs/chaos/snapshot", nil)
		if err != nil || st != http.StatusOK {
			fail(fmt.Errorf("post-restart snapshot: %d %v", st, err))
		}
		recovered := uint64(resp["version"].(float64))
		landed := false
		switch recovered {
		case lastSeq + 1: // recovery bump only: the in-flight group was lost
		case lastSeq + 2: // the group hit the log before the kill
			landed = true
			if err := oracle.AddEdges(batch); err != nil {
				fail(err)
			}
			// Followers stream and publish the batch's own seq — record it,
			// or their reads at that version would look unassigned.
			hist.set(lastSeq+1, oracle.Labels())
		default:
			fail(fmt.Errorf("kill %d: recovered version %d, want %d or %d", k, recovered, lastSeq+1, lastSeq+2))
		}
		raw := resp["labels"].([]any)
		labels := make([]int32, len(raw))
		for i, x := range raw {
			labels[i] = int32(x.(float64))
		}
		okPart := graph.SamePartition(labels, oracle.Labels())
		lastSeq = recovered
		hist.set(recovered, oracle.Labels())
		if !landed {
			// Lost cleanly: replay it so the stream always advances.
			v, err := post("/graphs/chaos/edges", batch)
			if err != nil {
				fail(err)
			}
			if err := oracle.AddEdges(batch); err != nil {
				fail(err)
			}
			ack(v)
		}
		// Followers must reconnect and catch back up.
		caught := true
		for _, u := range followers {
			if err := waitReadyz(u, 30*time.Second); err != nil {
				caught = false
			}
		}
		outcome := "lost (replayed)"
		if landed {
			outcome = "durable"
		}
		t.Add(fmt.Sprintf("kill#%d", k),
			fmt.Sprintf("in-flight batch %s; recovered v%d", outcome, recovered),
			1, fmt.Sprintf("%v", time.Since(t0).Round(time.Millisecond)),
			"kill -9 → WAL recovery → followers caught up", verdict(okPart && caught))
		fmt.Fprintf(os.Stderr, "kill#%d: in-flight %s, recovered v%d, followers caught up=%v\n",
			k, outcome, recovered, caught)
	}

	t0 := time.Now()
	killAt := map[int]int{}
	for k := 1; k <= kills; k++ {
		killAt[k*batches/(kills+1)] = k
	}
	wrote := 0
	for b := 0; b < batches; b++ {
		if k, ok := killAt[b]; ok {
			killRestart(k)
		}
		live := oracle.Graph()
		if rng.Intn(10) < 7 || live.M() == 0 {
			batch := mkAdd()
			v, err := post("/graphs/chaos/edges", batch)
			if err != nil {
				fail(err)
			}
			if err := oracle.AddEdges(batch); err != nil {
				fail(err)
			}
			ack(v)
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
			v, err := post("/graphs/chaos/edges/remove", batch)
			if err != nil {
				fail(err)
			}
			if err := oracle.RemoveEdges(batch); err != nil {
				fail(err)
			}
			ack(v)
		}
		wrote++
		if b == batches/2 {
			// Mid-stream compaction: the log's head becomes a checkpoint and
			// live streams must survive the swap.
			if st, _, err := replJSON("POST", primaryURL+"/graphs/chaos/compact", nil); err != nil || st != http.StatusOK {
				fail(fmt.Errorf("compact: %d %v", st, err))
			}
		}
	}
	writeWall := time.Since(t0)
	t.Add("chaos writes",
		fmt.Sprintf("%d acked batches, %d kill -9s, 1 compact; final v%d", wrote, kills, lastSeq),
		wrote, fmt.Sprintf("%v", writeWall.Round(time.Millisecond)),
		fmt.Sprintf("%.4g writes/s", float64(wrote)/writeWall.Seconds()), "-")

	// Wait for every follower to reach the final version, then stop the
	// readers and settle the deferred verifications.
	finalOK := true
	for _, u := range followers {
		deadline := time.Now().Add(30 * time.Second)
		for {
			st, body, err := replJSON("GET", fmt.Sprintf("%s/graphs/chaos/count?min_version=%d", u, lastSeq), nil)
			if err == nil && st == http.StatusOK {
				_ = body
				break
			}
			if !time.Now().Before(deadline) {
				finalOK = false
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	close(stopReaders)
	readerWG.Wait()
	for _, d := range stats.deferred {
		labels, ok := hist.get(d.version)
		if !ok {
			stats.verifyFails.Add(1) // served a version the primary never assigned
			continue
		}
		if (labels[d.u] == labels[d.v]) != d.connected {
			stats.verifyFails.Add(1)
		}
	}
	readsOK := stats.verifyFails.Load() == 0 && stats.reads.Load() > 0
	t.Add("follower reads",
		fmt.Sprintf("%d verified against oracle@version (%d deferred, %d transient errors)",
			stats.reads.Load(), len(stats.deferred), stats.errs.Load()),
		stats.reads.Load(), fmt.Sprintf("%v", writeWall.Round(time.Millisecond)),
		fmt.Sprintf("%d mismatches", stats.verifyFails.Load()), verdict(readsOK && finalOK))
	fmt.Fprintf(os.Stderr, "follower reads: %d verified, %d mismatches, %d transient errors\n",
		stats.reads.Load(), stats.verifyFails.Load(), stats.errs.Load())

	// Replica scaling: aggregate follower read QPS at fixed per-replica
	// client concurrency (closed loop, think time >> service time, so each
	// replica contributes its own concurrency slots).
	const workersPer = 8
	think := 4 * time.Millisecond
	qps := make([]float64, followerCount+1)
	for use := 1; use <= followerCount; use++ {
		qps[use] = measureReadQPS(followers, use, workersPer, n, think, qpsDur, int64(seed)+int64(use))
		scale := "-"
		v := "-"
		if use >= 2 && qps[1] > 0 {
			s := qps[use] / qps[1]
			scale = fmt.Sprintf("%.3gx vs 1 follower", s)
			if use == 2 {
				v = verdict(s >= 1.7)
			}
		}
		t.Add(fmt.Sprintf("read qps x%d", use),
			fmt.Sprintf("%d followers x %d closed-loop readers, %v think", use, workersPer, think),
			int64(qps[use]*qpsDur.Seconds()), fmt.Sprintf("%v", qpsDur),
			fmt.Sprintf("%.4g qps aggregate  %s", qps[use], scale), v)
		fmt.Fprintf(os.Stderr, "read qps x%d: %.0f aggregate\n", use, qps[use])
	}

	t.Note("real processes over loopback HTTP: ccserved -wal-dir primary, ccserved -follow "+
		"followers (backend=%q).  The writer is sequential (each batch acked before the next), so "+
		"log seq == snapshot version and the oracle history maps every version a follower may "+
		"publish; each follower read of connected(u,v) is checked against the oracle partition at "+
		"the version the follower reported — the replication correctness contract.", backend)
	t.Note("kill rows: the primary is SIGKILLed with a write in flight.  The recovery publish is " +
		"always lastRecordSeq+1, so the recovered version proves whether the in-flight group became " +
		"durable (v+2) or was lost whole (v+1) — either way the recovered partition must equal the " +
		"oracle's, lost batches are replayed, and every follower must reconnect and catch up.")
	t.Note("read-qps rows: closed-loop readers with a fixed think time and a fixed worker count " +
		"PER REPLICA, so aggregate throughput tracks the serving capacity replicas add; the " +
		"acceptance bar is >= 1.7x aggregate QPS at 2 followers vs 1.")
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
