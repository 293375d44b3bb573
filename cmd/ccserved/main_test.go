package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"parcc"
	"parcc/internal/baseline"
	"parcc/internal/cmdtest"
	"parcc/internal/graph"
)

func TestMain(m *testing.M) { cmdtest.Main(m, main) }

// server is one ccserved process on a fixed loopback address, so that a
// restart comes back where its followers expect it.
type server struct {
	url  string
	args []string
	log  string // combined output of every incarnation
	cmd  *exec.Cmd
}

// start launches ccserved on a free loopback port and waits for /readyz.
// Cleanup kills it, so a failing test leaves no process behind, and logs
// its output if the test failed.
func start(t *testing.T, args ...string) *server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	s := &server{
		url:  "http://" + addr,
		args: append([]string{"-addr", addr}, args...),
		log:  filepath.Join(t.TempDir(), "ccserved.log"),
	}
	t.Cleanup(func() {
		s.kill()
		if out, _ := os.ReadFile(s.log); t.Failed() {
			t.Logf("ccserved %s:\n%s", strings.Join(s.args, " "), out)
		}
	})
	s.restart(t)
	return s
}

// restart launches a new incarnation and waits until it is ready.
func (s *server) restart(t *testing.T) {
	t.Helper()
	f, err := os.OpenFile(s.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s.cmd = cmdtest.Command(s.args...)
	s.cmd.Stdout, s.cmd.Stderr = f, f
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	if err := await(s.url+"/readyz", 30*time.Second); err != nil {
		t.Fatal(err)
	}
}

// kill is the chaos action: SIGKILL, no drain, no checkpoint.
func (s *server) kill() {
	if s.cmd != nil && s.cmd.Process != nil && s.cmd.ProcessState == nil {
		s.cmd.Process.Kill()
		s.cmd.Wait()
	}
}

var client = &http.Client{
	Timeout:   15 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: 64},
}

// fetch sends one request and returns the status and the body.
func fetch(method, url, body string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// call is fetch on the test goroutine: it fails the test unless the
// status is want, decodes the JSON body into out when out is non-nil, and
// returns the body.
func call(t *testing.T, want int, method, url, body string, out any) []byte {
	t.Helper()
	st, b, err := fetch(method, url, body)
	if err != nil || st != want {
		t.Fatalf("%s %s: status %d err %v body %s; want %d", method, url, st, err, b, want)
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			t.Fatalf("%s %s: %v", method, url, err)
		}
	}
	return b
}

// await polls GET url until it answers 200.
func await(url string, timeout time.Duration) error {
	for deadline := time.Now().Add(timeout); ; time.Sleep(20 * time.Millisecond) {
		if st, _, err := fetch("GET", url, ""); err == nil && st == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("GET %s: no 200 within %v", url, timeout)
		}
	}
}

// metric returns the value of the /metrics sample named name.
func metric(page []byte, name string) (string, bool) {
	for _, line := range strings.Split(string(page), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v, true
		}
	}
	return "", false
}

// read is one point read and the snapshot version that answered it.
type read struct {
	Connected bool
	Version   uint64
	u, v      int
}

// pointRead asks graphURL (a /graphs/{name} URL) whether u and v are connected.
func pointRead(graphURL string, u, v int) (read, error) {
	r := read{u: u, v: v}
	st, b, err := fetch("GET", fmt.Sprintf("%s/connected?u=%d&v=%d", graphURL, u, v), "")
	if err == nil && st != http.StatusOK {
		err = fmt.Errorf("connected?u=%d&v=%d: status %d: %s", u, v, st, b)
	}
	if err == nil {
		err = json.Unmarshal(b, &r)
	}
	return r, err
}

func connected(t *testing.T, graphURL string, u, v int) bool {
	t.Helper()
	r, err := pointRead(graphURL, u, v)
	if err != nil {
		t.Fatal(err)
	}
	return r.Connected
}

type snapshotBody struct {
	Version uint64
	Labels  []int32
}

// snapshot fetches a graph's published version and labels.
func snapshot(t *testing.T, graphURL string) snapshotBody {
	t.Helper()
	var sn snapshotBody
	call(t, 200, "GET", graphURL+"/snapshot", "", &sn)
	return sn
}

// edgesJSON is a mutation body; n > 0 makes it a PUT body.
func edgesJSON(n int, edges []parcc.Edge) string {
	pairs := make([][2]int32, len(edges))
	for i, e := range edges {
		pairs[i] = [2]int32{e.U, e.V}
	}
	doc := map[string]any{"edges": pairs}
	if n > 0 {
		doc["n"] = n
	}
	b, _ := json.Marshal(doc)
	return string(b)
}

// TestServeLifecycle: invalid options (-follow with -wal-dir or
// -preload, a flag that does not exist)
// fail before listening; a served process answers health probes,
// mutations, point queries, the NDJSON batch, stats, metrics and traces,
// keeps pprof off by default, serves its -preload graph, and exits 0 on
// SIGTERM.
func TestServeLifecycle(t *testing.T) {
	for _, bad := range [][]string{
		{"-follow", "http://127.0.0.1:1", "-wal-dir", t.TempDir()},
		{"-follow", "http://127.0.0.1:1", "-preload", "demo=cycle:n=8"},
		{"-fsync=false"},
	} {
		var out strings.Builder
		cmd := cmdtest.Command(append([]string{"-addr", "127.0.0.1:0"}, bad...)...)
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		timer := time.AfterFunc(10*time.Second, func() { cmd.Process.Kill() })
		cmd.Wait()
		timer.Stop()
		if code := cmd.ProcessState.ExitCode(); code <= 0 || strings.Contains(out.String(), "listening") {
			t.Errorf("ccserved %s: exit %d, output %q; want a startup failure before listening", bad, code, out.String())
		}
	}

	s := start(t, "-preload", "demo=twocycles:n=64")
	call(t, 200, "GET", s.url+"/healthz", "", nil)
	call(t, 200, "GET", s.url+"/readyz", "", nil)
	var count struct{ Components int }
	if call(t, 200, "GET", s.url+"/graphs/demo/count", "", &count); count.Components != 2 {
		t.Errorf("preloaded twocycles:n=64 has %d components, want 2", count.Components)
	}

	g := s.url + "/graphs/g"
	call(t, 201, "PUT", g, `{"n":6,"edges":[[0,1],[1,2]]}`, nil)
	call(t, 200, "POST", g+"/edges", `{"edges":[[2,3]]}`, nil)
	if !connected(t, g, 0, 3) {
		t.Error("0-3 not connected after adding 2-3")
	}
	batch := call(t, 200, "POST", g+"/batch", "{\"op\":\"add\",\"edges\":[[3,5]]}\n{\"op\":\"connected\",\"u\":0,\"v\":5}\n", nil)
	if !bytes.Contains(batch, []byte(`"connected":true`)) {
		t.Errorf("NDJSON batch add 3-5 then connected(0,5): %s", batch)
	}
	var stats map[string]any
	if call(t, 200, "GET", s.url+"/stats", "", &stats); stats["uptime_seconds"] == nil {
		t.Errorf("/stats has no uptime_seconds: %v", stats)
	}

	call(t, 200, "POST", s.url+"/graphs/demo/edges", `{"edges":[[0,33]]}`, nil)
	page := call(t, 200, "GET", s.url+"/metrics", "", nil)
	if _, ok := metric(page, `parcc_snapshot_publish_seconds_bucket{le="+Inf"}`); !ok {
		t.Error(`/metrics has no parcc_snapshot_publish_seconds_bucket{le="+Inf"}`)
	}
	if tr := call(t, 200, "GET", s.url+"/graphs/demo/trace", "", nil); !bytes.Contains(tr, []byte(`"op"`)) {
		t.Errorf("trace has no \"op\": %s", tr)
	}
	call(t, 404, "GET", s.url+"/debug/pprof/", "", nil)

	s.cmd.Process.Signal(syscall.SIGTERM)
	if err := s.cmd.Wait(); err != nil {
		t.Errorf("SIGTERM: %v, want exit 0", err)
	}
}

// TestWindowAndPprof: -window makes the shard writer combine concurrent
// single-edge writes into fewer applies, and -pprof mounts the profiler.
func TestWindowAndPprof(t *testing.T) {
	const writers = 16
	s := start(t, "-window", "200ms", "-pprof")
	call(t, 200, "GET", s.url+"/debug/pprof/", "", nil)
	g := s.url + "/graphs/g"
	call(t, 201, "PUT", g, `{"n":64,"edges":[]}`, nil)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if st, b, err := fetch("POST", g+"/edges", fmt.Sprintf(`{"edges":[[%d,%d]]}`, w, w+1)); err != nil || st != 200 {
				t.Errorf("add %d-%d: status %d err %v body %s", w, w+1, st, err, b)
			}
		}()
	}
	wg.Wait()
	if !connected(t, g, 0, writers) {
		t.Fatalf("0-%d not connected after the adds", writers)
	}
	var stats struct {
		Graphs []struct{ Writes, Applies, Coalesced int }
	}
	call(t, 200, "GET", s.url+"/stats", "", &stats)
	if len(stats.Graphs) != 1 {
		t.Fatalf("/stats lists %d graphs, want 1", len(stats.Graphs))
	}
	if st := stats.Graphs[0]; st.Writes != writers || st.Coalesced == 0 || st.Applies >= writers {
		t.Errorf("-window 200ms: writes=%d applies=%d coalesced=%d; want %d writes in fewer applies",
			st.Writes, st.Applies, st.Coalesced, writers)
	}
}

// TestRecoveryAfterKill: a WAL primary kill -9'd after three logged groups
// comes back with exactly the logged state.
func TestRecoveryAfterKill(t *testing.T) {
	s := start(t, "-wal-dir", t.TempDir())
	g := s.url + "/graphs/g"
	call(t, 201, "PUT", g, `{"n":8,"edges":[[0,1],[1,2]]}`, nil)
	call(t, 200, "POST", g+"/edges", `{"edges":[[2,3],[5,6]]}`, nil)
	call(t, 200, "POST", g+"/edges/remove", `{"edges":[[1,2]]}`, nil)
	if connected(t, g, 0, 3) {
		t.Fatal("0-3 connected after removing 1-2")
	}
	s.kill()
	s.restart(t)
	for _, q := range []struct {
		u, v int
		want bool
	}{{0, 1, true}, {0, 3, false}, {5, 6, true}} {
		if got := connected(t, g, q.u, q.v); got != q.want {
			t.Errorf("after recovery connected(%d,%d) = %v, want %v", q.u, q.v, got, q.want)
		}
	}
	var count struct{ Components int }
	if call(t, 200, "GET", g+"/count", "", &count); count.Components != 5 {
		t.Errorf("after recovery %d components, want 5", count.Components)
	}
	if v, _ := metric(call(t, 200, "GET", s.url+"/metrics", "", nil), "parcc_wal_replay_records_total"); v != "3" {
		t.Errorf("parcc_wal_replay_records_total = %q, want 3", v)
	}
}

// blockUnion is n vertices as a disjoint union of block-sized cells, each
// wired like a supercritical GNM inside (deg edges per vertex).
func blockUnion(n, deg, block int, rng *rand.Rand) *parcc.Graph {
	g := parcc.NewGraph(n)
	for lo := 0; lo < n; lo += block {
		w := min(block, n-lo)
		for k := 0; k < deg*w; k++ {
			g.AddEdge(lo+rng.Intn(w), lo+rng.Intn(w))
		}
	}
	return g
}

// TestReplicationChaos is the multi-process replication contract.  A WAL
// primary and two -follow followers serve an n = 8192 block union.  A
// sequential writer acks 120 block-local batches, each exactly one
// version past the last.  The primary is kill -9'd three times with a
// write in flight and restarted from its log, and the log is compacted
// mid-stream.  While the primary is down the followers serve reads and
// refuse writes.  Closed-loop readers check every follower read against
// baseline.IncOracle at the version the follower reported.  The run ends
// with the replica-scaling bar: aggregate follower read QPS at two
// followers is at least 1.7x that at one.
func TestReplicationChaos(t *testing.T) {
	const (
		n, deg, block, batchSize = 8192, 2, 1024, 8
		batches, kills           = 120, 3
	)
	rng := rand.New(rand.NewSource(1))
	primary := start(t, "-wal-dir", t.TempDir())
	chaos := primary.url + "/graphs/chaos"
	g0 := blockUnion(n, deg, block, rng)
	oracle := baseline.NewIncOracle(g0)
	call(t, 201, "PUT", chaos, edgesJSON(n, g0.Edges), nil)
	var hist sync.Map // version -> oracle labels at that version
	hist.Store(uint64(1), oracle.Labels())
	last := uint64(1)
	followers := []*server{
		start(t, "-follow", primary.url, "-max-lag", "2s"),
		start(t, "-follow", primary.url, "-max-lag", "2s"),
	}

	// One verifying reader per follower for the whole write phase.  A read
	// at a version the writer has not recorded yet (a follower can publish
	// a group before its ack reaches the writer) is checked after the run.
	var reads, readErrs, mismatches atomic.Int64
	var mu sync.Mutex
	var deferred []read
	matches := func(r read) bool {
		labels, ok := hist.Load(r.Version)
		return ok && (labels.([]int32)[r.u] == labels.([]int32)[r.v]) == r.Connected
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, f := range followers {
		wg.Add(1)
		go func(rng *rand.Rand, graphURL string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r, err := pointRead(graphURL, rng.Intn(n), rng.Intn(n))
				if err != nil {
					readErrs.Add(1)
					time.Sleep(5 * time.Millisecond)
					continue
				}
				reads.Add(1)
				if _, ok := hist.Load(r.Version); !ok {
					mu.Lock()
					deferred = append(deferred, r)
					mu.Unlock()
				} else if !matches(r) {
					mismatches.Add(1)
				}
				time.Sleep(time.Millisecond)
			}
		}(rand.New(rand.NewSource(int64(i)+2)), f.url+"/graphs/chaos")
	}
	stopReaders := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopReaders()

	mkAdd := func() []parcc.Edge {
		lo := rng.Intn(n) / block * block
		w := min(block, n-lo)
		b := make([]parcc.Edge, batchSize)
		for i := range b {
			b[i] = parcc.Edge{U: int32(lo + rng.Intn(w)), V: int32(lo + rng.Intn(w))}
		}
		return b
	}
	write := func(remove bool, batch []parcc.Edge) {
		path, apply := "/edges", oracle.AddEdges
		if remove {
			path, apply = "/edges/remove", oracle.RemoveEdges
		}
		var ack struct{ Version uint64 }
		call(t, 200, "POST", chaos+path, edgesJSON(0, batch), &ack)
		if err := apply(batch); err != nil {
			t.Fatal(err)
		}
		if ack.Version != last+1 {
			t.Fatalf("acked version %d after %d, want +1", ack.Version, last)
		}
		last = ack.Version
		hist.Store(last, oracle.Labels())
	}
	// caughtUp waits until every follower is ready and publishes version v.
	caughtUp := func(v uint64) {
		for _, f := range followers {
			if err := await(f.url+"/readyz", 30*time.Second); err != nil {
				t.Error(err)
			}
			if err := await(fmt.Sprintf("%s/graphs/chaos/count?min_version=%d", f.url, v), 30*time.Second); err != nil {
				t.Error(err)
			}
		}
	}

	// killRestart kill -9s the primary with a batch in flight and restarts
	// it from its log.  Recovery publishes at the last logged seq + 1, so
	// the recovered version says whether the in-flight batch was durable.
	// Followers publish only logged seqs, so they catch up to the in-flight
	// batch if it was durable, and to its resend if it was lost.
	killRestart := func(k int) {
		batch := mkAdd()
		sendDelay := time.Duration(rng.Intn(3000)) * time.Microsecond
		killDelay := time.Duration(rng.Intn(3000)) * time.Microsecond
		inflight := make(chan struct{})
		go func() {
			time.Sleep(sendDelay)
			fetch("POST", chaos+"/edges", edgesJSON(0, batch))
			close(inflight)
		}()
		time.Sleep(killDelay)
		t0 := time.Now()
		primary.kill()
		<-inflight // the client cannot know the outcome; the log decides
		for _, f := range followers {
			call(t, 200, "GET", f.url+"/healthz", "", nil)
			if _, err := pointRead(f.url+"/graphs/chaos", 0, 1); err != nil {
				t.Errorf("kill %d: follower read while the primary is down: %v", k, err)
			}
			call(t, 409, "POST", f.url+"/graphs/chaos/edges", `{"edges":[[0,1]]}`, nil)
		}
		primary.restart(t)
		recoverTime := time.Since(t0)
		snap := snapshot(t, chaos)
		durable := snap.Version == last+2
		switch {
		case durable:
			if err := oracle.AddEdges(batch); err != nil {
				t.Fatal(err)
			}
			// Followers publish the batch's own seq too.
			hist.Store(last+1, oracle.Labels())
		case snap.Version != last+1:
			t.Fatalf("kill %d: recovered version %d, want %d or %d", k, snap.Version, last+1, last+2)
		}
		if !graph.SamePartition(snap.Labels, oracle.Labels()) {
			t.Errorf("kill %d: recovered partition differs from the oracle's", k)
		}
		last = snap.Version
		hist.Store(last, oracle.Labels())
		outcome, logged := "durable", last-1
		if !durable {
			outcome = "lost, resent"
			write(false, batch)
			logged = last
		}
		caughtUp(logged)
		t.Logf("kill %d: in-flight write %s; recovered v%d in %v; followers caught up to v%d after %v",
			k, outcome, snap.Version, recoverTime.Round(time.Millisecond), logged, time.Since(t0).Round(time.Millisecond))
	}

	killAt := map[int]int{}
	for k := 1; k <= kills; k++ {
		killAt[k*batches/(kills+1)] = k
	}
	t0 := time.Now()
	for b := 0; b < batches; b++ {
		if k, ok := killAt[b]; ok {
			killRestart(k)
		}
		live := oracle.Graph()
		if rng.Intn(10) < 7 || live.M() == 0 {
			write(false, mkAdd())
		} else {
			batch := make([]parcc.Edge, 0, batchSize)
			for _, i := range rng.Perm(live.M())[:min(1+rng.Intn(batchSize), live.M())] {
				batch = append(batch, live.Edges[i])
			}
			write(true, batch)
		}
		if b == batches/2 {
			call(t, 200, "POST", chaos+"/compact", "", nil)
		}
	}
	t.Logf("%d acked batches, %d kill -9s, 1 compaction in %v; final v%d",
		batches, kills, time.Since(t0).Round(time.Millisecond), last)

	caughtUp(last)
	for _, f := range followers {
		if snap := snapshot(t, f.url+"/graphs/chaos"); snap.Version != last || !graph.SamePartition(snap.Labels, oracle.Labels()) {
			t.Errorf("follower %s ends at v%d, want v%d with the oracle's partition", f.url, snap.Version, last)
		}
	}
	stopReaders()
	for _, r := range deferred {
		if !matches(r) {
			mismatches.Add(1)
		}
	}
	t.Logf("follower reads: %d checked (%d deferred), %d mismatches, %d transient errors",
		reads.Load(), len(deferred), mismatches.Load(), readErrs.Load())
	if reads.Load() == 0 || mismatches.Load() != 0 {
		t.Errorf("follower reads: %d checked, %d mismatches; want > 0 and 0", reads.Load(), mismatches.Load())
	}
	for _, f := range followers {
		if _, ok := metric(call(t, 200, "GET", f.url+"/metrics", "", nil), "parcc_repl_groups_total"); !ok {
			t.Error("follower /metrics has no parcc_repl_groups_total")
		}
	}

	urls := []string{followers[0].url + "/graphs/chaos", followers[1].url + "/graphs/chaos"}
	qps1 := readQPS(t, urls[:1], n)
	qps2 := readQPS(t, urls, n)
	t.Logf("follower read qps: %.0f at 1 follower, %.0f at 2 (%.2fx)", qps1, qps2, qps2/qps1)
	if qps2 < 1.7*qps1 {
		t.Errorf("aggregate read qps at 2 followers is %.2fx that at 1, want >= 1.7x", qps2/qps1)
	}
}

// readQPS is the replica-scaling measurement: 8 closed-loop readers per
// follower with a 4 ms think time, so aggregate QPS tracks the serving
// capacity each replica adds.
func readQPS(t *testing.T, graphs []string, n int) float64 {
	const readersPer, think, dur = 8, 4 * time.Millisecond, time.Second
	var done atomic.Bool
	var ops, errs atomic.Int64
	var wg sync.WaitGroup
	began := time.Now()
	for i := 0; i < readersPer*len(graphs); i++ {
		wg.Add(1)
		go func(rng *rand.Rand, graphURL string) {
			defer wg.Done()
			for !done.Load() {
				if _, err := pointRead(graphURL, rng.Intn(n), rng.Intn(n)); err != nil {
					errs.Add(1)
				}
				ops.Add(1)
				time.Sleep(think)
			}
		}(rand.New(rand.NewSource(int64(i))), graphs[i%len(graphs)])
	}
	time.Sleep(dur)
	done.Store(true)
	wg.Wait()
	if errs.Load() > 0 {
		t.Fatalf("%d of %d qps reads failed", errs.Load(), ops.Load())
	}
	return float64(ops.Load()) / time.Since(began).Seconds()
}
