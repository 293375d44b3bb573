package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"parcc"
	"parcc/internal/graph/gen"
)

// requiredMetrics is the metric-name contract of GET /metrics — the CI
// smoke step asserts the same list against a live ccserved.
var requiredMetrics = []string{
	"parcc_engine_uptime_seconds",
	"parcc_engine_graphs",
	"parcc_engine_reads_total",
	"parcc_engine_writes_total",
	"parcc_engine_applies_total",
	"parcc_engine_coalesced_total",
	"parcc_engine_coalesce_ratio",
	"parcc_engine_edges",
	"parcc_engine_queue_depth",
	"parcc_snapshot_publish_seconds",
	"parcc_wal_appends_total",
	"parcc_wal_bytes_total",
	"parcc_wal_fsyncs_total",
	"parcc_wal_errors_total",
	"parcc_wal_replay_records_total",
	"parcc_wal_replay_edges_total",
	"parcc_wal_replay_seconds",
	"parcc_wal_checkpoints_total",
	"parcc_wal_stream_conns_total",
	"parcc_wal_stream_conns_active",
	"parcc_wal_stream_frames_total",
	"parcc_wal_stream_bytes_total",
	"parcc_shard_reads_total",
	"parcc_shard_writes_total",
	"parcc_shard_edges",
	"parcc_shard_queue_depth",
	"parcc_shard_components",
}

// TestMetricsExposition: /metrics serves the full Prometheus name table
// (>= 10 metrics, including the snapshot-publish histogram and the
// coalesce ratio), with per-shard labeled series and histogram plumbing.
func TestMetricsExposition(t *testing.T) {
	e, srv := testServer(t)
	if err := e.Create("g1", gen.Cycle(64)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Connected("g1", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.AddEdges("g1", []parcc.Edge{{U: 0, V: 32}}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, name := range requiredMetrics {
		if !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("/metrics missing metric %q", name)
		}
	}
	for _, line := range []string{
		"parcc_snapshot_publish_seconds_bucket{le=\"+Inf\"}",
		"parcc_snapshot_publish_seconds_count",
		"parcc_shard_reads_total{graph=\"g1\"}",
	} {
		if !strings.Contains(body, line) {
			t.Errorf("/metrics missing sample line %q in:\n%s", line, body)
		}
	}
}

// TestStatsSinceUptime: /stats carries the monotone since timestamp and
// uptime alongside the per-shard counter table.
func TestStatsSinceUptime(t *testing.T) {
	e, srv := testServer(t)
	if err := e.Create("g1", gen.Path(16)); err != nil {
		t.Fatal(err)
	}
	status, out := doJSON(t, "GET", srv.URL+"/stats", "")
	if status != http.StatusOK {
		t.Fatalf("GET /stats = %d", status)
	}
	if s, ok := out["since"].(string); !ok || s == "" {
		t.Errorf("/stats since = %v, want RFC3339 timestamp", out["since"])
	}
	if up, ok := out["uptime_seconds"].(float64); !ok || up < 0 {
		t.Errorf("/stats uptime_seconds = %v, want >= 0", out["uptime_seconds"])
	}
	if _, ok := out["graphs"].([]any); !ok {
		t.Errorf("/stats graphs = %v, want array", out["graphs"])
	}
}

// TestTraceEndpoint: /graphs/{name}/trace serves the last solve trace as
// JSON when the engine's solvers trace, and 404s when they do not or the
// graph is unknown.
func TestTraceEndpoint(t *testing.T) {
	e := New(Options{Solver: &parcc.Options{Trace: true}})
	srv := httptest.NewServer(NewHandler(e))
	defer func() { srv.Close(); e.Close() }()
	if err := e.Create("g1", gen.TwoCycles(64)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/graphs/g1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /graphs/g1/trace = %d, want 200", resp.StatusCode)
	}
	var tr struct {
		Op          string `json:"op"`
		Incremental *struct {
			BatchEdges int64 `json:"batch_edges"`
		} `json:"incremental"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.Op != "attach" || tr.Incremental == nil || tr.Incremental.BatchEdges == 0 {
		t.Errorf("trace = %+v, want attach trace with batch shape", tr)
	}
	if st, _ := doJSON(t, "GET", srv.URL+"/graphs/nope/trace", ""); st != http.StatusNotFound {
		t.Errorf("unknown graph trace = %d, want 404", st)
	}

	// Tracing off: the endpoint reports 404 (ErrNoTrace), not an empty doc.
	off, srvOff := testServer(t)
	if err := off.Create("g1", gen.Path(8)); err != nil {
		t.Fatal(err)
	}
	if st, _ := doJSON(t, "GET", srvOff.URL+"/graphs/g1/trace", ""); st != http.StatusNotFound {
		t.Errorf("tracing-off trace = %d, want 404", st)
	}
}

// TestPprofGating: the profiling endpoints exist only when
// HandlerOptions.Pprof is set.
func TestPprofGating(t *testing.T) {
	_, srv := testServer(t)
	if resp, err := http.Get(srv.URL + "/debug/pprof/"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("pprof without opt-in = %d, want 404", resp.StatusCode)
		}
	}
	e := New(Options{})
	srvOn := httptest.NewServer(NewHandlerOpts(e, HandlerOptions{Pprof: true}))
	defer func() { srvOn.Close(); e.Close() }()
	if resp, err := http.Get(srvOn.URL + "/debug/pprof/"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("pprof with opt-in = %d, want 200", resp.StatusCode)
		}
	}
}

// TestMetricsRace drives concurrent /metrics scrapes, stats polls, and
// trace reads against a mutating writer — the scrape path must be safe
// against live counter updates (run under -race in CI).
func TestMetricsRace(t *testing.T) {
	e := New(Options{Solver: &parcc.Options{Trace: true}})
	defer e.Close()
	if err := e.Create("g1", gen.Cycle(256)); err != nil {
		t.Fatal(err)
	}
	const iters = 200
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				e.WriteMetrics(io.Discard)
				e.Stats()
				e.Trace("g1")
				e.Connected("g1", 0, 128)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			ed := []parcc.Edge{{U: int32(i % 256), V: int32((i + 7) % 256)}}
			if err := e.AddEdges("g1", ed); err != nil {
				t.Error(err)
				return
			}
			if err := e.RemoveEdges("g1", ed); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// scrapeTotals reads every unlabeled _total counter off e's /metrics page.
func scrapeTotals(t *testing.T, e *Engine) map[string]uint64 {
	t.Helper()
	var page strings.Builder
	e.WriteMetrics(&page)
	out := map[string]uint64{}
	for _, line := range strings.Split(page.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !strings.HasSuffix(name, "_total") || strings.HasPrefix(name, "#") {
			continue
		}
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			t.Errorf("metric line %q: %v", line, err) // scrapers run off the test goroutine
			continue
		}
		out[name] = v
	}
	return out
}

// TestEngineTotalsNeverFall: the engine-wide _total counters, summed over
// sessions at scrape time, keep the counts of sessions that leave — a
// dropped graph on a WAL primary, a replica reset by a checkpoint group,
// a dropped replica — so no scrape ever reads one lower than the last.
func TestEngineTotalsNeverFall(t *testing.T) {
	var last map[string]uint64
	rising := func(e *Engine, stage string) {
		t.Helper()
		cur := scrapeTotals(t, e)
		for name, v := range last {
			if cur[name] < v {
				t.Errorf("%s: %s fell from %d to %d", stage, name, v, cur[name])
			}
		}
		last = cur
	}

	e, _, _ := walServer(t)
	for _, name := range []string{"a", "b"} {
		if err := e.Create(name, gen.Cycle(64)); err != nil {
			t.Fatal(err)
		}
	}
	rising(e, "after create")
	for i := 0; i < 8; i++ {
		for _, name := range []string{"a", "b"} {
			if _, err := e.Connected(name, 0, i); err != nil {
				t.Fatal(err)
			}
			if err := e.AddEdges(name, []parcc.Edge{{U: int32(i), V: int32(i + 32)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	rising(e, "after serving")
	if last["parcc_engine_reads_total"] != 16 || last["parcc_engine_writes_total"] != 16 || last["parcc_wal_appends_total"] == 0 {
		t.Fatalf("totals before the drop: %v", last)
	}
	if err := e.Drop("a"); err != nil {
		t.Fatal(err)
	}
	rising(e, "after drop")

	last = nil
	fe := New(Options{ReadOnly: true})
	defer fe.Close()
	head := func(seq uint64) []StreamFrame {
		return []StreamFrame{{Kind: FrameCheckpoint, Seq: seq, N: 8, Batch: []parcc.Edge{{U: 0, V: 1}}}}
	}
	for seq, grp := range [][]StreamFrame{
		{{Kind: FrameCreate, Seq: 1, N: 8}},
		{{Kind: FrameAdd, Seq: 2, Batch: []parcc.Edge{{U: 0, V: 1}}}},
		head(3),
		{{Kind: FrameAdd, Seq: 4, Batch: []parcc.Edge{{U: 1, V: 2}}}},
	} {
		if err := fe.ApplyReplicaGroup("r", grp); err != nil {
			t.Fatalf("group at seq %d: %v", seq+1, err)
		}
		if _, err := fe.Connected("r", 0, 1); err != nil {
			t.Fatal(err)
		}
		rising(fe, "replica group")
	}
	if st := fe.Stats()[0]; st.Reads != 4 || st.Writes != 2 || st.Applies != 2 {
		t.Fatalf("replica /stats %+v after a reset, want reads 4, writes 2, applies 2", st)
	}
	if err := fe.DropReplica("r"); err != nil {
		t.Fatal(err)
	}
	rising(fe, "after replica drop")
}

// TestEngineTotalsUnderChurn: scrapers read /metrics while a WAL primary
// creates, writes, reads and drops graphs and a read-only engine takes
// checkpoint resets between its groups.  No _total falls between two
// scrapes, and at quiescence each engine total equals the events issued.
func TestEngineTotalsUnderChurn(t *testing.T) {
	e, _, _ := walServer(t)
	fe := New(Options{ReadOnly: true})
	defer fe.Close()

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for _, eng := range []*Engine{e, fe, e} {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			last := scrapeTotals(t, eng)
			for {
				select {
				case <-stop:
					return
				default:
				}
				cur := scrapeTotals(t, eng)
				for name, v := range last {
					if cur[name] < v {
						t.Errorf("%s fell from %d to %d", name, v, cur[name])
					}
				}
				last = cur
			}
		}()
	}

	// want holds the primary's expected totals; each writer adds its own
	// counts once it is done.
	const writers, rounds, adds = 3, 4, 5
	var mu sync.Mutex
	want := map[string]uint64{}
	frameLen := func(fr StreamFrame) uint64 { return uint64(len(appendWALFrame(nil, &fr))) }
	var work sync.WaitGroup
	for w := 0; w < writers; w++ {
		work.Add(1)
		go func() {
			defer work.Done()
			got := map[string]uint64{}
			for r := 0; r < rounds; r++ {
				name := fmt.Sprintf("w%d-r%d", w, r)
				g := gen.Cycle(32)
				got["parcc_wal_bytes_total"] += frameLen(StreamFrame{Kind: walKindCreate, N: g.N, Batch: g.Edges})
				if err := e.Create(name, g); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < adds; i++ {
					ed := []parcc.Edge{{U: int32(i), V: int32(i + 16)}}
					if err := e.AddEdges(name, ed); err != nil {
						t.Error(err)
						return
					}
					got["parcc_wal_bytes_total"] += frameLen(StreamFrame{Kind: walKindAdd, Batch: ed})
					if _, err := e.Connected(name, i, i+16); err != nil {
						t.Error(err)
						return
					}
					if _, err := e.ComponentCount(name); err != nil {
						t.Error(err)
						return
					}
				}
				// Drop deletes the log without a checkpoint: no more frames.
				if err := e.Drop(name); err != nil {
					t.Error(err)
					return
				}
				got["parcc_engine_reads_total"] += 2 * adds
				got["parcc_engine_writes_total"] += adds
				got["parcc_engine_applies_total"] += adds
				got["parcc_wal_appends_total"] += adds + 1
				got["parcc_wal_fsyncs_total"] += adds + 1
			}
			mu.Lock()
			for k, v := range got {
				want[k] += v
			}
			mu.Unlock()
		}()
	}

	// The follower: a create, then groups with a checkpoint reset every
	// third seq, a read after each.
	const groups = 24
	var replicaWrites uint64
	work.Add(1)
	go func() {
		defer work.Done()
		for seq := uint64(1); seq <= groups; seq++ {
			grp := []StreamFrame{{Kind: FrameAdd, Seq: seq, Batch: []parcc.Edge{{U: 0, V: int32(seq % 8)}}}}
			switch {
			case seq == 1:
				grp = []StreamFrame{{Kind: FrameCreate, Seq: seq, N: 8}}
			case seq%3 == 0:
				grp = []StreamFrame{{Kind: FrameCheckpoint, Seq: seq, N: 8, Batch: []parcc.Edge{{U: 0, V: 1}}}}
			default:
				replicaWrites++
			}
			if err := fe.ApplyReplicaGroup("r", grp); err != nil {
				t.Errorf("group at seq %d: %v", seq, err)
				return
			}
			if _, err := fe.Connected("r", 0, 1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	work.Wait()
	close(stop)
	scrapers.Wait()

	for _, c := range []struct {
		eng  *Engine
		want map[string]uint64
	}{
		{e, want},
		{fe, map[string]uint64{
			"parcc_engine_reads_total":   groups,
			"parcc_engine_writes_total":  replicaWrites,
			"parcc_engine_applies_total": replicaWrites,
		}},
	} {
		got := scrapeTotals(t, c.eng)
		for _, name := range []string{
			"parcc_engine_reads_total", "parcc_engine_writes_total", "parcc_engine_applies_total",
			"parcc_engine_coalesced_total", "parcc_wal_appends_total", "parcc_wal_bytes_total",
			"parcc_wal_fsyncs_total", "parcc_wal_checkpoints_total",
		} {
			if got[name] != c.want[name] {
				t.Errorf("%s = %d at quiescence, want %d (read-only %v)", name, got[name], c.want[name], c.eng.ReadOnly())
			}
		}
	}
}

// TestHTTPWritesAreNotReads: the version and component count a write's
// response carries are metadata, not point queries, so PUT create and
// POST add and remove leave the engine's reads total and the shard's
// Stats().Reads unchanged; one GET /connected then adds exactly one to
// each.
func TestHTTPWritesAreNotReads(t *testing.T) {
	e, srv := testServer(t)
	reads := func() (uint64, uint64) {
		t.Helper()
		st := e.Stats()
		if len(st) != 1 {
			t.Fatalf("Stats() has %d sessions, want 1", len(st))
		}
		return scrapeTotals(t, e)["parcc_engine_reads_total"], st[0].Reads
	}
	u := srv.URL + "/graphs/g"
	for _, w := range []struct{ method, url, body string }{
		{"PUT", u, `{"n":4,"edges":[[0,1]]}`},
		{"POST", u + "/edges", `{"edges":[[1,2],[2,3]]}`},
		{"POST", u + "/edges/remove", `{"edges":[[2,3]]}`},
	} {
		if st, out := doJSON(t, w.method, w.url, w.body); st/100 != 2 {
			t.Fatalf("%s %s = %d %v", w.method, w.url, st, out)
		}
		if eng, shard := reads(); eng != 0 || shard != 0 {
			t.Errorf("after %s %s: engine reads %d, shard reads %d, want 0 and 0", w.method, w.url, eng, shard)
		}
	}
	if st, out := doJSON(t, "GET", u+"/connected?u=0&v=2", ""); st != http.StatusOK || out["connected"] != true {
		t.Fatalf("GET /connected = %d %v, want 200 connected", st, out)
	}
	if eng, shard := reads(); eng != 1 || shard != 1 {
		t.Errorf("after GET /connected: engine reads %d, shard reads %d, want 1 and 1", eng, shard)
	}
}
