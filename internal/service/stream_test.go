package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parcc"
	"parcc/internal/graph"
)

// walServer is a WAL-backed engine behind its HTTP handler, with a fast
// stream heartbeat so tail tests don't wait out the 1s default.
func walServer(t *testing.T) (*Engine, *httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	e := New(Options{Solver: &parcc.Options{}, WALDir: dir})
	srv := httptest.NewServer(NewHandlerOpts(e, HandlerOptions{StreamHeartbeat: 25 * time.Millisecond}))
	t.Cleanup(func() { srv.Close(); e.Close() })
	return e, srv, dir
}

// openStream opens GET /graphs/{name}/wal and returns a frame reader.
// The request is canceled at test cleanup, so a hung read fails the test
// instead of wedging the suite.
func openStream(t *testing.T, base, name string, from, epoch uint64) *bufio.Reader {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	u := base + "/graphs/" + name + "/wal?from=" + strconv.FormatUint(from, 10) +
		"&epoch=" + strconv.FormatUint(epoch, 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		t.Fatalf("stream open: %s", resp.Status)
	}
	t.Cleanup(func() { cancel(); resp.Body.Close() })
	return bufio.NewReader(resp.Body)
}

func mustFrame(t *testing.T, br *bufio.Reader) *StreamFrame {
	t.Helper()
	fr, err := ReadStreamFrame(br)
	if err != nil {
		t.Fatalf("ReadStreamFrame: %v", err)
	}
	return fr
}

// nextDataFrame skips commit heartbeats until a data frame arrives.
func nextDataFrame(t *testing.T, br *bufio.Reader) *StreamFrame {
	t.Helper()
	for i := 0; i < 100; i++ {
		fr := mustFrame(t, br)
		if fr.Kind != FrameCommit {
			return fr
		}
	}
	t.Fatal("no data frame within 100 frames")
	return nil
}

// TestWALStreamHistoryTailAndHeartbeat: the stream serves the durable
// history with a commit after each group, heartbeats while idle, and
// forwards a live write as it lands.
func TestWALStreamHistoryTailAndHeartbeat(t *testing.T) {
	e, srv, _ := walServer(t)
	if err := e.Create("g", mkGraph(8, parcc.Edge{U: 0, V: 1})); err != nil {
		t.Fatal(err)
	}
	if err := e.AddEdges("g", []parcc.Edge{{U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveEdges("g", []parcc.Edge{{U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}

	br := openStream(t, srv.URL, "g", 0, 0)
	fr := mustFrame(t, br)
	if fr.Kind != FrameCreate || fr.Seq != 1 || fr.Epoch == 0 || fr.N != 8 || len(fr.Batch) != 1 {
		t.Fatalf("head frame: %+v", fr)
	}
	epoch := fr.Epoch
	wantSeqs := []struct {
		kind byte
		seq  uint64
	}{
		{FrameCommit, 1},
		{FrameAdd, 2},
		{FrameCommit, 2},
		{FrameRemove, 3},
		{FrameCommit, 3},
	}
	for i, want := range wantSeqs {
		fr := mustFrame(t, br)
		if fr.Kind != want.kind || fr.Seq != want.seq {
			t.Fatalf("frame %d: kind=%d seq=%d, want kind=%d seq=%d", i, fr.Kind, fr.Seq, want.kind, want.seq)
		}
		if fr.Kind == FrameCommit && fr.Head != 3 {
			t.Fatalf("frame %d: commit head %d, want 3", i, fr.Head)
		}
	}
	// Idle: the next frame is a heartbeat commit at the current head.
	fr = mustFrame(t, br)
	if fr.Kind != FrameCommit || fr.Seq != 3 || fr.Head != 3 {
		t.Fatalf("heartbeat: %+v", fr)
	}
	// Live write: the tail forwards the group plus its commit.
	if err := e.AddEdges("g", []parcc.Edge{{U: 3, V: 4}}); err != nil {
		t.Fatal(err)
	}
	fr = nextDataFrame(t, br)
	if fr.Kind != FrameAdd || fr.Seq != 4 || len(fr.Batch) != 1 {
		t.Fatalf("tailed write: %+v", fr)
	}
	fr = mustFrame(t, br)
	if fr.Kind != FrameCommit || fr.Seq != 4 || fr.Head != 4 {
		t.Fatalf("tailed commit: %+v", fr)
	}
	if epoch == 0 {
		t.Fatal("epoch never set")
	}
}

// TestWALStreamResumeSkipsApplied: a follower reconnecting with
// from=<applied>&epoch=<known> receives no data frames it already holds —
// just a commit heartbeat, then new groups as they land.  A wrong epoch
// (dropped + re-created graph) gets the full head record instead.
func TestWALStreamResumeSkipsApplied(t *testing.T) {
	e, srv, _ := walServer(t)
	if err := e.Create("g", mkGraph(8)); err != nil {
		t.Fatal(err)
	}
	if err := e.AddEdges("g", []parcc.Edge{{U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	head := mustFrame(t, openStream(t, srv.URL, "g", 0, 0))
	if head.Kind != FrameCreate {
		t.Fatalf("head: %+v", head)
	}

	// Matching epoch, caught up: commit only.
	br := openStream(t, srv.URL, "g", 2, head.Epoch)
	fr := mustFrame(t, br)
	if fr.Kind != FrameCommit || fr.Seq != 2 || fr.Head != 2 {
		t.Fatalf("resume first frame: %+v", fr)
	}
	if err := e.AddEdges("g", []parcc.Edge{{U: 2, V: 3}}); err != nil {
		t.Fatal(err)
	}
	fr = nextDataFrame(t, br)
	if fr.Kind != FrameAdd || fr.Seq != 3 {
		t.Fatalf("resume tailed write: %+v", fr)
	}

	// Epoch mismatch: the full head record streams again.
	br2 := openStream(t, srv.URL, "g", 2, head.Epoch+1)
	fr = mustFrame(t, br2)
	if fr.Kind != FrameCreate || fr.Seq != 1 {
		t.Fatalf("epoch-mismatch first frame: %+v", fr)
	}
}

// TestWALCheckpointCompact: POST-compact the log collapses to a single
// checkpoint record carrying the live state at the current version; the
// stream serves it as the head; recovery replays it; and versions keep
// advancing past it.
func TestWALCheckpointCompact(t *testing.T) {
	e, srv, dir := walServer(t)
	if err := e.Create("g", mkGraph(16, parcc.Edge{U: 0, V: 1})); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := e.AddEdges("g", []parcc.Edge{{U: int32(i), V: int32(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := e.Snapshot("g")
	if err != nil {
		t.Fatal(err)
	}
	st, body := doJSON(t, "POST", srv.URL+"/graphs/g/compact", "")
	if st != 200 || body["compacted"] != true {
		t.Fatalf("compact: %d %v", st, body)
	}

	// On disk: exactly one checkpoint record at the current seq.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("wal dir: %v %d", err, len(entries))
	}
	data, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	rec, next, err := decodeWALFrame(data, 0)
	if err != nil || next != len(data) {
		t.Fatalf("compacted log is not a single record: %v next=%d len=%d", err, next, len(data))
	}
	if rec.Kind != walKindCheckpoint || rec.Seq != want.Version() || rec.N != 16 || len(rec.Batch) != 4 {
		t.Fatalf("checkpoint record: kind=%d seq=%d n=%d m=%d", rec.Kind, rec.Seq, rec.N, len(rec.Batch))
	}

	// The stream now serves the checkpoint as its head record.
	br := openStream(t, srv.URL, "g", 0, 0)
	fr := mustFrame(t, br)
	if fr.Kind != FrameCheckpoint || fr.Seq != want.Version() || len(fr.Batch) != 4 {
		t.Fatalf("stream head after compact: %+v", fr)
	}

	// Writes continue past the checkpoint; recovery replays head + suffix.
	if err := e.AddEdges("g", []parcc.Edge{{U: 10, V: 11}}); err != nil {
		t.Fatal(err)
	}
	after, err := e.Snapshot("g")
	if err != nil {
		t.Fatal(err)
	}
	if after.Version() != want.Version()+1 {
		t.Fatalf("post-compact version %d, want %d", after.Version(), want.Version()+1)
	}
	dir2 := t.TempDir()
	copyWALDir(t, dir, dir2)
	e2 := New(Options{Solver: &parcc.Options{}, WALDir: dir2})
	defer e2.Close()
	if _, err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	sn, err := e2.Snapshot("g")
	if err != nil {
		t.Fatal(err)
	}
	if !graph.SamePartition(after.Labels(), sn.Labels()) {
		t.Fatal("recovered partition differs after compaction")
	}
	if !sn.Connected(10, 11) {
		t.Fatal("post-compact write lost in recovery")
	}
}

// TestWALCheckpointOnCleanShutdown: Close compacts each dirty log to a
// checkpoint, recovery resumes from it, and an untouched recovered log is
// NOT rewritten by the next clean shutdown.
func TestWALCheckpointOnCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	e := New(Options{Solver: &parcc.Options{}, WALDir: dir})
	if err := e.Create("g", mkGraph(8, parcc.Edge{U: 0, V: 1})); err != nil {
		t.Fatal(err)
	}
	if err := e.AddEdges("g", []parcc.Edge{{U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	want, err := e.Snapshot("g")
	if err != nil {
		t.Fatal(err)
	}
	e.Close()

	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("wal dir: %v %d", err, len(entries))
	}
	path := filepath.Join(dir, entries[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, next, err := decodeWALFrame(data, 0)
	if err != nil || next != len(data) || rec.Kind != walKindCheckpoint || rec.Seq != want.Version() {
		t.Fatalf("shutdown checkpoint: err=%v next=%d/%d kind=%d seq=%d", err, next, len(data), rec.Kind, rec.Seq)
	}

	// Recover, read, close without writing: the log must not be rewritten.
	e2 := New(Options{Solver: &parcc.Options{}, WALDir: dir})
	if _, err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	sn, err := e2.Snapshot("g")
	if err != nil {
		t.Fatal(err)
	}
	if !graph.SamePartition(want.Labels(), sn.Labels()) {
		t.Fatal("recovered partition differs from pre-shutdown state")
	}
	e2.Close()
	data2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("idle recovered log was rewritten on clean shutdown")
	}
}

// TestReadyzSplitsFromHealthz: /healthz is pure liveness; /readyz vetoes
// through HandlerOptions.Readiness (the follower's lag check in ccserved).
func TestReadyzSplitsFromHealthz(t *testing.T) {
	var unready atomic.Bool
	e := New(Options{})
	srv := httptest.NewServer(NewHandlerOpts(e, HandlerOptions{Readiness: func() error {
		if unready.Load() {
			return errors.New("replication lagging")
		}
		return nil
	}}))
	t.Cleanup(func() { srv.Close(); e.Close() })

	if st, _ := doJSON(t, "GET", srv.URL+"/healthz", ""); st != 200 {
		t.Fatalf("healthz: %d", st)
	}
	if st, _ := doJSON(t, "GET", srv.URL+"/readyz", ""); st != 200 {
		t.Fatalf("readyz ready: %d", st)
	}
	unready.Store(true)
	st, body := doJSON(t, "GET", srv.URL+"/readyz", "")
	if st != 503 || body["status"] != "unready" || !strings.Contains(body["reason"].(string), "lagging") {
		t.Fatalf("readyz unready: %d %v", st, body)
	}
	if st, _ := doJSON(t, "GET", srv.URL+"/healthz", ""); st != 200 {
		t.Fatalf("healthz while unready: %d", st)
	}
}

// TestMinVersionBoundedStaleness: ?min_version gates reads on snapshot
// freshness — 503 when the snapshot is older, 200 once it satisfies.
func TestMinVersionBoundedStaleness(t *testing.T) {
	e, srv := testServer(t)
	if err := e.Create("g", mkGraph(4, parcc.Edge{U: 0, V: 1})); err != nil {
		t.Fatal(err)
	}
	if st, _ := doJSON(t, "GET", srv.URL+"/graphs/g/count?min_version=1", ""); st != 200 {
		t.Fatalf("satisfied min_version: %d", st)
	}
	st, body := doJSON(t, "GET", srv.URL+"/graphs/g/count?min_version=9", "")
	if st != 503 || !strings.Contains(body["error"].(string), "min_version") {
		t.Fatalf("stale min_version: %d %v", st, body)
	}
	if st, _ := doJSON(t, "GET", srv.URL+"/graphs/g/connected?u=0&v=1&min_version=9", ""); st != 503 {
		t.Fatalf("stale connected: %d", st)
	}
	if st, _ := doJSON(t, "GET", srv.URL+"/graphs/g/count?min_version=bogus", ""); st != 400 {
		t.Fatalf("bad min_version: %d", st)
	}
}

// TestBodyCap413: mutation bodies beyond MaxBodyBytes fail with 413, not
// an unbounded read.
func TestBodyCap413(t *testing.T) {
	e := New(Options{})
	srv := httptest.NewServer(NewHandlerOpts(e, HandlerOptions{MaxBodyBytes: 256}))
	t.Cleanup(func() { srv.Close(); e.Close() })

	big := `{"n":4,"edges":[` + strings.Repeat("[0,1],", 200) + `[0,1]]}`
	st, _ := doJSON(t, "PUT", srv.URL+"/graphs/g", big)
	if st != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized create: %d, want 413", st)
	}
	if st, _ := doJSON(t, "PUT", srv.URL+"/graphs/g", `{"n":4,"edges":[[0,1]]}`); st != http.StatusCreated {
		t.Fatalf("small create: %d", st)
	}
	if st, _ := doJSON(t, "POST", srv.URL+"/graphs/g/edges", big); st != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized add: %d, want 413", st)
	}
}

// TestReadOnlyReplicaRejectsWrites: a follower engine answers every
// mutation with 409 and the primary's URL; reads on installed replicas
// still serve.
func TestReadOnlyReplicaRejectsWrites(t *testing.T) {
	e := New(Options{ReadOnly: true, Primary: "http://primary:8080"})
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(func() { srv.Close(); e.Close() })

	st, body := doJSON(t, "PUT", srv.URL+"/graphs/g", `{"n":4}`)
	if st != http.StatusConflict || body["primary"] != "http://primary:8080" {
		t.Fatalf("read-only create: %d %v", st, body)
	}
	if st, _ := doJSON(t, "POST", srv.URL+"/graphs/g/edges", `{"edges":[[0,1]]}`); st != http.StatusConflict {
		t.Fatalf("read-only add: %d", st)
	}
	if st, _ := doJSON(t, "DELETE", srv.URL+"/graphs/g", ""); st != http.StatusConflict {
		t.Fatalf("read-only drop: %d", st)
	}
	if !errors.Is(e.Compact("g"), parcc.ErrReadOnlyReplica) {
		t.Fatal("read-only compact: want ErrReadOnlyReplica")
	}

	// Install a replica the way the replication layer does and read it.
	head := []StreamFrame{{Kind: FrameCreate, Seq: 1, N: 4, Batch: []parcc.Edge{{U: 0, V: 1}}}}
	if err := e.ApplyReplicaGroup("g", head); err != nil {
		t.Fatal(err)
	}
	st, body = doJSON(t, "GET", srv.URL+"/graphs/g/connected?u=0&v=1", "")
	if st != 200 || body["connected"] != true {
		t.Fatalf("replica read: %d %v", st, body)
	}
}

// TestReplicaApplyTracksPrimary: a read-only engine fed a primary's
// stream group by group through ApplyReplicaGroup publishes every group at
// its seq with the primary's partition at that version — through a
// compaction's checkpoint reset too — while concurrent readers only ever
// see such versions; its counters and publish histogram follow the
// groups, the reset carrying the /stats counts on, and malformed or
// rejected groups publish nothing.
func TestReplicaApplyTracksPrimary(t *testing.T) {
	e, srv, _ := walServer(t)
	if err := e.ApplyReplicaGroup("g", []StreamFrame{{Kind: FrameCreate, Seq: 1, N: 4}}); err == nil {
		t.Fatal("a writable engine accepted a replica group")
	}
	if err := e.Create("g", mkGraph(16, parcc.Edge{U: 0, V: 1}, parcc.Edge{U: 2, V: 3})); err != nil {
		t.Fatal(err)
	}
	var history sync.Map // version -> the primary's labels
	record := func() uint64 {
		sn, err := e.Snapshot("g")
		if err != nil {
			t.Fatal(err)
		}
		history.Store(sn.Version(), sn.Labels())
		return sn.Version()
	}

	fe := New(Options{ReadOnly: true})
	t.Cleanup(fe.Close)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn, err := fe.Snapshot("g")
				if err != nil {
					continue
				}
				want, ok := history.Load(sn.Version())
				if !ok || !graph.SamePartition(want.([]int32), sn.Labels()) {
					t.Errorf("replica served version %d off the primary's history", sn.Version())
					return
				}
			}
		}()
	}

	// This reader never passes the epoch back, so after the compaction's
	// file swap the stream serves the checkpoint record as a reset.
	br := openStream(t, srv.URL, "g", 0, 0)
	var group []StreamFrame
	groups, resets, frames := 0, 0, 0
	follow := func(until uint64) {
		t.Helper()
		for applied := uint64(0); applied < until; {
			fr := mustFrame(t, br)
			if fr.Kind != FrameCommit {
				group = append(group, *fr)
				continue
			}
			if len(group) == 0 {
				continue
			}
			if err := fe.ApplyReplicaGroup("g", group); err != nil {
				t.Fatalf("group at seq %d: %v", group[0].Seq, err)
			}
			applied = group[0].Seq
			sn, err := fe.Snapshot("g")
			if err != nil || sn.Version() != applied {
				t.Fatalf("after the group at seq %d: %v %v", applied, sn, err)
			}
			if want, _ := history.Load(applied); !graph.SamePartition(want.([]int32), sn.Labels()) {
				t.Fatalf("replica partition at version %d differs from the primary's", applied)
			}
			groups++
			if k := group[0].Kind; k == FrameCreate || k == FrameCheckpoint {
				resets++
			} else {
				frames += len(group)
			}
			group = nil
		}
	}
	follow(record())
	for i := 0; i < 12; i++ {
		var err error
		if i%3 == 2 {
			err = e.RemoveEdges("g", []parcc.Edge{{U: int32(i), V: int32(i + 1)}})
		} else {
			err = e.AddEdges("g", []parcc.Edge{{U: int32(i), V: int32(i + 1)}, {U: int32(i + 1), V: int32(i + 2)}})
		}
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		follow(record())
	}
	before := fe.Stats()[0]
	if err := e.Compact("g"); err != nil {
		t.Fatal(err)
	}
	follow(record())
	if after := fe.Stats()[0]; after.Reads < before.Reads || after.Writes != before.Writes || after.Applies != before.Applies {
		t.Fatalf("replica stats %+v after the checkpoint reset, want the counts carried on from %+v", after, before)
	}
	if err := e.AddEdges("g", []parcc.Edge{{U: 14, V: 15}}); err != nil {
		t.Fatal(err)
	}
	final := record()
	follow(final)
	close(stop)
	readers.Wait()
	if resets != 2 {
		t.Fatalf("resets = %d, want the create and the checkpoint", resets)
	}
	st, want := fe.Stats()[0], e.Stats()[0]
	if st.Edges != want.Edges || st.Applies != uint64(frames) || st.Writes != uint64(groups-resets) {
		t.Fatalf("replica stats %+v, want edges %d, applies %d and writes %d", st, want.Edges, frames, groups-resets)
	}
	var page bytes.Buffer
	fe.WriteMetrics(&page)
	if line := "parcc_snapshot_publish_seconds_count " + strconv.Itoa(groups); !strings.Contains(page.String(), line) {
		t.Fatalf("/metrics lacks %q after %d groups", line, groups)
	}

	rejected := [][]StreamFrame{
		{{Kind: FrameRemove, Seq: final + 1, Batch: []parcc.Edge{{U: 7, V: 9}}}},           // no such edge
		{{Kind: FrameAdd, Seq: final + 1, Batch: []parcc.Edge{{U: 0, V: 16}}}},             // out of range
		{{Kind: FrameAdd, Seq: final + 1}, {Kind: FrameCreate, Seq: final + 1, N: 16}},     // head mid-group
		{{Kind: FrameAdd, Seq: final + 1}, {Kind: FrameAdd, Seq: final + 2}},               // two seqs
		{{Kind: FrameCheckpoint, Seq: final + 1, N: 4, Batch: []parcc.Edge{{U: 0, V: 4}}}}, // bad head
	}
	for i, grp := range rejected {
		if err := fe.ApplyReplicaGroup("g", grp); err == nil {
			t.Fatalf("rejected group %d was accepted", i)
		}
		if sn, _ := fe.Snapshot("g"); sn.Version() != final {
			t.Fatalf("rejected group %d published version %d", i, sn.Version())
		}
	}
	if err := fe.ApplyReplicaGroup("h", []StreamFrame{{Kind: FrameAdd, Seq: 2}}); !errors.Is(err, ErrGraphNotFound) {
		t.Fatalf("group for an unknown replica: %v", err)
	}
	if err := fe.DropReplica("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := fe.Snapshot("g"); !errors.Is(err, ErrGraphNotFound) {
		t.Fatalf("dropped replica still served: %v", err)
	}
}

// TestCompactEndpointWithoutWAL: compaction without a log is a 409 (the
// operation cannot mean anything), not a 500.
func TestCompactEndpointWithoutWAL(t *testing.T) {
	e, srv := testServer(t)
	if err := e.Create("g", mkGraph(4)); err != nil {
		t.Fatal(err)
	}
	if st, _ := doJSON(t, "POST", srv.URL+"/graphs/g/compact", ""); st != http.StatusConflict {
		t.Fatalf("compact without WAL: %d, want 409", st)
	}
	if st, _ := doJSON(t, "POST", srv.URL+"/graphs/none/compact", ""); st != http.StatusNotFound {
		t.Fatalf("compact unknown graph: %d, want 404", st)
	}
}

// mkGraph builds a small graph literal.
func mkGraph(n int, edges ...parcc.Edge) *parcc.Graph {
	g := parcc.NewGraph(n)
	g.Edges = append(g.Edges, edges...)
	return g
}

// copyWALDir clones every log file (recovery must see the same images).
func copyWALDir(t *testing.T, from, to string) {
	t.Helper()
	if err := copyDir(from, to); err != nil {
		t.Fatal(err)
	}
}

// TestReadStreamFrameBoundsAllocation: a frame's length field is untrusted
// until its CRC checks, so a header declaring the largest legal frame,
// followed by a few body bytes and EOF, must fail as a torn frame with an
// allocation that tracks the bytes received, not the 1 GiB declared.
func TestReadStreamFrameBoundsAllocation(t *testing.T) {
	in := make([]byte, walHeaderLen+16)
	binary.LittleEndian.PutUint32(in, walMaxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadStreamFrame(bufio.NewReader(bytes.NewReader(in)))
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 4<<20 {
		t.Fatalf("reading a truncated %d-byte frame allocated %d bytes, want < 4 MiB", walMaxFrame, d)
	}
}
