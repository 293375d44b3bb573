package service

import (
	"bufio"
	"errors"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"parcc"
	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
)

// TestWALFailedAppendIsNeverPublished: a group whose append fails is never
// published, so no reader sees a version that recovery gives a different
// partition — neither after a kill -9 nor after a clean shutdown, which
// must not checkpoint the write the log refused.
func TestWALFailedAppendIsNeverPublished(t *testing.T) {
	dir, killed := t.TempDir(), t.TempDir()
	e := New(Options{Solver: &parcc.Options{}, WALDir: dir})
	defer e.Close()
	if err := e.Create("g", mkGraph(4)); err != nil {
		t.Fatal(err)
	}
	if err := e.AddEdges("g", []parcc.Edge{{U: 2, V: 3}}); err != nil {
		t.Fatal(err)
	}
	sh, err := e.lookup("g")
	if err != nil {
		t.Fatal(err)
	}
	sh.wal.Load().f.Close() // every later append fails with EBADF
	if err := e.AddEdges("g", []parcc.Edge{{U: 0, V: 1}}); err == nil {
		t.Fatal("an append on a closed log handle succeeded")
	}
	seen, err := e.Snapshot("g")
	if err != nil {
		t.Fatal(err)
	}
	copyWALDir(t, dir, killed) // the log as a kill -9 now would leave it
	e.Close()
	for _, at := range []struct{ what, dir string }{{"kill -9", killed}, {"clean shutdown", dir}} {
		r := New(Options{Solver: &parcc.Options{}, WALDir: at.dir})
		if _, err := r.Recover(); err != nil {
			t.Fatalf("recover after a %s: %v", at.what, err)
		}
		sn, err := r.Snapshot("g")
		if err != nil {
			t.Fatal(err)
		}
		if seen.Version() > sn.Version() || seen.Version() == sn.Version() && !graph.SamePartition(seen.Labels(), sn.Labels()) {
			t.Errorf("after a %s: a reader saw version %d with (0,1) connected=%v; recovery gives version %d with (0,1) connected=%v",
				at.what, seen.Version(), seen.Connected(0, 1), sn.Version(), sn.Connected(0, 1))
		}
		if sn.Connected(0, 1) {
			t.Errorf("after a %s the refused write (0,1) came back at version %d", at.what, sn.Version())
		}
		r.Close()
	}
}

// injector fails one file operation of the write-ahead log once armed,
// and copies the log directory at that instant: the image a kill -9 at
// the fault would leave.  Operations: "write" (ENOSPC, nothing written),
// "short" (ENOSPC after half the bytes), "sync" (EIO), each on the log
// or, prefixed "tmp ", on the checkpoint's temp file; "rename" and
// "syncdir" (EIO) on the checkpoint's rename and the directory sync after
// it.
type injector struct {
	op     string
	armed  atomic.Bool
	dir    string
	copyTo string
	during func() // runs at the fault, before the copy
	// copyErr is set on the failing goroutine before its caller is
	// answered, so the caller's goroutine reads it after the reply.
	copyErr error
}

// fire reports whether op is the armed fault, disarming it.
func (in *injector) fire(op string) bool {
	return op == in.op && in.armed.CompareAndSwap(true, false)
}

// fault runs the during hook and copies the directory.
func (in *injector) fault() {
	if in.during != nil {
		in.during()
	}
	in.copyErr = copyDir(in.dir, in.copyTo)
}

// install routes the log's file operations through in until the test
// ends.
func (in *injector) install(t *testing.T) {
	open, rename, sync := walOpen, walRename, syncDir
	t.Cleanup(func() { walOpen, walRename, syncDir = open, rename, sync })
	walOpen = func(path string, flag int) (walFile, error) {
		f, err := open(path, flag)
		if err != nil {
			return nil, err
		}
		return &faultFile{walFile: f, in: in, tmp: strings.HasSuffix(path, ".tmp")}, nil
	}
	walRename = func(from, to string) error {
		if in.fire("rename") {
			in.fault()
			return syscall.EIO
		}
		return rename(from, to)
	}
	syncDir = func(dir string) error {
		if in.fire("syncdir") {
			in.fault()
			return syscall.EIO
		}
		return sync(dir)
	}
}

// faultFile is a log or checkpoint temp file whose Write and Sync fail
// when its injector says so.
type faultFile struct {
	walFile
	in  *injector
	tmp bool
}

func (f *faultFile) op(name string) string {
	if f.tmp {
		return "tmp " + name
	}
	return name
}

func (f *faultFile) Write(p []byte) (int, error) {
	n := 0
	switch {
	case f.in.fire(f.op("write")):
	case f.in.fire(f.op("short")):
		n, _ = f.walFile.Write(p[:len(p)/2])
	default:
		return f.walFile.Write(p)
	}
	f.in.fault()
	return n, syscall.ENOSPC
}

func (f *faultFile) Sync() error {
	if f.in.fire(f.op("sync")) {
		f.in.fault()
		return syscall.EIO
	}
	return f.walFile.Sync()
}

// copyDir copies every regular file of from into to.
func copyDir(from, to string) error {
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(from, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// readLog records, from a goroutine polling the engine, the partition of
// every snapshot version a reader saw; halt hands it over.
type readLog struct {
	seen map[uint64][]int32
	stop chan struct{}
	done chan struct{}
}

func watchReads(e *Engine, name string) *readLog {
	rl := &readLog{seen: map[uint64][]int32{}, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(rl.done)
		for {
			select {
			case <-rl.stop:
				return
			default:
			}
			if sn, err := e.Snapshot(name); err == nil && rl.seen[sn.Version()] == nil {
				rl.seen[sn.Version()] = sn.Labels()
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	return rl
}

func (rl *readLog) halt() map[uint64][]int32 {
	close(rl.stop)
	<-rl.done
	return rl.seen
}

// streamLog records every frame a replication stream delivers.
type streamLog struct {
	mu     sync.Mutex
	frames []*StreamFrame
}

func tailStream(br *bufio.Reader) *streamLog {
	sl := &streamLog{}
	go func() {
		for {
			fr, err := ReadStreamFrame(br)
			if err != nil {
				return
			}
			sl.mu.Lock()
			sl.frames = append(sl.frames, fr)
			sl.mu.Unlock()
		}
	}()
	return sl
}

func (sl *streamLog) snapshot() []*StreamFrame {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return append([]*StreamFrame(nil), sl.frames...)
}

// waitCommit waits until the stream has delivered, at index from or
// later, a commit of seq or past it, and returns the frames so far.
func (sl *streamLog) waitCommit(t *testing.T, seq uint64, from int) []*StreamFrame {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		frames := sl.snapshot()
		for _, fr := range frames[min(from, len(frames)):] {
			if fr.Kind == FrameCommit && fr.Seq >= seq {
				return frames
			}
		}
	}
	t.Fatalf("stream never committed seq %d at frame %d or later", seq, from)
	return nil
}

// TestWALFaultMatrix injects one disk fault per case into a WAL-backed
// shard — on an append, on a checkpoint, or on a Create's birth record —
// while a reader polls its snapshots and a replication stream tails its
// log, and holds the fail-stop contract:
//
//	(a) no caller gets nil for a group that is not durable: the failing
//	    callers and every later writer get ErrShardFailed;
//	(b) every version a reader saw is at most the version recovery gives
//	    on a copy of the log taken at the fault, and equals the oracle at
//	    that version;
//	(c) recovery succeeds on that copy and after a clean Close of the
//	    failed engine, and both give the same partition;
//	(d) the stream delivers no frame of the failed group, and after the
//	    restart a stream resumed from its last applied seq continues with
//	    the same epoch: no head record after an append fault, at most one
//	    after a checkpoint fault.
func TestWALFaultMatrix(t *testing.T) {
	for _, tc := range []struct {
		name, op, at string
		cause        error
	}{
		{"ENOSPC on append", "write", "append", syscall.ENOSPC},
		{"short write on append", "short", "append", syscall.ENOSPC},
		{"EIO on append fsync", "sync", "append", syscall.EIO},
		{"checkpoint temp-file write", "tmp write", "checkpoint", syscall.ENOSPC},
		{"checkpoint temp-file fsync", "tmp sync", "checkpoint", syscall.EIO},
		{"checkpoint rename", "rename", "checkpoint", syscall.EIO},
		{"directory sync after rename", "syncdir", "checkpoint", syscall.EIO},
		{"birth record fsync", "sync", "create", syscall.EIO},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, atFault := t.TempDir(), t.TempDir()
			in := &injector{op: tc.op, dir: dir, copyTo: atFault}
			in.install(t)
			opt := Options{Solver: &parcc.Options{Seed: 7}, WALDir: dir}
			e := New(opt)
			srv := httptest.NewServer(NewHandlerOpts(e, HandlerOptions{StreamHeartbeat: 10 * time.Millisecond}))
			t.Cleanup(func() { srv.Close(); e.Close() })
			failed := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, ErrShardFailed) || !errors.Is(err, tc.cause) {
					t.Errorf("%s: got %v, want ErrShardFailed wrapping %v", what, err, tc.cause)
				}
			}
			recoverAt := func(dir string) *Engine {
				t.Helper()
				r := New(Options{Solver: opt.Solver, WALDir: dir})
				t.Cleanup(r.Close)
				if _, err := r.Recover(); err != nil {
					t.Fatalf("recover %s: %v", dir, err)
				}
				return r
			}
			g0 := gen.GNM(48, 40, 3)
			if tc.at == "create" {
				faultCreate(t, e, in, g0, failed, recoverAt)
				return
			}

			oracle := baseline.NewIncOracle(g0.Clone())
			if err := e.Create("g", g0); err != nil {
				t.Fatal(err)
			}
			want := map[uint64][]int32{1: oracle.Labels()}
			stream := tailStream(openStream(t, srv.URL, "g", 0, 0))
			reads := watchReads(e, "g")
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			last := uint64(1)
			for ; last < 7; last++ {
				batch, remove := randomBatch(rng, oracle.Graph())
				if err := mutateBoth(e, oracle, remove, batch); err != nil {
					t.Fatal(err)
				}
				want[last+1] = oracle.Labels()
				if last == 4 {
					if err := e.Compact("g"); err != nil {
						t.Fatal(err)
					}
				}
			}
			before := len(stream.waitCommit(t, last, 0))

			// The fault: a group of concurrent callers, or a compaction.
			in.armed.Store(true)
			if tc.at == "append" {
				var wg sync.WaitGroup
				errs := make([]error, 4)
				for i := range errs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[i] = e.AddEdges("g", []parcc.Edge{{U: int32(i), V: int32(47 - i)}})
					}()
				}
				wg.Wait()
				for _, err := range errs {
					failed("caller of the failing group", err)
				}
			} else {
				failed("failing compaction", e.Compact("g"))
			}
			if in.armed.Load() || in.copyErr != nil {
				t.Fatalf("fault never fired, or the copy failed: %v", in.copyErr)
			}
			live := oracle.Graph().Edges
			failed("later add", e.AddEdges("g", []parcc.Edge{{U: 5, V: 6}}))
			failed("later remove", e.RemoveEdges("g", live[:1]))
			failed("later compaction", e.Compact("g"))
			if st, body := doJSON(t, "POST", srv.URL+"/graphs/g/edges", `{"edges":[[1,2]]}`); st != 503 {
				t.Errorf("HTTP write to a failed shard: %d %v", st, body)
			}
			st, body := doJSON(t, "GET", srv.URL+"/readyz", "")
			if reason, _ := body["reason"].(string); st != 503 || body["status"] != "failed" ||
				!strings.Contains(reason, `"g"`) || !strings.Contains(reason, tc.cause.Error()) {
				t.Errorf("readyz on a failed shard: %d %v", st, body)
			}
			if stats := e.Stats(); len(stats) != 1 || !strings.Contains(stats[0].Failed, tc.cause.Error()) ||
				stats[0].Edges != int64(oracle.Graph().M()) {
				t.Errorf("stats do not say why the shard stopped, or count edges it never published: %+v, want %d edges",
					stats, oracle.Graph().M())
			}
			if got := e.walErrs.Load(); got != 1 {
				t.Errorf("parcc_wal_errors_total %d, want 1", got)
			}
			// Reads keep serving the last published, durable snapshot.
			sn, err := e.Snapshot("g")
			if err != nil || sn.Version() != last || !graph.SamePartition(want[last], sn.Labels()) {
				t.Fatalf("read on the failed shard: %v, want version %d at the oracle", err, last)
			}
			seen := reads.halt()

			// (d), live half: nothing but commits after the fault, over a
			// few heartbeats.
			frames := stream.waitCommit(t, last, before+2)
			var applied, epoch uint64
			for i, fr := range frames {
				if fr.Kind == FrameCommit {
					if fr.Seq > last {
						t.Errorf("stream committed seq %d past the last durable %d", fr.Seq, last)
					}
					applied = max(applied, fr.Seq)
					continue
				}
				if i >= before {
					t.Errorf("stream delivered a kind %d frame at seq %d after the fault", fr.Kind, fr.Seq)
				}
				if fr.Kind == FrameCreate || fr.Kind == FrameCheckpoint {
					epoch = fr.Epoch
				}
			}

			// (b) and (c).
			rf := recoverAt(atFault)
			snF, err := rf.Snapshot("g")
			if err != nil {
				t.Fatal(err)
			}
			for v, labels := range seen {
				if v > snF.Version() || !graph.SamePartition(want[v], labels) {
					t.Errorf("a reader saw version %d, recovery at the fault gives %d; oracle match %v",
						v, snF.Version(), graph.SamePartition(want[v], labels))
				}
			}
			// The copy may hold the failed group whole (its fsync failed,
			// its write did not): recovery then exposes it, at last+2.
			img, err := os.ReadFile(walPath(atFault, "g"))
			if err != nil {
				t.Fatal(err)
			}
			recs, _, _ := decodeWAL(img)
			tail := baseline.NewIncOracle(oracle.Graph().Clone())
			for _, rec := range recs {
				if rec.Seq > last && rec.Kind == FrameAdd {
					tail.AddEdges(rec.Batch)
				}
			}
			if !graph.SamePartition(tail.Labels(), snF.Labels()) || snF.Version() != recs[len(recs)-1].Seq+1 {
				t.Errorf("recovery at the fault: version %d, partition at the oracle %v", snF.Version(), graph.SamePartition(tail.Labels(), snF.Labels()))
			}
			rf.Close()
			e.Close()
			rc := recoverAt(dir)
			snC, err := rc.Snapshot("g")
			if err != nil {
				t.Fatal(err)
			}
			if snC.Version() != snF.Version() || !graph.SamePartition(snF.Labels(), snC.Labels()) {
				t.Errorf("recovery after a clean close (version %d) differs from recovery at the fault (version %d)", snC.Version(), snF.Version())
			}

			// (d), restart half.
			srv2 := httptest.NewServer(NewHandlerOpts(rc, HandlerOptions{StreamHeartbeat: 10 * time.Millisecond}))
			t.Cleanup(srv2.Close)
			br := openStream(t, srv2.URL, "g", applied, epoch)
			heads := 0
			for i := 0; ; i++ {
				if i == 1000 {
					t.Fatal("resumed stream never caught up")
				}
				fr := mustFrame(t, br)
				if fr.Kind == FrameCommit {
					if fr.Seq >= fr.Head {
						break
					}
					continue
				}
				if fr.Kind == FrameCreate || fr.Kind == FrameCheckpoint {
					heads++
					if fr.Epoch != epoch {
						t.Errorf("resumed stream changed epoch %d -> %d", epoch, fr.Epoch)
					}
				} else if fr.Seq <= applied {
					t.Errorf("resumed stream re-sent seq %d at or below %d", fr.Seq, applied)
				}
			}
			if maxHeads := map[string]int{"append": 0, "checkpoint": 1}[tc.at]; heads > maxHeads {
				t.Errorf("resumed stream sent %d head records, want at most %d", heads, maxHeads)
			}
		})
	}
}

// faultCreate fails a Create's birth record with a mutation queued behind
// it and a reader polling: the graph must never be readable, the Create
// and the queued mutation fail stop, and both recoveries agree.
func faultCreate(t *testing.T, e *Engine, in *injector, g0 *parcc.Graph,
	failed func(string, error), recoverAt func(string) *Engine) {
	queued := make(chan error, 1)
	in.during = func() {
		if _, err := e.Snapshot("g"); !errors.Is(err, ErrGraphNotFound) {
			t.Errorf("graph readable before its birth record is durable: %v", err)
		}
		sh, err := e.lookup("g")
		if err != nil {
			t.Errorf("lookup during the birth record: %v", err)
			queued <- nil
			return
		}
		go func() { queued <- e.AddEdges("g", []parcc.Edge{{U: 0, V: 1}}) }()
		for deadline := time.Now().Add(5 * time.Second); len(sh.reqs) == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	reads := watchReads(e, "g")
	in.armed.Store(true)
	failed("Create", e.Create("g", g0))
	failed("mutation queued behind the birth record", <-queued)
	if seen := reads.halt(); len(seen) != 0 {
		t.Errorf("a reader saw versions of a graph whose Create failed: %d", len(seen))
	}
	if in.armed.Load() || in.copyErr != nil {
		t.Fatalf("fault never fired, or the copy failed: %v", in.copyErr)
	}
	if err := e.AddEdges("g", []parcc.Edge{{U: 0, V: 1}}); !errors.Is(err, ErrGraphNotFound) {
		t.Errorf("write after the failed Create: %v, want ErrGraphNotFound", err)
	}
	e.Close()
	var labels [][]int32
	for _, dir := range []string{in.copyTo, in.dir} {
		sn, err := recoverAt(dir).Snapshot("g")
		switch {
		case err == nil:
			labels = append(labels, sn.Labels())
		case errors.Is(err, ErrGraphNotFound):
			labels = append(labels, nil)
		default:
			t.Fatal(err)
		}
	}
	if (labels[0] == nil) != (labels[1] == nil) || labels[0] != nil && !graph.SamePartition(labels[0], labels[1]) {
		t.Errorf("recovery at the fault and after a clean close disagree on the failed graph")
	}
}

// randomBatch draws an add of 1–3 random edges, or a remove of 1–2 live
// ones.
func randomBatch(rng *rand.Rand, live *graph.Graph) ([]parcc.Edge, bool) {
	if rng.Intn(3) > 0 || live.M() < 2 {
		batch := make([]parcc.Edge, 1+rng.Intn(3))
		for i := range batch {
			batch[i] = parcc.Edge{U: int32(rng.Intn(live.N)), V: int32(rng.Intn(live.N))}
		}
		return batch, false
	}
	idx := rng.Perm(live.M())[:1+rng.Intn(2)]
	batch := make([]parcc.Edge, len(idx))
	for i, j := range idx {
		batch[i] = live.Edges[j]
	}
	return batch, true
}

// mutateBoth applies one batch to the engine and then to the oracle.
func mutateBoth(e *Engine, oracle *baseline.IncOracle, remove bool, batch []parcc.Edge) error {
	if remove {
		if err := e.RemoveEdges("g", batch); err != nil {
			return err
		}
		return oracle.RemoveEdges(batch)
	}
	if err := e.AddEdges("g", batch); err != nil {
		return err
	}
	return oracle.AddEdges(batch)
}
