package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"parcc"
	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
)

// walStream is a recorded op stream against a WAL-backed engine: the
// per-batch oracle label history (history[i] is the partition after batch
// i; history[0] is the initial state) and the log's frame boundaries.
type walStream struct {
	name       string
	file       string // log file name (not path)
	data       []byte
	boundaries []int // boundaries[r] = byte offset just past record r-1 (boundaries[0] = 0)
	history    [][]int32
}

// buildWALStream drives a randomized add/remove stream through a
// WAL-enabled engine, one acked batch at a time (sequential callers, so
// records map 1:1 to oracle positions), and returns the log image plus
// the oracle history.
func buildWALStream(t *testing.T, backend parcc.Backend, batches int, seed int64) *walStream {
	t.Helper()
	dir := t.TempDir()
	eng := New(Options{
		Solver: &parcc.Options{Backend: backend, Procs: 3, Seed: 7},
		WALDir: dir,
	})
	defer eng.Close()

	rng := rand.New(rand.NewSource(seed))
	g0 := gen.GNM(96, 150, uint64(seed))
	oracle := baseline.NewIncOracle(g0)
	name := "crash/test graph" // exercises the name escaping too
	if err := eng.Create(name, g0.Clone()); err != nil {
		t.Fatal(err)
	}
	st := &walStream{name: name}
	snap := func() []int32 {
		labels := oracle.Labels()
		return append([]int32(nil), labels...)
	}
	st.history = append(st.history, snap())
	for b := 0; b < batches; b++ {
		live := oracle.Graph()
		if rng.Intn(10) < 6 || live.M() == 0 {
			k := 1 + rng.Intn(5)
			batch := make([]parcc.Edge, k)
			for i := range batch {
				batch[i] = parcc.Edge{U: int32(rng.Intn(live.N)), V: int32(rng.Intn(live.N))}
			}
			if err := eng.AddEdges(name, batch); err != nil {
				t.Fatalf("batch %d: AddEdges: %v", b, err)
			}
			if err := oracle.AddEdges(batch); err != nil {
				t.Fatal(err)
			}
		} else {
			k := 1 + rng.Intn(4)
			if k > live.M() {
				k = live.M()
			}
			idx := rng.Perm(live.M())[:k]
			batch := make([]parcc.Edge, 0, k)
			for _, i := range idx {
				batch = append(batch, live.Edges[i])
			}
			if err := eng.RemoveEdges(name, batch); err != nil {
				t.Fatalf("batch %d: RemoveEdges: %v", b, err)
			}
			if err := oracle.RemoveEdges(batch); err != nil {
				t.Fatal(err)
			}
		}
		st.history = append(st.history, snap())
	}
	// Capture the log image BEFORE the graceful Close: every acked batch is
	// already durable (fsync per group), and Close would compact the log to
	// a single checkpoint record — these tests want the full history.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("want 1 wal file, got %d", len(entries))
	}
	st.file = entries[0].Name()
	st.data, err = os.ReadFile(filepath.Join(dir, st.file))
	if err != nil {
		t.Fatal(err)
	}
	st.boundaries = []int{0}
	off := 0
	for off < len(st.data) {
		_, next, err := decodeWALFrame(st.data, off)
		if err != nil {
			t.Fatalf("clean log fails to decode at %d: %v", off, err)
		}
		off = next
		st.boundaries = append(st.boundaries, off)
	}
	if got, want := len(st.boundaries)-1, batches+1; got != want {
		t.Fatalf("log holds %d records, want %d (create + %d batches)", got, want, batches)
	}
	return st
}

// recoverPrefix writes a truncated copy of the stream's log and recovers
// an engine from it, returning the engine (caller closes).
func recoverPrefix(t *testing.T, st *walStream, backend parcc.Backend, cut int) *Engine {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, st.file), st.data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	eng := New(Options{
		Solver: &parcc.Options{Backend: backend, Procs: 3, Seed: 7},
		WALDir: dir,
	})
	if _, err := eng.Recover(); err != nil {
		t.Fatalf("recover at cut %d: %v", cut, err)
	}
	return eng
}

// checkRecovered asserts the recovered partition equals the oracle at
// stream position pos (records = pos+1: create + pos batches).
func checkRecovered(t *testing.T, eng *Engine, st *walStream, pos int) {
	t.Helper()
	sn, err := eng.Snapshot(st.name)
	if err != nil {
		t.Fatalf("pos %d: %v", pos, err)
	}
	want := st.history[pos]
	if !graph.SamePartition(want, sn.Labels()) {
		t.Fatalf("pos %d: recovered partition differs from oracle", pos)
	}
	if wantN := graph.NumLabels(want); sn.NumComponents() != wantN {
		t.Fatalf("pos %d: count %d, want %d", pos, sn.NumComponents(), wantN)
	}
	// The recovery publish resumes the version lockstep past every
	// pre-crash publish: create = version 1, batch i = version i+1, so a
	// log of pos+1 records recovers at version pos+2.
	if got, want := sn.Version(), uint64(pos+2); got != want {
		t.Fatalf("pos %d: version %d, want %d", pos, got, want)
	}
	// Spot-check sizes against the labels.
	counts := map[int32]int{}
	labels := sn.Labels()
	for _, l := range labels {
		counts[l]++
	}
	for v := 0; v < len(labels); v += 7 {
		if got, want := sn.ComponentSize(v), counts[labels[v]]; got != want {
			t.Fatalf("pos %d: ComponentSize(%d) = %d, want %d", pos, v, got, want)
		}
	}
}

// TestWALCrashPoints is the crash-point property satellite: the log is
// truncated at EVERY record boundary — and mid-record, for the torn-tail
// path — and each truncation must recover to exactly the oracle's
// partition at that stream position, on both backends.
func TestWALCrashPoints(t *testing.T) {
	const batches = 14
	for _, backend := range []parcc.Backend{parcc.BackendSequential, parcc.BackendConcurrent} {
		t.Run(string(backend), func(t *testing.T) {
			st := buildWALStream(t, backend, batches, 42+int64(len(backend)))
			for r := 0; r < len(st.boundaries); r++ {
				cut := st.boundaries[r]
				eng := recoverPrefix(t, st, backend, cut)
				if r == 0 {
					// No durable records: the graph never existed.
					if _, err := eng.Snapshot(st.name); !errors.Is(err, ErrGraphNotFound) {
						t.Fatalf("empty log: want ErrGraphNotFound, got %v", err)
					}
				} else {
					checkRecovered(t, eng, st, r-1)
				}
				eng.Close()

				// Mid-record cut: a torn tail of the next record must
				// recover to the same boundary.
				if r < len(st.boundaries)-1 {
					torn := recoverPrefix(t, st, backend, cut+3)
					if r == 0 {
						if _, err := torn.Snapshot(st.name); !errors.Is(err, ErrGraphNotFound) {
							t.Fatalf("torn-at-birth log: want ErrGraphNotFound, got %v", err)
						}
					} else {
						checkRecovered(t, torn, st, r-1)
					}
					torn.Close()
				}
			}
		})
	}
}

// TestWALRecoveredShardKeepsServing: a recovered shard accepts writes,
// stamps them past every pre-crash version, and survives a SECOND
// recovery — the log seam between the replayed prefix and the appended
// suffix must be invisible.
func TestWALRecoveredShardKeepsServing(t *testing.T) {
	const batches = 6
	st := buildWALStream(t, parcc.BackendSequential, batches, 99)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, st.file), st.data, 0o644); err != nil {
		t.Fatal(err)
	}
	opt := Options{Solver: &parcc.Options{Backend: parcc.BackendSequential, Seed: 7}, WALDir: dir}
	eng := New(opt)
	if _, err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, eng, st, batches)
	// One more write through the recovered shard.
	if err := eng.AddEdges(st.name, []parcc.Edge{{U: 0, V: 95}, {U: 1, V: 94}}); err != nil {
		t.Fatal(err)
	}
	sn, err := eng.Snapshot(st.name)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sn.Version(), uint64(batches+3); got != want {
		t.Fatalf("post-recovery write: version %d, want %d", got, want)
	}
	if !sn.Connected(0, 95) {
		t.Fatal("post-recovery write not visible")
	}
	eng.Close()

	// Crash again, recover again: the appended record must replay.
	eng2 := New(opt)
	if _, err := eng2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	sn2, err := eng2.Snapshot(st.name)
	if err != nil {
		t.Fatal(err)
	}
	if !sn2.Connected(0, 95) || !sn2.Connected(1, 94) {
		t.Fatal("second recovery lost the post-recovery write")
	}
	if got := sn2.Version(); got != uint64(batches+4) {
		t.Fatalf("second recovery: version %d, want %d", got, batches+4)
	}
}

// TestWALMidLogCorruptionFailsRecovery: damage anywhere but the tail is
// not recoverable-around — recovery must fail with a typed
// *parcc.WALCorruptionError (Torn=false), never silently skip records.
func TestWALMidLogCorruptionFailsRecovery(t *testing.T) {
	st := buildWALStream(t, parcc.BackendSequential, 6, 7)
	// Flip a payload byte inside the SECOND record (offsets keep framing
	// intact, so this is a checksum mismatch, not a torn tail).
	data := append([]byte(nil), st.data...)
	data[st.boundaries[1]+walHeaderLen]++
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, st.file), data, 0o644); err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Solver: &parcc.Options{}, WALDir: dir})
	defer eng.Close()
	_, err := eng.Recover()
	var ce *parcc.WALCorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("want *parcc.WALCorruptionError, got %v", err)
	}
	if ce.Torn {
		t.Fatalf("mid-log checksum damage classified as torn: %v", ce)
	}
	// Nothing may have been registered.
	if _, err := eng.Snapshot(st.name); !errors.Is(err, ErrGraphNotFound) {
		t.Fatalf("corrupt log registered a shard: %v", err)
	}
}

// TestWALTornTailTruncated: recovery truncates the torn suffix on disk,
// so the reopened log appends from a whole-frame boundary.
func TestWALTornTailTruncated(t *testing.T) {
	st := buildWALStream(t, parcc.BackendSequential, 4, 11)
	cut := st.boundaries[3] + 5 // mid-record inside record 3
	dir := t.TempDir()
	path := filepath.Join(dir, st.file)
	if err := os.WriteFile(path, st.data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Solver: &parcc.Options{}, WALDir: dir})
	if _, err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(st.boundaries[3]) {
		t.Fatalf("torn tail not truncated: size %d, want %d", fi.Size(), st.boundaries[3])
	}
}

// TestWALDropRemovesLog: a dropped graph must not resurrect on recovery.
func TestWALDropRemovesLog(t *testing.T) {
	dir := t.TempDir()
	eng := New(Options{Solver: &parcc.Options{}, WALDir: dir})
	if err := eng.Create("g", gen.Cycle(16)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drop("g"); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("dropped graph left %d wal file(s)", len(entries))
	}
}

// TestWALDropSkipsCheckpoint: dropping a graph whose log has groups past
// its head record deletes the log without first compacting it — no
// checkpoint rewrite (temp file, fsync, rename, directory sync) for a file
// about to go — while a clean Close still compacts.
func TestWALDropSkipsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	eng := New(Options{Solver: &parcc.Options{}, WALDir: dir})
	defer eng.Close()
	for _, name := range []string{"dropped", "kept"} {
		if err := eng.Create(name, gen.Cycle(16)); err != nil {
			t.Fatal(err)
		}
		if err := eng.AddEdges(name, []parcc.Edge{{U: 0, V: 8}}); err != nil {
			t.Fatal(err)
		}
	}
	before := scrapeTotals(t, eng)["parcc_wal_checkpoints_total"]
	if err := eng.Drop("dropped"); err != nil {
		t.Fatal(err)
	}
	if after := scrapeTotals(t, eng)["parcc_wal_checkpoints_total"]; after != before {
		t.Fatalf("Drop moved parcc_wal_checkpoints_total %d -> %d, want no checkpoint", before, after)
	}
	if _, err := os.Stat(walPath(dir, "dropped")); !os.IsNotExist(err) {
		t.Fatalf("dropped graph's log still present (stat err %v)", err)
	}
	eng.Close()
	if after := scrapeTotals(t, eng)["parcc_wal_checkpoints_total"]; after != before+1 {
		t.Fatalf("Close left parcc_wal_checkpoints_total at %d, want %d: a clean close compacts", after, before+1)
	}
}

// TestWALSyncDir: the directory sync behind log creation and compaction
// succeeds on a real directory and reports a missing one.
func TestWALSyncDir(t *testing.T) {
	dir := t.TempDir()
	w, err := createWAL(dir, "g", &walCounts{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.writeCheckpoint(3, []parcc.Edge{{U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syncDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("syncing a missing directory must fail")
	}
}

// TestRecoveringMapsTo503: the taxonomy entry the recovery gate returns
// must surface as Service Unavailable.
func TestRecoveringMapsTo503(t *testing.T) {
	rr := httptest.NewRecorder()
	writeError(rr, parcc.ErrRecovering)
	if rr.Code != 503 {
		t.Fatalf("ErrRecovering mapped to %d, want 503", rr.Code)
	}
}

// FuzzWALDecode is the decoder-robustness satellite: arbitrary bytes —
// including bit-flipped CRCs, truncated length prefixes, and garbage
// frames — must decode to a clean prefix plus a typed
// *parcc.WALCorruptionError, never panic, never allocate unboundedly,
// and never yield records past the damage.  The seeded corpus runs in
// CI's ordinary (non-fuzz) test mode.
func FuzzWALDecode(f *testing.F) {
	valid := appendWALFrame(nil, &StreamFrame{Kind: walKindCreate, Seq: 1, N: 8, Batch: []parcc.Edge{{U: 0, V: 1}}})
	valid = appendWALFrame(valid, &StreamFrame{Kind: walKindAdd, Seq: 2, Batch: []parcc.Edge{{U: 2, V: 3}, {U: 4, V: 5}}})
	valid = appendWALFrame(valid, &StreamFrame{Kind: walKindRemove, Seq: 3, Batch: []parcc.Edge{{U: 2, V: 3}}})
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	f.Add(valid[:5])            // truncated length prefix
	f.Add([]byte{})             // empty
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x40 // payload bit flip → CRC mismatch
	f.Add(flipped)
	badlen := append([]byte(nil), valid...)
	badlen[0], badlen[1], badlen[2], badlen[3] = 0xff, 0xff, 0xff, 0xff // insane length
	f.Add(badlen)
	f.Add([]byte("not a wal at all, just some text that is long enough"))
	// CRC-valid frames whose edge count times 8 wraps to the body length.
	f.Add(crcFrame(walKindCreate, 1, 0, 8, 1<<61))
	f.Add(crcFrame(walKindAdd, 2, 1<<61))
	f.Add(crcFrame(walKindRemove, 2)) // no count field at all
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, err := decodeWAL(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("clean-prefix length %d out of [0,%d]", valid, len(data))
		}
		if err != nil {
			var ce *parcc.WALCorruptionError
			if !errors.As(err, &ce) {
				t.Fatalf("decode error is not a *parcc.WALCorruptionError: %v", err)
			}
		} else if valid != len(data) {
			t.Fatalf("nil error but clean prefix %d != input %d", valid, len(data))
		}
		// The clean prefix must re-decode cleanly to the same records —
		// no silent partial state on either side of the cut.
		recs2, valid2, err2 := decodeWAL(data[:valid])
		if err2 != nil || valid2 != valid || len(recs2) != len(recs) {
			t.Fatalf("clean prefix unstable: %d/%d records, %d/%d bytes, err %v", len(recs2), len(recs), valid2, valid, err2)
		}
		// Every decoded record re-encodes to exactly the bytes it came from.
		for off := 0; off < valid; {
			rec, next, _ := decodeWALFrame(data, off)
			if enc := appendWALFrame(nil, &rec); !bytes.Equal(enc, data[off:next]) {
				t.Fatalf("record at %d re-encodes to %x, decoded from %x", off, enc, data[off:next])
			}
			off = next
		}
	})
}

// crcFrame frames a payload of kind, seq and raw little-endian words with
// a valid length and checksum, whatever the words claim.
func crcFrame(kind byte, seq uint64, words ...uint64) []byte {
	payload := binary.LittleEndian.AppendUint64([]byte{kind}, seq)
	for _, w := range words {
		payload = binary.LittleEndian.AppendUint64(payload, w)
	}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// writeWAL writes a hand-built log for graph "g" under dir, one frame per
// record, stamping seqs the way the writer does: 1 for the head, then one
// fresh seq per record.
func writeWAL(t *testing.T, dir string, recs ...StreamFrame) {
	t.Helper()
	var buf []byte
	for i := range recs {
		recs[i].Seq = uint64(i + 1)
		buf = appendWALFrame(buf, &recs[i])
	}
	if err := os.WriteFile(walPath(dir, "g"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWALFoldRejectsWhatReplayWould: every log the per-frame incremental
// replay would have rejected fails the fold with a typed
// *parcc.WALCorruptionError naming the offending record, and registers
// no shard.
func TestWALFoldRejectsWhatReplayWould(t *testing.T) {
	head := StreamFrame{Kind: walKindCreate, N: 8, Batch: []parcc.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 3, V: 2}}}
	add := func(es ...parcc.Edge) StreamFrame { return StreamFrame{Kind: walKindAdd, Batch: es} }
	remove := func(es ...parcc.Edge) StreamFrame { return StreamFrame{Kind: walKindRemove, Batch: es} }
	for _, tc := range []struct {
		name   string
		recs   []StreamFrame
		record string
	}{
		{"remove before its add", []StreamFrame{head, remove(parcc.Edge{U: 4, V: 5}), add(parcc.Edge{U: 4, V: 5})}, "record 1 "},
		{"remove never present", []StreamFrame{head, add(parcc.Edge{U: 4, V: 5}), remove(parcc.Edge{U: 5, V: 6})}, "record 2 "},
		{"third of two parallel copies", []StreamFrame{head, remove(parcc.Edge{U: 2, V: 3}, parcc.Edge{U: 2, V: 3}), add(parcc.Edge{U: 0, V: 7}), remove(parcc.Edge{U: 3, V: 2})}, "record 3 "},
		{"add endpoint out of range", []StreamFrame{head, add(parcc.Edge{U: 1, V: 2}), add(parcc.Edge{U: 0, V: 8})}, "record 2:"},
		{"head kind mid-log", []StreamFrame{head, head}, "record 1 "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeWAL(t, dir, tc.recs...)
			eng := New(Options{Solver: &parcc.Options{}, WALDir: dir})
			defer eng.Close()
			_, err := eng.Recover()
			var ce *parcc.WALCorruptionError
			if !errors.As(err, &ce) {
				t.Fatalf("want *parcc.WALCorruptionError, got %v", err)
			}
			if !strings.Contains(ce.Reason, tc.record) || ce.Path == "" {
				t.Fatalf("error %q does not name %q and the file", ce, tc.record)
			}
			if _, err := eng.Snapshot("g"); !errors.Is(err, ErrGraphNotFound) {
				t.Fatalf("rejected log registered a shard: %v", err)
			}
		})
	}
}

// TestWALFoldKeepsMultisetEdges: removing one of two parallel copies (in
// either orientation) keeps the pair connected, self-loops survive the
// fold, and the recovered live multiset is exactly what per-frame replay
// would leave.
func TestWALFoldKeepsMultisetEdges(t *testing.T) {
	dir := t.TempDir()
	writeWAL(t, dir,
		StreamFrame{Kind: walKindCreate, N: 8, Batch: []parcc.Edge{{U: 0, V: 1}, {U: 1, V: 0}, {U: 2, V: 2}}},
		StreamFrame{Kind: walKindAdd, Batch: []parcc.Edge{{U: 3, V: 3}, {U: 4, V: 5}, {U: 5, V: 6}}},
		StreamFrame{Kind: walKindRemove, Batch: []parcc.Edge{{U: 0, V: 1}, {U: 6, V: 5}}},
		StreamFrame{Kind: walKindAdd, Batch: []parcc.Edge{{U: 6, V: 5}}},
	)
	eng := New(Options{Solver: &parcc.Options{}, WALDir: dir})
	defer eng.Close()
	st, err := eng.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 4 || st.Edges != 9 {
		t.Fatalf("stats %+v, want 4 records and 9 decoded edges", st)
	}
	sn, err := eng.Snapshot("g")
	if err != nil {
		t.Fatal(err)
	}
	if !sn.Connected(0, 1) || !sn.Connected(4, 6) || sn.Connected(2, 3) || sn.NumComponents() != 5 {
		t.Fatalf("recovered partition wrong: %v", sn.Labels())
	}
	if sn.Version() != 5 {
		t.Fatalf("version %d, want 5", sn.Version())
	}
	sh, err := eng.lookup("g")
	if err != nil {
		t.Fatal(err)
	}
	keys := map[int64]int{}
	for _, ed := range sh.s.Live().Edges {
		keys[ed.CanonKey()]++
	}
	want := map[int64]int{}
	for _, ed := range []parcc.Edge{{U: 0, V: 1}, {U: 2, V: 2}, {U: 3, V: 3}, {U: 4, V: 5}, {U: 5, V: 6}} {
		want[ed.CanonKey()]++
	}
	if len(keys) != len(want) || sh.edges() != 5 {
		t.Fatalf("live multiset %v (count %d), want %v", keys, sh.edges(), want)
	}
	for k, c := range want {
		if keys[k] != c {
			t.Fatalf("live multiset %v, want %v", keys, want)
		}
	}
}

// TestWALRecoverEdgesCountsDecodedEdges: RecoverStats.Edges is the head
// record's edge count plus the size of every batch, removes included.
func TestWALRecoverEdgesCountsDecodedEdges(t *testing.T) {
	st := buildWALStream(t, parcc.BackendSequential, 20, 5)
	recs, _, err := decodeWAL(st.data)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for _, rec := range recs {
		want += int64(len(rec.Batch))
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, st.file), st.data, 0o644); err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Solver: &parcc.Options{}, WALDir: dir})
	defer eng.Close()
	rs, err := eng.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Edges != want || rs.Records != len(recs) {
		t.Fatalf("recover stats %+v, want %d edges over %d records", rs, want, len(recs))
	}
}

// TestRecoverFoldSpeedup is the recovery bar: at n = 2^16, a log of 2^17
// random initial edges and 4,096 groups of 64 edges, alternating add and
// remove (removes draw uniformly from the live multiset, so most hit
// spanning-forest edges), recovers at least 5× faster by folding the
// records and attaching once than by replaying every frame through
// AddEdges/RemoveEdges on a bare Solver — and to the oracle's partition
// at the lockstep version.
func TestRecoverFoldSpeedup(t *testing.T) {
	if raceEnabled() {
		t.Skip("timing bar: the race detector slows per-frame replay ~40×; CI runs it in the non-race throughput step")
	}
	const (
		n, m0, groups, batch = 1 << 16, 1 << 17, 4096, 64
		bar                  = 5.0
	)
	rng := rand.New(rand.NewSource(1))
	g0 := gen.GNM(n, m0, 1)
	live := append([]parcc.Edge(nil), g0.Edges...)
	recs := []StreamFrame{{Kind: walKindCreate, N: n, Batch: g0.Edges}}
	for i := 0; i < groups; i++ {
		es := make([]parcc.Edge, batch)
		kind := walKindAdd
		if i%2 == 1 {
			kind = walKindRemove
		}
		for j := range es {
			if kind == walKindAdd {
				es[j] = parcc.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
				live = append(live, es[j])
				continue
			}
			k := rng.Intn(len(live))
			es[j] = live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		recs = append(recs, StreamFrame{Kind: kind, Batch: es})
	}
	dir := t.TempDir()
	writeWAL(t, dir, recs...)
	data, err := os.ReadFile(walPath(dir, "g"))
	if err != nil {
		t.Fatal(err)
	}
	opt := &parcc.Options{Seed: 1}

	// Reference: decode, attach the head, then every frame through the
	// incremental path, then the one publish.
	replay := func() (*parcc.Snapshot, time.Duration) {
		start := time.Now()
		recs, _, err := decodeWAL(data)
		if err != nil {
			t.Fatal(err)
		}
		s, err := parcc.NewSolver(opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		g := parcc.NewGraph(n)
		g.Edges = append(g.Edges, recs[0].Batch...)
		if err := s.Attach(g); err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs[1:] {
			if rec.Kind == walKindAdd {
				err = s.AddEdges(rec.Batch)
			} else {
				err = s.RemoveEdges(rec.Batch)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		s.AdvanceSnapshotVersion(recs[len(recs)-1].Seq)
		sn, err := s.PublishSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		return sn, time.Since(start)
	}
	fold := func() (*parcc.Snapshot, time.Duration) {
		rdir := t.TempDir()
		if err := os.WriteFile(walPath(rdir, "g"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		eng := New(Options{Solver: opt, WALDir: rdir})
		t.Cleanup(eng.Close)
		start := time.Now()
		if _, err := eng.Recover(); err != nil {
			t.Fatal(err)
		}
		d := time.Since(start)
		sn, err := eng.Snapshot("g")
		if err != nil {
			t.Fatal(err)
		}
		return sn, d
	}

	refSn, refD := replay()
	foldSn, foldD := fold()
	for i := 0; i < 2; i++ {
		_, d := fold()
		foldD = min(foldD, d)
	}
	want := baseline.NewIncOracle(&graph.Graph{N: n, Edges: live}).Labels()
	for name, sn := range map[string]*parcc.Snapshot{"fold": foldSn, "per-frame replay": refSn} {
		if !graph.SamePartition(want, sn.Labels()) {
			t.Fatalf("%s: partition differs from the oracle", name)
		}
		if got := sn.Version(); got != groups+2 {
			t.Fatalf("%s: version %d, want %d", name, got, groups+2)
		}
	}
	speedup := float64(refD) / float64(foldD)
	t.Logf("n=%d m0=%d groups=%d×%d: per-frame replay %v, fold %v (%.1f×), %d components",
		n, m0, groups, batch, refD, foldD, speedup, foldSn.NumComponents())
	if speedup < bar {
		t.Fatalf("fold recovery only %.2f× faster than per-frame replay, want ≥ %.0f×", speedup, bar)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
