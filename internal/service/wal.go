package service

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"parcc"
	"parcc/internal/obs"
)

// Per-shard write-ahead log.  When Options.WALDir is set, every shard
// appends exactly the coalesced mutation groups its writer goroutine
// applies — one frame per successful AddEdges/RemoveEdges sub-batch — and
// fsyncs before the group's snapshot is published and its callers are
// released.  Engine.Recover replays the logs on startup, reconstructing
// every named graph at its last durable state.
//
// Frame format (all integers little-endian):
//
//	u32 length      — payload bytes (not counting this 8-byte header)
//	u32 crc         — CRC-32 (IEEE) of the payload
//	payload:
//	  u8  kind      — 1 create, 2 add, 3 remove, 4 checkpoint, 5 commit
//	  u64 seq       — see below
//	  create/checkpoint: u64 epoch, u64 n, u64 m, then m × (i32 u, i32 v)
//	  add/remove:        u64 count, then count × (i32 u, i32 v)
//	  commit:            u64 head (stream-only, never on disk)
//
// seq is the snapshot version that exposes the record: the create record
// carries 1 (Create's publish is version 1) and every frame of one
// coalesced group carries the same lastSeq+1 (the group publishes once).
// The writer's lastSeq therefore mirrors the session's published version
// exactly, and recovery — which folds all records and attaches once,
// floors the version counter at the last record's seq, and publishes
// once — resumes at maxSeq+1: strictly greater than any version a reader
// could have observed before the crash, because the fsync of a frame
// always precedes the publish that exposes it.
//
// A CHECKPOINT record is a create record under another name: the full
// live edge multiset at seq, written by log compaction (clean shutdown or
// POST /graphs/{name}/compact) as the head of a rewritten log whose
// fully-applied prefix has been dropped.  Recovery and followers treat it
// exactly like a create whose publish version is its seq.  The EPOCH in
// create/checkpoint records is a random identity drawn when the graph is
// created: it survives recovery and compaction, and changes only when a
// graph is dropped and re-created — how a follower (which resumes by seq)
// detects that "seq 7" of the log it left is not "seq 7" of the log that
// now answers, and resets instead of splicing two histories together.
//
// A COMMIT frame exists only on the replication stream (never on disk):
// the streaming endpoint emits one after the last frame of each seq group
// so a follower knows the group is complete and may publish it, and
// repeats it as a heartbeat while idle.  Its head field carries the
// primary's last durable seq — the follower's lag in seqs is head minus
// its last applied seq.
//
// The decoder distinguishes a TORN tail (a truncated header or frame
// body: exactly what an interrupted final write leaves) from mid-log
// CORRUPTION (checksum mismatch, impossible lengths, unknown kinds).
// Recovery tolerates only the former, truncating the file to the last
// whole frame; anything else fails recovery with a typed
// *parcc.WALCorruptionError — a log that lies must never yield silent
// partial state.
//
// Live-tail safety for stream readers: walWriter.durable is advanced only
// after a whole group's frames (and their fsync) land, so a reader that
// never reads past durable can be concurrent with the appending writer
// and still never observe a torn frame — the torn tail exists only beyond
// the durable boundary.

const (
	walKindCreate     byte = 1
	walKindAdd        byte = 2
	walKindRemove     byte = 3
	walKindCheckpoint byte = 4 // full state at seq: compaction's stream head
	walKindCommit     byte = 5 // stream-only: group boundary + primary head

	walHeaderLen = 8       // u32 length + u32 crc
	walMinFrame  = 9       // kind + seq: the smallest possible payload
	walMaxFrame  = 1 << 30 // sanity cap on a single frame's payload
	walSuffix    = ".wal"
)

// walPath is the shard's log file: the graph name, query-escaped so any
// name is a safe file name, under the engine's WAL directory.
func walPath(dir, name string) string {
	return filepath.Join(dir, url.QueryEscape(name)+walSuffix)
}

// StreamFrame is one decoded frame: a log record, or a replication-stream
// frame (the stream's wire format is the log's).
type StreamFrame struct {
	Kind  byte
	Seq   uint64       // snapshot version that exposes the frame's group
	Epoch uint64       // log identity (create/checkpoint only)
	Head  uint64       // primary's last durable seq (commit only)
	N     int          // vertex count (create/checkpoint only)
	Batch []parcc.Edge // edges (create/checkpoint/add/remove)
}

// appendWALFrame encodes rec as one frame onto buf.
func appendWALFrame(buf []byte, rec *StreamFrame) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc, patched below
	p0 := len(buf)
	buf = append(buf, rec.Kind)
	buf = binary.LittleEndian.AppendUint64(buf, rec.Seq)
	switch rec.Kind {
	case walKindCommit:
		buf = binary.LittleEndian.AppendUint64(buf, rec.Head)
	default:
		if rec.Kind == walKindCreate || rec.Kind == walKindCheckpoint {
			buf = binary.LittleEndian.AppendUint64(buf, rec.Epoch)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.N))
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(rec.Batch)))
		for _, ed := range rec.Batch {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(ed.U))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(ed.V))
		}
	}
	payload := buf[p0:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

func walErr(off int, torn bool, format string, args ...any) error {
	return &parcc.WALCorruptionError{
		Offset: int64(off),
		Torn:   torn,
		Reason: fmt.Sprintf(format, args...),
	}
}

// decodeWALFrame decodes the frame at data[off:], returning the record
// and the offset just past it.  It validates length, checksum, kind, and
// the internal length/count consistency before allocating anything sized
// by untrusted fields, so garbage input can neither panic nor force a
// huge allocation.
func decodeWALFrame(data []byte, off int) (StreamFrame, int, error) {
	var rec StreamFrame
	rem := len(data) - off
	if rem < walHeaderLen {
		return rec, off, walErr(off, true, "truncated frame header (%d bytes)", rem)
	}
	length := int(binary.LittleEndian.Uint32(data[off:]))
	wantCRC := binary.LittleEndian.Uint32(data[off+4:])
	if length < walMinFrame || length > walMaxFrame {
		return rec, off, walErr(off, false, "frame length %d out of range [%d,%d]", length, walMinFrame, walMaxFrame)
	}
	if rem-walHeaderLen < length {
		return rec, off, walErr(off, true, "truncated frame body (%d of %d bytes)", rem-walHeaderLen, length)
	}
	payload := data[off+walHeaderLen : off+walHeaderLen+length]
	if crc := crc32.ChecksumIEEE(payload); crc != wantCRC {
		return rec, off, walErr(off, false, "checksum mismatch (stored %08x, computed %08x)", wantCRC, crc)
	}
	rec.Kind = payload[0]
	rec.Seq = binary.LittleEndian.Uint64(payload[1:])
	body := payload[walMinFrame:]
	switch rec.Kind {
	case walKindCreate, walKindCheckpoint:
		if len(body) < 24 {
			return rec, off, walErr(off, false, "create frame too short (%d bytes)", len(body))
		}
		rec.Epoch = binary.LittleEndian.Uint64(body)
		n := binary.LittleEndian.Uint64(body[8:])
		m := binary.LittleEndian.Uint64(body[16:])
		if n > 1<<31-1 {
			return rec, off, walErr(off, false, "create frame vertex count %d overflows int32", n)
		}
		if rest := len(body) - 24; rest%8 != 0 || m != uint64(rest/8) {
			return rec, off, walErr(off, false, "create frame declares %d edges, carries %d bytes", m, len(body)-24)
		}
		rec.N = int(n)
		rec.Batch = decodeWALEdges(body[24:])
	case walKindCommit:
		if len(body) != 8 {
			return rec, off, walErr(off, false, "commit frame carries %d body bytes, want 8", len(body))
		}
		rec.Head = binary.LittleEndian.Uint64(body)
	case walKindAdd, walKindRemove:
		if len(body) < 8 {
			return rec, off, walErr(off, false, "batch frame too short (%d bytes)", len(body))
		}
		count := binary.LittleEndian.Uint64(body)
		if rest := len(body) - 8; rest%8 != 0 || count != uint64(rest/8) {
			return rec, off, walErr(off, false, "batch frame declares %d edges, carries %d bytes", count, len(body)-8)
		}
		rec.Batch = decodeWALEdges(body[8:])
	default:
		return rec, off, walErr(off, false, "unknown record kind %d", rec.Kind)
	}
	return rec, off + walHeaderLen + length, nil
}

// decodeWALEdges decodes a validated (length-checked) edge array.
func decodeWALEdges(b []byte) []parcc.Edge {
	edges := make([]parcc.Edge, len(b)/8)
	for i := range edges {
		edges[i] = parcc.Edge{
			U: int32(binary.LittleEndian.Uint32(b[i*8:])),
			V: int32(binary.LittleEndian.Uint32(b[i*8+4:])),
		}
	}
	return edges
}

// decodeWAL decodes a whole log image.  It returns every cleanly decoded
// record, the byte length of that clean prefix, and the error that
// stopped decoding (nil at a clean end of input).  The error is always a
// *parcc.WALCorruptionError; Torn distinguishes a truncated final frame
// from mid-log corruption.
func decodeWAL(data []byte) ([]StreamFrame, int, error) {
	var recs []StreamFrame
	off := 0
	for off < len(data) {
		rec, next, err := decodeWALFrame(data, off)
		if err != nil {
			return recs, off, err
		}
		recs = append(recs, rec)
		off = next
	}
	return recs, off, nil
}

// walFile is the log's handle on a file: an *os.File, or in tests one
// that fails on demand.
type walFile interface {
	Write([]byte) (int, error)
	Sync() error
	Close() error
}

// The log's file opens, its checkpoint rename and its directory syncs go
// through these variables, which tests swap to inject disk faults.
var (
	walOpen   = func(path string, flag int) (walFile, error) { return os.OpenFile(path, flag, 0o644) }
	walRename = os.Rename
	// syncDir fsyncs a directory, making the creates and renames inside it
	// durable.
	syncDir = func(dir string) error {
		d, err := os.Open(dir)
		if err != nil {
			return fmt.Errorf("open dir: %w", err)
		}
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("fsync dir %s: %w", dir, err)
		}
		return nil
	}
)

// walCounts are the engine's log totals, which every walWriter feeds.
type walCounts struct {
	appends     obs.CounterMetric // frames written
	bytes       obs.CounterMetric // bytes written
	fsyncs      obs.CounterMetric // fsyncs issued
	checkpoints obs.CounterMetric // checkpoint rewrites (compactions)
}

// walWriter is a shard's append handle: owned by the shard's writer
// goroutine (appends are naturally serialized), charging the engine's log
// totals, with an atomic durable boundary + wakeup channel for the
// replication stream readers tailing the file concurrently.  Its
// shard fails stop on the first error any of its writes, fsyncs or
// checkpoints returns, so nothing is ever appended after a failed write:
// a partial frame can only be the log's tail, which recovery truncates.
type walWriter struct {
	f    walFile
	path string
	// lastSeq mirrors the session's current published snapshot version;
	// the next group's frames are stamped lastSeq+1 (see the file header
	// comment for the lockstep argument).
	lastSeq uint64
	// epoch is the log's identity, carried in its create/checkpoint head
	// record: stable across recovery and compaction, fresh on re-create.
	epoch uint64
	buf   []byte
	// groupsSinceHead counts mutation groups appended since the head
	// record (create or checkpoint) — a clean shutdown checkpoints only
	// when it is non-zero, so an idle log is not rewritten for nothing.
	groupsSinceHead int
	ctr             *walCounts

	// durable is the byte length of the whole-group prefix of the file:
	// advanced only after a complete group's frames (and fsync) land, so a
	// stream reader that stops at durable never observes a torn frame even
	// while the writer is mid-append past it.
	durable atomic.Int64
	// headSeq mirrors lastSeq for readers outside the writer goroutine.
	headSeq atomic.Uint64
	// gen counts file rewrites (checkpoints): a stream reader holding the
	// pre-rename file re-opens from the head when it observes a bump.
	gen atomic.Uint64

	// tailMu guards tail, the broadcast channel closed-and-replaced after
	// every append so long-polling stream readers wake without polling.
	tailMu sync.Mutex
	tail   chan struct{}
}

// newEpoch draws a random log identity.  Uniqueness across drop+re-create
// of the same graph name is what matters; crypto/rand failure falls back
// to the pid/time mix (still unique enough for the resume-safety check).
func newEpoch() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return uint64(os.Getpid())<<32 ^ uint64(time.Now().UnixNano())
	}
	return binary.LittleEndian.Uint64(b[:])
}

// createWAL opens (truncating) the shard's log file.  A fresh Create
// supersedes any stale log under the same name — a crash-recovered graph
// re-registers through Engine.Recover before Create can race it.  The
// directory is synced too, so the new file's entry — and with it the
// birth record appendCreate syncs — survives power loss.  The writer
// charges its appends to ctr.
func createWAL(dir, name string, ctr *walCounts) (*walWriter, error) {
	path := walPath(dir, name)
	f, err := walOpen(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC)
	if err != nil {
		return nil, fmt.Errorf("service: wal create: %w", err)
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("service: wal create: %w", err)
	}
	return &walWriter{f: f, path: path, epoch: newEpoch(), ctr: ctr, tail: make(chan struct{})}, nil
}

// openWAL reopens an existing log for appending after replay.  lastSeq is
// the recovered session's published version (the next group is stamped
// lastSeq+1); headSeq is the last seq actually present in the log — one
// less than lastSeq after recovery, whose publish is never logged — so
// stream heartbeats advertise a head a follower can actually reach.
// epoch and size come from the replayed head record and the truncated
// file.  The writer charges its appends to ctr.
func openWAL(path string, lastSeq, headSeq, epoch uint64, size int64, ctr *walCounts) (*walWriter, error) {
	f, err := walOpen(path, os.O_WRONLY|os.O_APPEND)
	if err != nil {
		return nil, fmt.Errorf("service: wal open: %w", err)
	}
	w := &walWriter{f: f, path: path, lastSeq: lastSeq, epoch: epoch, ctr: ctr, tail: make(chan struct{})}
	w.durable.Store(size)
	w.headSeq.Store(headSeq)
	return w, nil
}

// wake wakes every stream reader blocked on the tail channel.
func (w *walWriter) wake() {
	w.tailMu.Lock()
	ch := w.tail
	w.tail = make(chan struct{})
	w.tailMu.Unlock()
	close(ch)
}

// tailWait returns the channel the next wake will close; a reader that
// has consumed up to durable selects on it to sleep until new frames land.
func (w *walWriter) tailWait() <-chan struct{} {
	w.tailMu.Lock()
	defer w.tailMu.Unlock()
	return w.tail
}

// appendCreate logs the graph's birth record — seq 1, matching the
// publish Create issues — and syncs it; a Create whose birth record
// cannot be made durable fails.
func (w *walWriter) appendCreate(n int, edges []parcc.Edge) error {
	w.buf = appendWALFrame(w.buf[:0], &StreamFrame{Kind: walKindCreate, Seq: 1, Epoch: w.epoch, N: n, Batch: edges})
	if err := w.write(1); err != nil {
		return err
	}
	w.lastSeq = 1
	w.headSeq.Store(1)
	w.durable.Add(int64(len(w.buf)))
	w.wake()
	if cap(w.buf) > 1<<20 {
		w.buf = nil // the birth record can dwarf every later group; don't pin it
	}
	return nil
}

// walEntry is one successfully applied sub-batch of a coalesced group.
type walEntry struct {
	remove bool
	batch  []parcc.Edge
}

// appendGroup logs one coalesced group — every frame stamped with the seq
// of the single publish that will expose it — and syncs once for the
// whole group.
func (w *walWriter) appendGroup(entries []walEntry) error {
	seq := w.lastSeq + 1
	w.buf = w.buf[:0]
	for _, en := range entries {
		kind := walKindAdd
		if en.remove {
			kind = walKindRemove
		}
		w.buf = appendWALFrame(w.buf, &StreamFrame{Kind: kind, Seq: seq, Batch: en.batch})
	}
	if err := w.write(len(entries)); err != nil {
		return err
	}
	w.lastSeq = seq
	w.headSeq.Store(seq)
	w.durable.Add(int64(len(w.buf)))
	w.groupsSinceHead++
	w.wake()
	return nil
}

// writeCheckpoint compacts the log: the full live state (n vertices, the
// edge multiset) becomes a checkpoint head record at the current seq, and
// every fully-applied frame before it is dropped.  The rewrite goes
// through a temp file + fsync + rename + directory sync, so a crash at any
// point leaves either the old log or the new one, never a mix, and a
// compaction that returns nil survives power loss.  Only then is the
// append handle swapped to the renamed file and gen bumped, so stream
// readers holding the pre-rename inode restart from a head that is
// durable.
func (w *walWriter) writeCheckpoint(n int, edges []parcc.Edge) error {
	buf := appendWALFrame(nil, &StreamFrame{
		Kind:  walKindCheckpoint,
		Seq:   w.lastSeq,
		Epoch: w.epoch,
		N:     n,
		Batch: edges,
	})
	tmp := w.path + ".tmp"
	tf, err := walOpen(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC)
	if err != nil {
		return fmt.Errorf("service: wal checkpoint create: %w", err)
	}
	_, err = tf.Write(buf)
	if err == nil {
		err = tf.Sync()
	}
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = walRename(tmp, w.path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("service: wal checkpoint: %w", err)
	}
	if err := syncDir(filepath.Dir(w.path)); err != nil {
		return fmt.Errorf("service: wal checkpoint: %w", err)
	}
	nf, err := walOpen(w.path, os.O_WRONLY|os.O_APPEND)
	if err != nil {
		return fmt.Errorf("service: wal checkpoint reopen: %w", err)
	}
	w.f.Close()
	w.f = nf
	w.ctr.appends.Inc()
	w.ctr.bytes.Add(int64(len(buf)))
	w.ctr.fsyncs.Inc()
	w.ctr.checkpoints.Inc()
	w.groupsSinceHead = 0
	w.durable.Store(int64(len(buf)))
	w.gen.Add(1)
	w.wake()
	return nil
}

// write flushes buf to the file and syncs it, charging the counters.
func (w *walWriter) write(frames int) error {
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("service: wal append %s: %w", w.path, err)
	}
	w.ctr.appends.Add(int64(frames))
	w.ctr.bytes.Add(int64(len(w.buf)))
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("service: wal fsync %s: %w", w.path, err)
	}
	w.ctr.fsyncs.Inc()
	return nil
}

// Close releases the file handle (every released caller's group was
// already synced).
func (w *walWriter) Close() error { return w.f.Close() }

// replayedShard is one log's reconstructed session.
type replayedShard struct {
	name     string
	solver   *parcc.Solver
	n        int
	replayed int64 // edges decoded from the log: the head record plus every batch
	records  int
	version  uint64 // published version after the recovery publish
	lastSeq  uint64 // seq of the last logged record
	epoch    uint64 // log identity from the head record
	size     int64  // byte length of the clean (post-truncation) log
}

// replayWAL reconstructs one shard from its log file: decode, fold the
// records into the final edge multiset, attach it once, and publish past
// the last logged seq.  A torn tail is truncated away (the interrupted
// group never released its callers, so dropping it is consistent); any
// other decode or fold failure returns a *parcc.WALCorruptionError
// (possibly wrapped) and recovery fails.  A log with no durable records
// returns (nil, nil): the caller removes the file and moves on.
func (e *Engine) replayWAL(path string) (*replayedShard, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("service: wal read: %w", err)
	}
	recs, valid, derr := decodeWAL(data)
	if derr != nil {
		var ce *parcc.WALCorruptionError
		if !errors.As(derr, &ce) || !ce.Torn {
			if ce != nil && ce.Path == "" {
				ce.Path = path
			}
			return nil, derr
		}
		// Torn tail: keep the clean prefix, truncate the damage away so
		// the reopened log appends from a whole-frame boundary.
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, fmt.Errorf("service: wal truncate torn tail: %w", err)
		}
	}
	if len(recs) == 0 {
		return nil, nil
	}
	name, err := url.QueryUnescape(filepath.Base(path[:len(path)-len(walSuffix)]))
	if err != nil {
		return nil, &parcc.WALCorruptionError{Path: path, Reason: fmt.Sprintf("undecodable graph name: %v", err)}
	}
	// Resume the version lockstep: one publish, stamped past every
	// version that was observable before the crash (see the file header).
	lastSeq := recs[len(recs)-1].Seq
	s, replayed, err := e.buildSession(recs, lastSeq+1)
	if err != nil {
		var ce *parcc.WALCorruptionError
		if errors.As(err, &ce) {
			ce.Path = path
		}
		return nil, err
	}
	return &replayedShard{
		name:     name,
		solver:   s,
		n:        recs[0].N,
		replayed: replayed,
		records:  len(recs),
		version:  s.ReadView().Version(),
		lastSeq:  lastSeq,
		epoch:    recs[0].Epoch,
		size:     int64(valid),
	}, nil
}

// buildSession builds a session from log records, head record first: it
// folds them into the edge multiset they leave live, attaches that in one
// linear-work pass, and publishes it at version.  Recovery publishes past
// the last logged seq; a follower's reset publishes at the head record's
// own seq.  It returns the session and the edges decoded.  A log the
// incremental path would have rejected fails with a
// *parcc.WALCorruptionError.
func (e *Engine) buildSession(recs []StreamFrame, version uint64) (*parcc.Solver, int64, error) {
	if recs[0].Kind != walKindCreate && recs[0].Kind != walKindCheckpoint {
		return nil, 0, &parcc.WALCorruptionError{Reason: "first record is not a create or checkpoint"}
	}
	live, decoded, reason := foldWAL(recs)
	if reason != "" {
		return nil, 0, &parcc.WALCorruptionError{Reason: reason}
	}
	s, err := parcc.NewSolver(e.opt.Solver)
	if err != nil {
		return nil, 0, err
	}
	g := parcc.NewGraph(recs[0].N)
	g.Edges = live
	if err := s.Attach(g); err != nil {
		s.Close()
		return nil, 0, &parcc.WALCorruptionError{Reason: fmt.Sprintf("folded log rejected on attach: %v", err)}
	}
	s.AdvanceSnapshotVersion(version - 1)
	if _, err := e.publishSnapshot(s); err != nil {
		s.Close()
		return nil, 0, err
	}
	return s, decoded, nil
}

// foldWAL folds a decoded log (head record first) into the edge multiset
// it leaves live: the head's edges plus every added edge, minus one
// occurrence per removed one.  It returns that multiset, the count of
// edges decoded (head plus every batch), and a non-empty reason naming
// the first record the incremental path would have rejected: an endpoint
// out of range, a remove with no live occurrence at its point in the log,
// or a head or stream-only kind mid-log.
//
// One pass in log order appends every head and added edge, and keeps, for
// each key some remove names, a stack of its live occurrences; a remove
// pops one and tombstones it, and a last sweep drops the tombstones.  The
// keys removes name are bucketed by a counting sort on their smaller
// endpoint and sorted within each bucket, so a key lookup is a binary
// search of one vertex's bucket: no hashing, and the work is
// O(n + edges decoded · log(largest bucket)).
func foldWAL(recs []StreamFrame) ([]parcc.Edge, int64, string) {
	n := recs[0].N
	decoded, removes := int64(len(recs[0].Batch)), 0
	// first[u]..first[u+1] is the bucket of the removed keys whose smaller
	// endpoint is u, each stored as its larger endpoint, ascending; a key's
	// slot is the index of its first copy in its bucket.  An out-of-range remove
	// is left out: the pass below rejects it when the log reaches it.
	first := make([]int32, n+2)
	inRange := func(ed parcc.Edge) bool { return ed.U >= 0 && int(ed.U) < n && ed.V >= 0 && int(ed.V) < n }
	for i, rec := range recs[1:] {
		switch rec.Kind {
		case walKindAdd:
		case walKindRemove:
			removes += len(rec.Batch)
			for _, ed := range rec.Batch {
				if inRange(ed) {
					first[min(ed.U, ed.V)+2]++
				}
			}
		default:
			return nil, 0, fmt.Sprintf("record %d has unexpected kind %d mid-log", i+1, rec.Kind)
		}
		decoded += int64(len(rec.Batch))
	}
	for u := 2; u < len(first); u++ {
		first[u] += first[u-1]
	}
	other := make([]int32, first[n+1])
	for _, rec := range recs[1:] {
		if rec.Kind != walKindRemove {
			continue
		}
		for _, ed := range rec.Batch {
			if inRange(ed) {
				u := min(ed.U, ed.V)
				other[first[u+1]] = max(ed.U, ed.V)
				first[u+1]++
			}
		}
	}
	for u := range n {
		if first[u+1]-first[u] > 1 {
			slices.Sort(other[first[u]:first[u+1]])
		}
	}
	slot := func(ed parcc.Edge) int32 {
		u := min(ed.U, ed.V)
		lo, hi := first[u], first[u+1]
		if lo == hi {
			return -1
		}
		if j, ok := slices.BinarySearch(other[lo:hi], max(ed.U, ed.V)); ok {
			return lo + int32(j)
		}
		return -1
	}
	// top[j] is 1 + the index in occ of slot j's newest live occurrence
	// (0: none); each occ entry links to the one below it.
	top := make([]int32, len(other))
	var occ []struct{ pos, below int32 }
	live := make([]parcc.Edge, 0, decoded-int64(removes))
	for i, rec := range recs {
		for x, ed := range rec.Batch {
			if !inRange(ed) {
				return nil, 0, fmt.Sprintf("record %d: edge (%d,%d) out of range [0,%d)", i, ed.U, ed.V, n)
			}
			j := slot(ed)
			if rec.Kind == walKindRemove {
				t := top[j]
				if t == 0 {
					return nil, 0, fmt.Sprintf("record %d removes edge (%d,%d), which has no live occurrence", i, ed.U, ed.V)
				}
				live[occ[t-1].pos].U = -1 // tombstone
				top[j] = occ[t-1].below
			} else if j >= 0 {
				occ = append(occ, struct{ pos, below int32 }{int32(len(live) + x), top[j]})
				top[j] = int32(len(occ))
			}
		}
		if rec.Kind != walKindRemove {
			live = append(live, rec.Batch...)
		}
	}
	if removes == 0 {
		return live, decoded, ""
	}
	kept := live[:0]
	for _, ed := range live {
		if ed.U >= 0 {
			kept = append(kept, ed)
		}
	}
	return kept, decoded, ""
}
