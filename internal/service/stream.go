package service

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strconv"
	"time"
)

// Replication stream: GET /graphs/{name}/wal?from=<seq>&epoch=<epoch>
// serves the shard's write-ahead log as a live byte stream — the durable
// prefix first, then a long-poll tail that forwards each new group as it
// lands.  The wire format is exactly the on-disk frame format (stream
// decoding IS log decoding), plus stream-only COMMIT frames: one after
// the last frame of each seq group (the follower's signal that the group
// is complete and may be applied + published) and one as an idle
// heartbeat, both carrying the primary's last durable seq so the follower
// can measure its lag.
//
// Resume contract: `from` is the follower's last applied seq and `epoch`
// the log identity it learned from the head record; the server then skips
// frames the follower already holds.  On an epoch mismatch (the graph was
// dropped and re-created) or a follower that is behind the log's
// checkpoint head, the server streams the full head record instead — the
// follower resets on any create/checkpoint frame.
//
// Safety: the stream never reads past walWriter.durable, which advances
// only after whole-group writes (and their fsync), so a concurrent reader
// can never observe a torn frame; and a checkpoint rewrite bumps the gen
// counter, making the stream re-open the file and serve the new head.

// Stream frame kinds, mirroring the on-disk WAL record kinds.
const (
	FrameCreate     byte = walKindCreate
	FrameAdd        byte = walKindAdd
	FrameRemove     byte = walKindRemove
	FrameCheckpoint byte = walKindCheckpoint
	FrameCommit     byte = walKindCommit
)

// streamReadStep bounds how far ReadStreamFrame's buffer grows ahead of the
// bytes received.
const streamReadStep = 1 << 20

// ReadStreamFrame reads and validates one frame from a replication
// stream.  io.EOF marks a cleanly closed stream between frames; a cut
// inside a frame surfaces as io.ErrUnexpectedEOF; framing damage is a
// *parcc.WALCorruptionError.
func ReadStreamFrame(br *bufio.Reader) (*StreamFrame, error) {
	var hdr [walHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			// A cut inside the header is torn mid-frame only if any header
			// byte arrived.
			if err == io.ErrUnexpectedEOF {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, io.EOF
		}
		return nil, err
	}
	length := int(binary.LittleEndian.Uint32(hdr[:]))
	if length < walMinFrame || length > walMaxFrame {
		return nil, walErr(0, false, "stream frame length %d out of range [%d,%d]", length, walMinFrame, walMaxFrame)
	}
	// The length is untrusted until the CRC checks, so the body is read in
	// bounded steps: the buffer grows with the bytes that actually arrive,
	// and a header claiming 1 GiB costs at most one step before a cut
	// stream fails.  Frames up to one step still take one exact allocation.
	total := walHeaderLen + length
	buf := append(make([]byte, 0, min(total, walHeaderLen+streamReadStep)), hdr[:]...)
	for len(buf) < total {
		k := min(total-len(buf), streamReadStep)
		buf = slices.Grow(buf, k)
		n, err := io.ReadFull(br, buf[len(buf):len(buf)+k])
		buf = buf[:len(buf)+n]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	fr, _, err := decodeWALFrame(buf, 0)
	if err != nil {
		return nil, err
	}
	return &fr, nil
}

// streamWAL serves one replication-stream request.  heartbeat bounds how
// long an idle tail goes without a commit frame.
func (e *Engine) streamWAL(w http.ResponseWriter, r *http.Request, heartbeat time.Duration) {
	name := r.PathValue("name")
	q := r.URL.Query()
	from, err := queryUint(q, "from")
	if err != nil {
		writeError(w, err)
		return
	}
	clientEpoch, err := queryUint(q, "epoch")
	if err != nil {
		writeError(w, err)
		return
	}
	h, err := e.walHandle(name)
	if err != nil {
		writeError(w, err)
		return
	}
	// The tail long-polls indefinitely: exempt this response from the
	// server's WriteTimeout (satellite: per-request deadline control).
	rc := http.NewResponseController(w)
	rc.SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)

	e.streamConns.Inc()
	e.streamActive.Add(1)
	defer e.streamActive.Add(-1)

	bw := bufio.NewWriterSize(w, 64<<10)
	var scratch []byte
	send := func(raw []byte) bool {
		if _, err := bw.Write(raw); err != nil {
			return false
		}
		e.streamFrames.Inc()
		e.streamBytes.Add(int64(len(raw)))
		return true
	}
	sendCommit := func(seq uint64) bool {
		scratch = appendWALFrame(scratch[:0], &StreamFrame{Kind: walKindCommit, Seq: seq, Head: h.headSeq.Load()})
		return send(scratch)
	}
	flush := func() bool {
		if err := bw.Flush(); err != nil {
			return false
		}
		rc.Flush()
		return true
	}

	alive := func() bool {
		// Identity, not just existence: after a drop + re-create the name
		// resolves to a NEW log handle, and heartbeating from the stale one
		// would keep this stream alive forever without ever serving the new
		// epoch's head record.
		hh, err := e.walHandle(name)
		return err == nil && hh == h
	}
	ctx := r.Context()
	sent := from // last data-frame seq forwarded (or resumed past)
	for {
		gen := h.gen.Load()
		f, err := os.Open(h.path)
		if err != nil {
			return // dropped under us; the follower re-resolves on reconnect
		}
		ok := streamFile(ctx, f, h, gen, clientEpoch, heartbeat, alive, &sent, send, sendCommit, flush)
		f.Close()
		if !ok {
			return
		}
		if h.gen.Load() == gen {
			// A read/decode anomaly without a rewrite is real damage, not
			// the checkpoint swap race: end the stream; the follower's
			// reconnect (with backoff) re-resolves the log.
			return
		}
		// gen changed (checkpoint rewrite): reopen and serve the new head.
		time.Sleep(2 * time.Millisecond)
	}
}

// streamFile serves one generation of the log file: catch-up from the
// current position, then the long-poll tail.  Returns true when the
// caller should reopen (gen changed), false when the stream is done
// (client gone, graph dropped, or an unexpected read state).
func streamFile(
	ctx context.Context,
	f *os.File, h *walWriter, gen, clientEpoch uint64, heartbeat time.Duration,
	alive func() bool, sent *uint64,
	send func([]byte) bool, sendCommit func(uint64) bool, flush func() bool,
) bool {
	var off int64
	headRecord := true // the next frame read at off 0 is the head record
	filter := false    // true: skip frames with seq <= resume
	var resume uint64  // the follower's position when filtering was decided
	for {
		tail := h.tailWait() // grab BEFORE the durable load: no lost wakeups
		durable := h.durable.Load()
		if h.gen.Load() != gen {
			return true
		}
		if off < durable {
			chunk := make([]byte, durable-off)
			if _, err := f.ReadAt(chunk, off); err != nil {
				// The file was swapped between our open and the gen load, or
				// shrank under a checkpoint: reopen and retry from the head.
				return true
			}
			o := 0
			pending := uint64(0) // seq of a group with frames sent, commit not yet
			for o < len(chunk) {
				rec, next, err := decodeWALFrame(chunk, o)
				if err != nil {
					return true // same swap race as above: reopen
				}
				raw := chunk[o:next]
				o = next
				if rec.Kind == walKindCreate || rec.Kind == walKindCheckpoint {
					if !headRecord {
						return false // head record mid-file: never valid
					}
					headRecord = false
					// Resume only when the follower is on this log's history
					// AND past its head; otherwise stream the full head record
					// and let the follower reset.
					if clientEpoch == rec.Epoch && *sent >= rec.Seq {
						filter = true
						resume = *sent
						continue
					}
					filter = false
					if !send(raw) {
						return false
					}
					*sent = rec.Seq
					pending = rec.Seq
					continue
				}
				if filter && rec.Seq <= resume {
					continue
				}
				if pending != 0 && rec.Seq != pending {
					if !sendCommit(pending) {
						return false
					}
				}
				if !send(raw) {
					return false
				}
				*sent = rec.Seq
				pending = rec.Seq
			}
			off = durable
			// The durable boundary is a group boundary: close the last group
			// (or, when everything was filtered, heartbeat the head) and
			// flush so the follower applies without waiting for more.
			seqc := pending
			if seqc == 0 {
				seqc = *sent
			}
			if !sendCommit(seqc) || !flush() {
				return false
			}
			continue
		}
		// Caught up: long-poll for the next group, heartbeating while idle.
		select {
		case <-ctx.Done():
			return false
		case <-tail:
		case <-time.After(heartbeat):
			if !alive() {
				return false // graph dropped: end instead of heartbeating a ghost
			}
			if !sendCommit(*sent) || !flush() {
				return false
			}
		}
	}
}

// queryUint parses an optional unsigned integer query parameter (absent
// means zero) from the parsed query string q.
func queryUint(q url.Values, key string) (uint64, error) {
	s := q.Get(key)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %q is not an unsigned integer", errBadParam, key)
	}
	return v, nil
}
