package parcc

import (
	"errors"
	"fmt"
)

// This file is the error taxonomy of the Solver API.  Every error returned
// by the session and incremental entry points either is one of the
// sentinels below or wraps one of the typed errors, so callers (and the
// serving layer in internal/service, which maps them to HTTP statuses)
// dispatch with errors.Is / errors.As instead of matching strings:
//
//	ErrSolverClosed   — the Solver was Closed; no call succeeds afterwards.
//	ErrNotAttached    — an incremental call (AddEdges, RemoveEdges,
//	                    Components, ComponentsInto, PublishSnapshot) before
//	                    Attach bound a live graph.
//	ErrNilGraph       — a nil *Graph was passed where a graph is required.
//	*EdgeRangeError   — an attached or batch edge has an endpoint outside
//	                    [0, n); the error carries the offending edge and
//	                    the bound.
//	*ProcsRangeError  — Options.Procs was negative; parallelism is zero
//	                    (defaulted) or positive, never clamped silently.
//	*MissingEdgeError — a RemoveEdges batch references more occurrences of
//	                    some edge than the live multiset holds; the error
//	                    carries the shortfall.
//	ErrRecovering     — the serving layer is replaying its write-ahead log;
//	                    the call should be retried once recovery finishes
//	                    (mapped to HTTP 503 by internal/service).
//	*WALCorruptionError — a write-ahead-log file failed to decode; the
//	                    error carries the file, byte offset, reason, and
//	                    whether the damage is a torn tail (tolerated on
//	                    recovery) or mid-log corruption (fatal).
//	ErrReadOnlyReplica / *ReadOnlyReplicaError — the serving layer is a
//	                    follower replica: it tails a primary's write-ahead
//	                    log and serves reads, but accepts no writes.  The
//	                    typed carrier names the primary to write to
//	                    (mapped to HTTP 409 by internal/service).
//
// All mutating calls fail without mutating: an error from AddEdges or
// RemoveEdges leaves the live graph, the partition, and the published
// snapshot exactly as they were.

// ErrSolverClosed reports a call on a Solver after Close.
var ErrSolverClosed = errors.New("parcc: solver is closed")

// ErrNotAttached reports an incremental-API call on a Solver with no live
// graph (Attach has not been called, or the last Attach failed).
var ErrNotAttached = errors.New("parcc: no live graph attached (call Attach first)")

// ErrNilGraph reports a nil graph argument.
var ErrNilGraph = errors.New("parcc: nil graph")

// EdgeRangeError reports a batch edge whose endpoint is outside [0, N).
// Returned by Attach, AddEdges and RemoveEdges; match with errors.As.
type EdgeRangeError struct {
	Edge Edge // the offending edge
	N    int  // the live graph's vertex-count bound
}

func (e *EdgeRangeError) Error() string {
	return fmt.Sprintf("parcc: edge (%d,%d) out of range [0,%d)", e.Edge.U, e.Edge.V, e.N)
}

// ProcsRangeError reports a negative Options.Procs.  Zero means "use the
// default"; a negative request has no sensible reading, and clamping it
// silently would hide the caller bug, so NewSolver (and therefore
// ConnectedComponents) rejects it before any session state is built.
type ProcsRangeError struct {
	Procs int
}

func (e *ProcsRangeError) Error() string {
	return fmt.Sprintf("parcc: Options.Procs = %d is negative (0 selects the default)", e.Procs)
}

// MissingEdgeError reports a RemoveEdges batch that references more
// occurrences of some edge than the live multiset holds.  Count is the
// total shortfall across the batch.  The live graph is unchanged.
type MissingEdgeError struct {
	Count int
}

func (e *MissingEdgeError) Error() string {
	return fmt.Sprintf("parcc: remove batch includes %d edge occurrence(s) not in the live graph", e.Count)
}

// ErrRecovering reports a call rejected because the serving layer is
// still replaying its write-ahead log.  Transient: retry after recovery.
var ErrRecovering = errors.New("parcc: recovering from write-ahead log")

// WALCorruptionError reports a write-ahead-log frame that failed to
// decode.  Torn marks damage consistent with an interrupted final write
// (a truncated length prefix or frame body): recovery tolerates exactly
// that, truncating the log to the last whole record.  Any non-torn
// corruption (checksum mismatch, impossible lengths, unknown record
// kinds, a record the session rejects on replay) fails recovery instead —
// a log that lies must never yield silent partial state.  Match with
// errors.As.
type WALCorruptionError struct {
	Path   string // log file ("" when decoding a byte stream)
	Offset int64  // byte offset of the offending frame
	Reason string
	Torn   bool
}

// ErrReadOnlyReplica reports a mutation sent to a follower replica.
// Followers reconstruct their graphs from a primary's write-ahead-log
// stream; accepting a local write would fork the replicated history, so
// every mutating call is rejected.  Match with errors.Is; the concrete
// error is a *ReadOnlyReplicaError naming the primary.
var ErrReadOnlyReplica = errors.New("parcc: replica is read-only")

// ReadOnlyReplicaError is the carrier behind ErrReadOnlyReplica: it names
// the primary that accepts writes for this replica's graphs, so clients
// (and the HTTP 409 response body) can redirect instead of retrying here.
type ReadOnlyReplicaError struct {
	Primary string // base URL of the primary, "" when not configured
}

func (e *ReadOnlyReplicaError) Error() string {
	if e.Primary == "" {
		return "parcc: replica is read-only"
	}
	return fmt.Sprintf("parcc: replica is read-only (writes go to primary %s)", e.Primary)
}

// Unwrap makes errors.Is(err, ErrReadOnlyReplica) match the carrier.
func (e *ReadOnlyReplicaError) Unwrap() error { return ErrReadOnlyReplica }

func (e *WALCorruptionError) Error() string {
	kind := "corrupt"
	if e.Torn {
		kind = "torn"
	}
	path := e.Path
	if path == "" {
		path = "wal"
	}
	return fmt.Sprintf("parcc: %s %s at offset %d: %s", kind, path, e.Offset, e.Reason)
}
