package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"time"

	"parcc"
)

// The HTTP surface of the engine, served by cmd/ccserved and documented
// endpoint by endpoint in docs/OPERATIONS.md.  Everything is JSON; edges
// travel as [u,v] pairs.  Read endpoints answer from one snapshot per
// request (value and version are consistent with each other); mutation
// endpoints return only after the batch is applied and the refreshed
// snapshot published, so a client's next read observes its write.
//
// Error mapping (the typed taxonomy → status codes):
//
//	400  *VertexRangeError, *parcc.EdgeRangeError, malformed JSON/params
//	404  ErrGraphNotFound, ErrNoTrace
//	409  ErrGraphExists, *parcc.MissingEdgeError,
//	     parcc.ErrReadOnlyReplica (body carries the primary hint),
//	     ErrWALDisabled (compact/stream need a log)
//	413  *http.MaxBytesError (mutation body over the cap)
//	503  ErrEngineClosed (draining), parcc.ErrRecovering (replaying),
//	     *StaleVersionError (?min_version= newer than the snapshot),
//	     ErrShardFailed (the graph's log failed; reads still serve)
//	500  anything else
//
// Health probes are split: GET /healthz is liveness (200 whenever the
// process serves HTTP at all) and GET /readyz is readiness — 503 while
// recovering, while a shard has failed stop, or while a follower lags its
// primary beyond -max-lag; wait loops and load balancers should gate on
// /readyz (docs/OPERATIONS.md §replication).
type apiError struct {
	Error string `json:"error"`
}

// HandlerOptions configures the optional parts of the HTTP surface.
type HandlerOptions struct {
	// Pprof mounts net/http/pprof under /debug/pprof/.  Off by default —
	// the profiling endpoints expose heap contents and should only be
	// enabled on trusted networks (ccserved -pprof).
	Pprof bool
	// Readiness, when set, adds a veto to GET /readyz: a non-nil return
	// makes readiness report 503 with the error's text.  ccserved wires
	// the replication follower's lag check through this seam (the service
	// package must not import the replication layer).
	Readiness func() error
	// MaxBodyBytes caps mutation request bodies (create, add, remove,
	// batch); over-cap requests fail with 413.  Zero means the default
	// (64 MiB); negative disables the cap.
	MaxBodyBytes int64
	// StreamHeartbeat bounds how long an idle replication stream goes
	// without a commit heartbeat (default 1s) — the follower's freshness
	// clock ticks on these.
	StreamHeartbeat time.Duration
}

func (o HandlerOptions) withDefaults() HandlerOptions {
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = 64 << 20
	}
	if o.StreamHeartbeat <= 0 {
		o.StreamHeartbeat = time.Second
	}
	return o
}

// NewHandler returns the engine's HTTP API with the default options
// (no pprof).
func NewHandler(e *Engine) http.Handler {
	return NewHandlerOpts(e, HandlerOptions{})
}

// NewHandlerOpts returns the engine's HTTP API.
func NewHandlerOpts(e *Engine, opts HandlerOptions) http.Handler {
	opts = opts.withDefaults()
	capBody := func(w http.ResponseWriter, r *http.Request) {
		if opts.MaxBodyBytes > 0 {
			r.Body = http.MaxBytesReader(w, r.Body, opts.MaxBodyBytes)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness: the process is up and serving.  Recovering and lagging
		// states still answer 200 here — restarts don't fix either.
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if e.Recovering() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "recovering"})
			return
		}
		if err := e.Failed(); err != nil {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{
				"status": "failed", "reason": err.Error(),
			})
			return
		}
		if opts.Readiness != nil {
			if err := opts.Readiness(); err != nil {
				writeJSON(w, http.StatusServiceUnavailable, map[string]string{
					"status": "unready", "reason": err.Error(),
				})
				return
			}
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"since":          e.Since().UTC().Format(time.RFC3339Nano),
			"uptime_seconds": e.Uptime().Seconds(),
			"graphs":         e.Stats(),
		})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		e.WriteMetrics(w)
	})
	mux.HandleFunc("GET /graphs/{name}/trace", func(w http.ResponseWriter, r *http.Request) {
		tr, err := e.Trace(r.PathValue("name"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, tr)
	})
	if opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("GET /graphs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"graphs": e.Names()})
	})
	mux.HandleFunc("PUT /graphs/{name}", func(w http.ResponseWriter, r *http.Request) {
		capBody(w, r)
		var body struct {
			N     int        `json:"n"`
			Edges [][2]int32 `json:"edges"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			writeBodyError(w, err)
			return
		}
		if body.N < 0 || body.N > math.MaxInt32 {
			writeJSON(w, http.StatusBadRequest, apiError{"n must be in [0, 2147483647]"})
			return
		}
		g := parcc.NewGraph(body.N)
		for _, p := range body.Edges {
			g.Edges = append(g.Edges, parcc.Edge{U: p[0], V: p[1]})
		}
		name := r.PathValue("name")
		if err := e.Create(name, g); err != nil {
			writeError(w, err)
			return
		}
		// The response metadata is not a point read: view, not Snapshot,
		// leaves the read counters alone.
		_, sn, err := e.view(name)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]any{
			"graph": name, "n": body.N, "edges": len(body.Edges),
			"components": sn.NumComponents(), "version": sn.Version(),
		})
	})
	mux.HandleFunc("DELETE /graphs/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := e.Drop(r.PathValue("name")); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /graphs/{name}/edges", mutateHandler(e, false, capBody))
	mux.HandleFunc("POST /graphs/{name}/edges/remove", mutateHandler(e, true, capBody))
	mux.HandleFunc("GET /graphs/{name}/wal", func(w http.ResponseWriter, r *http.Request) {
		e.streamWAL(w, r, opts.StreamHeartbeat)
	})
	mux.HandleFunc("POST /graphs/{name}/compact", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if err := e.Compact(name); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"graph": name, "compacted": true})
	})
	// The point reads parse the query string once and encode their bodies
	// with strconv appends instead of a map through json.Encoder — the
	// bytes are identical, at a fraction of the allocations.
	mux.HandleFunc("GET /graphs/{name}/connected", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		sn, err := snapshotMin(e, r, q)
		if err != nil {
			writeError(w, err)
			return
		}
		u, err := queryVertex(q, "u", sn.N())
		if err != nil {
			writeError(w, err)
			return
		}
		v, err := queryVertex(q, "v", sn.N())
		if err != nil {
			writeError(w, err)
			return
		}
		writeBody(w, connectedBody(sn.Connected(u, v), sn.Version()))
	})
	mux.HandleFunc("GET /graphs/{name}/component", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		sn, err := snapshotMin(e, r, q)
		if err != nil {
			writeError(w, err)
			return
		}
		u, err := queryVertex(q, "u", sn.N())
		if err != nil {
			writeError(w, err)
			return
		}
		writeBody(w, componentBody(sn.ComponentOf(u), sn.ComponentSize(u), sn.Version()))
	})
	mux.HandleFunc("GET /graphs/{name}/count", func(w http.ResponseWriter, r *http.Request) {
		sn, err := snapshotMin(e, r, r.URL.Query())
		if err != nil {
			writeError(w, err)
			return
		}
		writeBody(w, countBody(sn.NumComponents(), sn.Version()))
	})
	mux.HandleFunc("GET /graphs/{name}/snapshot", func(w http.ResponseWriter, r *http.Request) {
		sn, err := snapshotMin(e, r, r.URL.Query())
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"n": sn.N(), "components": sn.NumComponents(),
			"version": sn.Version(), "labels": sn.Labels(),
		})
	})
	mux.HandleFunc("POST /graphs/{name}/batch", func(w http.ResponseWriter, r *http.Request) {
		capBody(w, r)
		batchHandler(e, w, r)
	})
	return mux
}

// snapshotMin resolves the request's snapshot, honoring the
// bounded-staleness contract: with ?min_version=V, a published snapshot
// older than V is refused with a *StaleVersionError (503) instead of
// served stale — the caller retries, or asks a fresher replica.  q is the
// request's parsed query string.
func snapshotMin(e *Engine, r *http.Request, q url.Values) (*parcc.Snapshot, error) {
	name := r.PathValue("name")
	sn, err := e.Snapshot(name)
	if err != nil {
		return nil, err
	}
	mv, err := queryUint(q, "min_version")
	if err != nil {
		return nil, err
	}
	if mv > 0 && sn.Version() < mv {
		return nil, &StaleVersionError{Graph: name, Have: sn.Version(), MinVersion: mv}
	}
	return sn, nil
}

func mutateHandler(e *Engine, remove bool, capBody func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		capBody(w, r)
		var body struct {
			Edges [][2]int32 `json:"edges"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			writeBodyError(w, err)
			return
		}
		name := r.PathValue("name")
		batch := make([]parcc.Edge, len(body.Edges))
		for i, p := range body.Edges {
			batch[i] = parcc.Edge{U: p[0], V: p[1]}
		}
		var err error
		if remove {
			err = e.RemoveEdges(name, batch)
		} else {
			err = e.AddEdges(name, batch)
		}
		if err != nil {
			writeError(w, err)
			return
		}
		_, sn, err := e.view(name) // response metadata, not a counted read
		if err != nil {
			writeError(w, err)
			return
		}
		key := "added"
		if remove {
			key = "removed"
		}
		writeJSON(w, http.StatusOK, map[string]any{
			key: len(batch), "components": sn.NumComponents(), "version": sn.Version(),
		})
	}
}

// batchOp is one line of the NDJSON batch protocol.
type batchOp struct {
	Op    string     `json:"op"` // connected | component | count | add | remove
	U     *int       `json:"u,omitempty"`
	V     *int       `json:"v,omitempty"`
	Edges [][2]int32 `json:"edges,omitempty"`
}

// batchHandler streams the NDJSON batch endpoint: one JSON op per request
// line, one JSON result per response line, in order.  Ops execute
// sequentially, each against the then-current state — a read after an
// "add" line observes it.  A failing line reports {"error": ...} and the
// stream continues; only a malformed request aborts it.
func batchHandler(e *Engine, w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var op batchOp
		if err := json.Unmarshal(line, &op); err != nil {
			enc.Encode(apiError{"invalid op: " + err.Error()})
			continue
		}
		enc.Encode(runBatchOp(e, name, &op))
		if flusher != nil {
			flusher.Flush()
		}
	}
	if err := sc.Err(); err != nil {
		// The stream died mid-body (oversized line, read error): emit one
		// final error line so the client can tell truncation from
		// completion — the remaining ops never ran.
		enc.Encode(apiError{"batch stream aborted: " + err.Error()})
	}
}

func runBatchOp(e *Engine, name string, op *batchOp) any {
	switch op.Op {
	case "connected":
		if op.U == nil || op.V == nil {
			return apiError{`"connected" needs u and v`}
		}
		ok, err := e.Connected(name, *op.U, *op.V)
		if err != nil {
			return apiError{err.Error()}
		}
		return map[string]any{"connected": ok}
	case "component":
		if op.U == nil {
			return apiError{`"component" needs u`}
		}
		sn, err := e.Snapshot(name)
		if err != nil {
			return apiError{err.Error()}
		}
		if *op.U < 0 || *op.U >= sn.N() {
			return apiError{(&VertexRangeError{V: *op.U, N: sn.N()}).Error()}
		}
		return map[string]any{"component": sn.ComponentOf(*op.U), "size": sn.ComponentSize(*op.U)}
	case "count":
		k, err := e.ComponentCount(name)
		if err != nil {
			return apiError{err.Error()}
		}
		return map[string]any{"components": k}
	case "add", "remove":
		batch := make([]parcc.Edge, len(op.Edges))
		for i, p := range op.Edges {
			batch[i] = parcc.Edge{U: p[0], V: p[1]}
		}
		var err error
		if op.Op == "remove" {
			err = e.RemoveEdges(name, batch)
		} else {
			err = e.AddEdges(name, batch)
		}
		if err != nil {
			return apiError{err.Error()}
		}
		key := "added"
		if op.Op == "remove" {
			key = "removed"
		}
		return map[string]any{key: len(batch)}
	default:
		return apiError{fmt.Sprintf("unknown op %q", op.Op)}
	}
}

// errBadParam marks malformed request parameters; writeError maps it to
// 400 without string matching.
var errBadParam = errors.New("bad request parameter")

func queryVertex(q url.Values, key string, n int) (int, error) {
	s := q.Get(key)
	if s == "" {
		return 0, fmt.Errorf("%w: missing %q", errBadParam, key)
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("%w: %q is not an integer", errBadParam, key)
	}
	if v < 0 || v >= n {
		return 0, &VertexRangeError{V: v, N: n}
	}
	return v, nil
}

// writeBodyError classifies a request-body decode failure: an over-cap
// body is a 413 (the MaxBytesReader tripped), anything else malformed
// JSON (400).
func writeBodyError(w http.ResponseWriter, err error) {
	var mb *http.MaxBytesError
	if errors.As(err, &mb) {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusBadRequest, apiError{"invalid JSON body: " + err.Error()})
}

// connectedBody, componentBody and countBody encode the point-read
// bodies byte for byte as json.Encoder writes the equivalent map (keys
// sorted, trailing newline), into one buffer sized for the longest.
func connectedBody(connected bool, version uint64) []byte {
	b := strconv.AppendBool(append(make([]byte, 0, 96), `{"connected":`...), connected)
	return appendVersion(b, version)
}

func componentBody(component int32, size int, version uint64) []byte {
	b := strconv.AppendInt(append(make([]byte, 0, 96), `{"component":`...), int64(component), 10)
	b = strconv.AppendInt(append(b, `,"size":`...), int64(size), 10)
	return appendVersion(b, version)
}

func countBody(components int, version uint64) []byte {
	b := strconv.AppendInt(append(make([]byte, 0, 96), `{"components":`...), int64(components), 10)
	return appendVersion(b, version)
}

func appendVersion(b []byte, version uint64) []byte {
	return append(strconv.AppendUint(append(b, `,"version":`...), version, 10), "}\n"...)
}

// writeBody writes a pre-encoded JSON body with status 200.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body) // a failed write means the client is gone; nothing to report
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError maps the typed error taxonomy onto HTTP statuses.
func writeError(w http.ResponseWriter, err error) {
	var roe *parcc.ReadOnlyReplicaError
	if errors.As(err, &roe) {
		// The 409 body names the primary so clients redirect, not retry.
		writeJSON(w, http.StatusConflict, map[string]string{
			"error": roe.Error(), "primary": roe.Primary,
		})
		return
	}
	var (
		vr *VertexRangeError
		re *parcc.EdgeRangeError
		me *parcc.MissingEdgeError
		sv *StaleVersionError
		mb *http.MaxBytesError
	)
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrGraphNotFound), errors.Is(err, ErrNoTrace):
		status = http.StatusNotFound
	case errors.Is(err, ErrGraphExists), errors.As(err, &me),
		errors.Is(err, ErrWALDisabled), errors.Is(err, parcc.ErrReadOnlyReplica):
		status = http.StatusConflict
	case errors.As(err, &mb):
		status = http.StatusRequestEntityTooLarge
	case errors.As(err, &vr), errors.As(err, &re),
		errors.Is(err, parcc.ErrNilGraph), errors.Is(err, errBadParam):
		status = http.StatusBadRequest
	case errors.Is(err, ErrEngineClosed), errors.Is(err, parcc.ErrRecovering),
		errors.Is(err, ErrShardFailed), errors.As(err, &sv):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, apiError{err.Error()})
}
