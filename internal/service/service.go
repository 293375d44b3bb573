// Package service is the connectivity-as-a-service layer: a concurrent
// multi-graph query engine managing a shard map of named live sessions,
// each an incremental parcc.Solver behind a single-writer/many-reader
// discipline.
//
// The read path is lock-free: point queries (Connected, ComponentOf,
// ComponentCount, ComponentSize) resolve the shard through a sync.Map and
// answer from the session's published immutable label snapshot
// (Solver.ReadView — one atomic pointer load), so reads never block on
// writers and never observe a half-spliced partition.  The write path is a
// single writer goroutine per shard draining a mutation queue: queued
// AddEdges/RemoveEdges calls are coalesced into combined batches before
// hitting the incremental path, amortizing the per-batch costs (the O(m)
// delete sweep, the O(n) snapshot publish) across every caller that
// queued while the previous batch was applying.  One snapshot is
// published per coalesced group, and callers are released only after the
// publish — a caller's own reads always observe its completed write.
//
// Engine errors follow the same typed-taxonomy convention as parcc
// (errors.Is / errors.As, never string matching); the HTTP layer in this
// package maps them to status codes.  docs/OPERATIONS.md is the
// deployment and tuning guide.
package service

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parcc"
	"parcc/internal/obs"
)

// ErrEngineClosed reports a call on an Engine after Close.
var ErrEngineClosed = errors.New("service: engine is closed")

// ErrGraphNotFound reports a query against a name with no live session.
var ErrGraphNotFound = errors.New("service: graph not found")

// ErrGraphExists reports a Create with a name that already has a session.
var ErrGraphExists = errors.New("service: graph already exists")

// ErrNoTrace reports a trace query against a session that has no recorded
// trace — either the engine's solvers run with tracing off, or no traced
// operation has completed yet.
var ErrNoTrace = errors.New("service: no trace recorded")

// ErrWALDisabled reports a WAL-dependent call (log streaming, compaction)
// on an engine running without Options.WALDir.
var ErrWALDisabled = errors.New("service: write-ahead log disabled")

// ErrShardFailed reports a mutation or compaction on a shard that failed
// stop on a log write, fsync or checkpoint error (see shard.fail); the
// error returned names the graph and wraps the cause.  Reads keep serving
// the last published snapshot.  Mapped to HTTP 503; a restart recovers.
var ErrShardFailed = errors.New("service: shard failed stop on a write-ahead-log error")

// StaleVersionError reports a read that demanded a snapshot at least as
// new as MinVersion (?min_version=) from a session whose published
// snapshot is older — the bounded-staleness contract's refusal.  Mapped to
// HTTP 503 so a fresh retry (or another replica) can satisfy it.
type StaleVersionError struct {
	Graph      string
	Have       uint64 // the published snapshot's version
	MinVersion uint64 // what the caller demanded
}

func (e *StaleVersionError) Error() string {
	return fmt.Sprintf("service: graph %q snapshot version %d is older than required min_version %d",
		e.Graph, e.Have, e.MinVersion)
}

// VertexRangeError reports a point query with a vertex outside [0, N).
type VertexRangeError struct {
	V int // the offending vertex
	N int // the graph's vertex-count bound
}

func (e *VertexRangeError) Error() string {
	return fmt.Sprintf("service: vertex %d out of range [0,%d)", e.V, e.N)
}

// Options configures an Engine.
type Options struct {
	// Solver configures every shard's parcc.Solver (nil: parcc defaults).
	Solver *parcc.Options
	// CoalesceWindow is how long the shard writer waits, after picking up
	// one mutation, for more to queue before applying the combined batch.
	// Zero (the default) coalesces only what is already queued — lowest
	// latency; larger windows trade write latency for bigger batches:
	// one snapshot publish, one WAL append and fsync, and at most one
	// scoped repair per batch, however many callers share it.
	CoalesceWindow time.Duration
	// WALDir enables per-shard durability: every coalesced mutation group
	// is appended to a write-ahead log under this directory and fsync'd
	// before its callers are released, and Recover replays the logs on
	// startup.  Empty (the default) disables the WAL entirely.
	WALDir string
	// ReadOnly makes the engine a follower replica: every mutating call
	// (Create, Drop, AddEdges, RemoveEdges, Compact) fails with a
	// *parcc.ReadOnlyReplicaError, and sessions are built only by
	// ApplyReplicaGroup from the log groups a replication layer streams
	// from the primary.
	ReadOnly bool
	// Primary is the base URL of the primary that accepts writes for this
	// replica's graphs; it rides in the ReadOnlyReplicaError (and the HTTP
	// 409 body) so clients can redirect instead of retrying here.
	Primary string
}

const (
	// maxBatchEdges caps the edges combined into one coalesced apply, so
	// worst-case apply latency — and with it snapshot staleness — stays
	// bounded under write floods.
	maxBatchEdges = 1 << 16
	// queueDepth is the per-shard mutation queue capacity.  Writers
	// beyond it block in Add/RemoveEdges: closed-loop back pressure, not
	// an error.
	queueDepth = 256
)

// Engine is the multi-session connectivity service.  All methods are safe
// for concurrent use.
type Engine struct {
	opt    Options
	shards sync.Map // name -> *shard
	closed atomic.Bool
	wg     sync.WaitGroup // one writer goroutine per live shard
	// life serializes session creation against Close: Create holds the
	// read side across the closed check, shard registration, and wg.Add,
	// so Close (write side) can never observe the closed flag set while a
	// registration is still in flight — every shard it drains is fully
	// registered, and wg.Add never races wg.Wait from a zero counter.
	// The query/mutation paths never touch it.
	life sync.RWMutex

	// start anchors the /stats since timestamp and the uptime gauge.  Go's
	// time.Time carries the monotonic clock, so Uptime is monotone across
	// wall-clock steps.
	start time.Time
	// reg is the engine's metrics registry; publish is the snapshot-publish
	// latency histogram every shard observes into.  Metric updates are
	// lock-free atomics on the serving paths; only scrapes take the
	// registry lock.
	reg     *obs.Registry
	publish *obs.Histogram

	// recovering gates the API while Recover replays the write-ahead
	// logs: lookups and Creates fail with parcc.ErrRecovering (HTTP 503)
	// until every log has been replayed, so no reader can observe a graph
	// at a pre-crash state mid-replay.
	recovering atomic.Bool

	// The engine-wide totals, each bumped at its event, beside the shard's
	// own counter or in the walWriter (wal.go): they belong to the engine,
	// not to a session, so none falls when a session leaves.
	reads, writes, applies, coalesced obs.CounterMetric
	wal                               walCounts
	// walErrs counts the log errors that failed a shard stop (shard.fail).
	walErrs obs.CounterMetric
	// WAL streaming counters (the replication endpoint in stream.go).
	streamConns  obs.CounterMetric // stream requests accepted
	streamActive atomic.Int64      // streams currently open
	streamFrames obs.CounterMetric // frames sent to followers
	streamBytes  obs.CounterMetric // bytes sent to followers
	// Replay totals of the last Recover, for the metrics surface.
	replayRecords atomic.Uint64
	replayEdges   atomic.Uint64
	replayNanos   atomic.Int64
}

// retire deletes name's shard from the live map and shuts it down,
// deleting its log when drop is set (see shutdown).  It reports whether
// a session had the name.
func (e *Engine) retire(name string, drop bool) bool {
	v, ok := e.shards.LoadAndDelete(name)
	if ok {
		v.(*shard).shutdown(drop)
	}
	return ok
}

// New returns an empty engine.  Close releases every session.
func New(opt Options) *Engine {
	e := &Engine{opt: opt, start: time.Now(), reg: obs.NewRegistry()}
	if e.opt.WALDir != "" {
		// Best-effort: an unusable directory surfaces as a typed error on
		// the first Create/Recover that touches it.
		os.MkdirAll(e.opt.WALDir, 0o755)
	}
	e.registerMetrics()
	return e
}

// registerMetrics builds the engine's Prometheus surface: engine-wide
// totals, derived gauges (coalesce ratio, queue depth), the
// snapshot-publish latency histogram, and the per-shard labeled series.  The full name table is in
// docs/ARCHITECTURE.md §8.
func (e *Engine) registerMetrics() {
	e.reg.GaugeFunc("parcc_engine_uptime_seconds",
		"Seconds since the engine started (monotonic clock).",
		func() float64 { return e.Uptime().Seconds() })
	e.reg.GaugeFunc("parcc_engine_graphs",
		"Live sessions currently served.",
		func() float64 {
			n := 0
			e.eachShard(func(*shard) { n++ })
			return float64(n)
		})
	e.reg.Counter("parcc_engine_reads_total", "Point queries served, summed over all sessions.", &e.reads)
	e.reg.Counter("parcc_engine_writes_total", "Mutations accepted (callers), summed over all sessions.", &e.writes)
	e.reg.Counter("parcc_engine_applies_total", "Combined batches applied through the incremental path.", &e.applies)
	e.reg.Counter("parcc_engine_coalesced_total", "Mutations that shared a combined apply with another caller.", &e.coalesced)
	e.reg.GaugeFunc("parcc_engine_coalesce_ratio",
		"Fraction of accepted mutations that shared an apply (coalesced/writes).",
		func() float64 {
			writes := e.writes.Load()
			if writes == 0 {
				return 0
			}
			return float64(e.coalesced.Load()) / float64(writes)
		})
	e.reg.GaugeFunc("parcc_engine_edges",
		"Live edges across all sessions.",
		func() float64 {
			total := 0
			e.eachShard(func(sh *shard) { total += sh.edges() })
			return float64(total)
		})
	e.reg.GaugeFunc("parcc_engine_queue_depth",
		"Mutations queued and not yet applied, summed over all shard queues.",
		func() float64 {
			total := 0
			e.eachShard(func(sh *shard) { total += len(sh.reqs) })
			return float64(total)
		})
	e.publish = e.reg.Histogram("parcc_snapshot_publish_seconds",
		"Latency of snapshot publishes (copy-on-write: O(pages touched by the write group)).")
	e.reg.Counter("parcc_wal_appends_total", "Write-ahead-log frames appended, summed over all sessions.", &e.wal.appends)
	e.reg.Counter("parcc_wal_bytes_total", "Write-ahead-log bytes appended, summed over all sessions.", &e.wal.bytes)
	e.reg.Counter("parcc_wal_fsyncs_total", "Write-ahead-log fsyncs issued, summed over all sessions.", &e.wal.fsyncs)
	e.reg.Counter("parcc_wal_errors_total",
		"Write-ahead-log append, fsync or checkpoint errors; each fails its shard stop (no publish, writes answer 503).", &e.walErrs)
	e.reg.Collect("parcc_wal_replay_records_total",
		"Write-ahead-log records replayed by the last Recover.", "counter",
		func(w io.Writer, name string) {
			fmt.Fprintf(w, "%s %d\n", name, e.replayRecords.Load())
		})
	e.reg.Collect("parcc_wal_replay_edges_total",
		"Edges decoded from the log by the last Recover: the head record plus every batch.", "counter",
		func(w io.Writer, name string) {
			fmt.Fprintf(w, "%s %d\n", name, e.replayEdges.Load())
		})
	e.reg.GaugeFunc("parcc_wal_replay_seconds",
		"Wall time of the last Recover's replay.",
		func() float64 { return time.Duration(e.replayNanos.Load()).Seconds() })
	e.reg.Counter("parcc_wal_checkpoints_total", "Write-ahead-log checkpoint rewrites (compaction), summed over all sessions.", &e.wal.checkpoints)
	e.reg.Counter("parcc_wal_stream_conns_total", "Replication stream requests accepted.", &e.streamConns)
	e.reg.GaugeFunc("parcc_wal_stream_conns_active",
		"Replication streams currently open.",
		func() float64 { return float64(e.streamActive.Load()) })
	e.reg.Counter("parcc_wal_stream_frames_total",
		"Frames sent on replication streams (including commit heartbeats).", &e.streamFrames)
	e.reg.Counter("parcc_wal_stream_bytes_total", "Bytes sent on replication streams.", &e.streamBytes)
	e.reg.Collect("parcc_shard_reads_total",
		"Point queries served, per session.", "counter",
		e.perShard(func(sh *shard) string { return fmt.Sprintf("%d", sh.reads.Load()) }))
	e.reg.Collect("parcc_shard_writes_total",
		"Mutations accepted, per session.", "counter",
		e.perShard(func(sh *shard) string { return fmt.Sprintf("%d", sh.writes.Load()) }))
	e.reg.Collect("parcc_shard_edges",
		"Live edge count, per session.", "gauge",
		e.perShard(func(sh *shard) string { return fmt.Sprintf("%d", sh.edges()) }))
	e.reg.Collect("parcc_shard_queue_depth",
		"Queued mutations, per session.", "gauge",
		e.perShard(func(sh *shard) string { return fmt.Sprintf("%d", len(sh.reqs)) }))
	e.reg.Collect("parcc_shard_components",
		"Components in the published snapshot, per session.", "gauge",
		e.perShard(func(sh *shard) string {
			if sn := sh.s.ReadView(); sn != nil {
				return fmt.Sprintf("%d", sn.NumComponents())
			}
			return "0"
		}))
}

// eachShard visits every live shard (unordered).
func (e *Engine) eachShard(fn func(sh *shard)) {
	e.shards.Range(func(_, v any) bool {
		fn(v.(*shard))
		return true
	})
}

// perShard adapts a per-shard value function into a Collect callback that
// emits one labeled sample line per session, sorted by name so scrapes
// are deterministic.
func (e *Engine) perShard(value func(sh *shard) string) func(io.Writer, string) {
	return func(w io.Writer, name string) {
		var shs []*shard
		e.eachShard(func(sh *shard) { shs = append(shs, sh) })
		sort.Slice(shs, func(i, j int) bool { return shs[i].name < shs[j].name })
		for _, sh := range shs {
			fmt.Fprintf(w, "%s{graph=\"%s\"} %s\n", name, obs.EscapeLabel(sh.name), value(sh))
		}
	}
}

// WriteMetrics renders the engine's metrics in the Prometheus text
// exposition format — the body of GET /metrics.
func (e *Engine) WriteMetrics(w io.Writer) { e.reg.WritePrometheus(w) }

// Registry exposes the engine's metrics registry so cooperating layers
// (the replication follower) can add their own series to the same
// /metrics surface.
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Recovering reports whether Recover is still replaying write-ahead logs
// (the readiness probe's recovering state).
func (e *Engine) Recovering() bool { return e.recovering.Load() }

// ReadOnly reports whether the engine is a follower replica.
func (e *Engine) ReadOnly() bool { return e.opt.ReadOnly }

// Primary returns the configured primary hint of a read-only engine.
func (e *Engine) Primary() string { return e.opt.Primary }

// walHandle resolves the named shard's log handle for the streaming
// endpoint.
func (e *Engine) walHandle(name string) (*walWriter, error) {
	sh, err := e.lookup(name)
	if err != nil {
		return nil, err
	}
	w := sh.wal.Load()
	if w == nil {
		return nil, ErrWALDisabled
	}
	return w, nil
}

// Since returns the engine's start time.
func (e *Engine) Since() time.Time { return e.start }

// Uptime returns how long the engine has been up, on the monotonic clock.
func (e *Engine) Uptime() time.Duration { return time.Since(e.start) }

// Trace returns the named session's most recent operation trace — the
// body of GET /graphs/{name}/trace.  Errors: ErrGraphNotFound, or
// ErrNoTrace when the session's solver runs with tracing off or has not
// completed a traced operation yet.
func (e *Engine) Trace(name string) (*parcc.Trace, error) {
	sh, err := e.lookup(name)
	if err != nil {
		return nil, err
	}
	tr := sh.s.LastTrace()
	if tr == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoTrace, name)
	}
	return tr, nil
}

// mutation is one queued write: a batch plus the channel its caller waits
// on.  The reply is sent after the batch is applied AND the new snapshot
// is published, so the caller's subsequent reads see its write.
type mutation struct {
	remove bool
	// compact marks a log-compaction barrier instead of a batch: the writer
	// checkpoints the WAL between groups (never inside one), so the
	// checkpoint's state is exactly the log's state at its seq.
	compact bool
	batch   []parcc.Edge
	err     chan error
}

// shard is one named live session: the incremental solver, its mutation
// queue, and the serving counters.  Exactly one writer goroutine consumes
// reqs; any number of readers answer from the solver's published snapshot.
type shard struct {
	eng  *Engine // engine totals, publish histograms, WAL failure counter
	name string
	n    int // vertex count, fixed at Create
	s    *parcc.Solver
	reqs chan *mutation
	done chan struct{} // closed when the writer has drained and exited
	// wal is the shard's write-ahead-log handle (nil: durability off).
	// Appended to only by the writer goroutine, after a group is applied
	// and before its snapshot is published and its callers released.
	// Atomic because it is published after the shard is registered, while
	// metric collectors and the stream endpoint may already be reading.
	wal atomic.Pointer[walWriter]
	// replica marks a shard built by ApplyReplicaGroup: no writer
	// goroutine, no queue, no WAL — streamed groups are applied under the
	// write side of state instead.
	replica bool
	// failed is the shard's fail-stop error, nil while healthy (see fail).
	failed atomic.Pointer[error]

	// state guards the closing flag against enqueuers: senders hold the
	// read side across the channel send, Drop/Close take the write side
	// before closing reqs, so a send can never hit a closed channel.  On a
	// replica, ApplyReplicaGroup holds the write side across each group,
	// so shutdown never closes the session under an apply.
	state   sync.RWMutex
	closing bool

	// The shard's share of the engine totals, for the labeled series and
	// /stats; each is bumped beside its engine total.
	reads     atomic.Uint64 // point queries served
	writes    atomic.Uint64 // mutations accepted (callers)
	applies   atomic.Uint64 // combined batches applied
	coalesced atomic.Uint64 // mutations that shared an apply with another
}

// read counts one point query served.
func (sh *shard) read() {
	sh.reads.Add(1)
	sh.eng.reads.Inc()
}

// wrote counts one mutation accepted.
func (sh *shard) wrote() {
	sh.writes.Add(1)
	sh.eng.writes.Inc()
}

// edges is the live edge count at the shard's published version (0
// before its first publish).
func (sh *shard) edges() int {
	if sn := sh.s.ReadView(); sn != nil {
		return sn.NumEdges()
	}
	return 0
}

// Create attaches g as a new live session under name and publishes its
// first snapshot once its birth record is durable; the engine owns g
// afterwards (mutate it only through AddEdges/RemoveEdges).  Errors:
// ErrEngineClosed, ErrGraphExists, whatever Solver.Attach rejects (a
// *parcc.EdgeRangeError for an out-of-range edge), or ErrShardFailed when
// the birth record fails — the graph was never readable, and its log may
// or may not bring it back on the next recovery.
func (e *Engine) Create(name string, g *parcc.Graph) error {
	e.life.RLock()
	defer e.life.RUnlock()
	if e.closed.Load() {
		return ErrEngineClosed
	}
	if e.opt.ReadOnly {
		return &parcc.ReadOnlyReplicaError{Primary: e.opt.Primary}
	}
	if e.recovering.Load() {
		return fmt.Errorf("service: %w", parcc.ErrRecovering)
	}
	if name == "" {
		return fmt.Errorf("service: empty graph name")
	}
	if g == nil {
		return parcc.ErrNilGraph
	}
	s, err := parcc.NewSolver(e.opt.Solver)
	if err != nil {
		return err
	}
	if err := s.Attach(g); err != nil {
		s.Close()
		return err
	}
	sh := e.newShard(name, g.N, s)
	if _, raced := e.shards.LoadOrStore(name, sh); raced {
		s.Close()
		return fmt.Errorf("%w: %q", ErrGraphExists, name)
	}
	// Registered but unpublished: readers get ErrGraphNotFound and writers
	// queue until the birth record is durable.  The name is registered, so
	// no concurrent Create shares the log file.
	if e.opt.WALDir != "" {
		err = e.attachWAL(sh, g)
	}
	if err == nil {
		e.publishSnapshot(s) // cannot fail: attached, and no writer runs yet
	} else {
		err = sh.fail(err)
	}
	e.wg.Add(1)
	go e.writer(sh)
	if err != nil {
		e.retire(name, false) // the writer fails out whatever queued
	}
	return err
}

// newShard builds a shard around an attached solver.
func (e *Engine) newShard(name string, n int, s *parcc.Solver) *shard {
	return &shard{
		eng:  e,
		name: name,
		n:    n,
		s:    s,
		reqs: make(chan *mutation, queueDepth),
		done: make(chan struct{}),
	}
}

// publishSnapshot publishes s's next snapshot and observes its latency in
// the publish histogram.
func (e *Engine) publishSnapshot(s *parcc.Solver) (*parcc.Snapshot, error) {
	t0 := time.Now()
	sn, err := s.PublishSnapshot()
	if err != nil {
		return nil, err
	}
	e.publish.Observe(time.Since(t0))
	return sn, nil
}

// attachWAL creates the shard's log and makes its birth record durable.
func (e *Engine) attachWAL(sh *shard, g *parcc.Graph) error {
	w, err := createWAL(e.opt.WALDir, sh.name, &e.wal)
	if err != nil {
		return err
	}
	sh.wal.Store(w)
	return w.appendCreate(g.N, g.Edges)
}

// fail stops the shard on a log error: from now on it publishes, appends
// and checkpoints nothing, and answers every mutation and compaction with
// the returned error, which matches ErrShardFailed and wraps cause.  The
// first cause sticks.
func (sh *shard) fail(cause error) error {
	err := fmt.Errorf("%w: graph %q: %w", ErrShardFailed, sh.name, cause)
	if sh.failed.CompareAndSwap(nil, &err) {
		sh.eng.walErrs.Inc()
	}
	return sh.err()
}

// err returns the shard's fail-stop error, or nil while it is healthy.
func (sh *shard) err() error {
	if p := sh.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// Failed returns the fail-stop error of some failed shard, or nil while
// every shard is healthy: the readiness probe's failed state.
func (e *Engine) Failed() (err error) {
	e.eachShard(func(sh *shard) {
		if err == nil {
			err = sh.err()
		}
	})
	return err
}

// Drop removes the named session: queued mutations are drained and
// applied, then the solver is released and the shard's write-ahead log
// (if any) is closed and deleted without a checkpoint — a dropped graph
// must not resurrect on the next recovery.  Readers that already hold
// the shard's snapshot keep a valid (now frozen) view.
func (e *Engine) Drop(name string) error {
	if e.opt.ReadOnly {
		return &parcc.ReadOnlyReplicaError{Primary: e.opt.Primary}
	}
	if !e.retire(name, true) {
		return fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	return nil
}

// Compact checkpoints the named session's write-ahead log: the live state
// becomes the log's head record and the fully-applied history before it
// is dropped, so the log's size tracks the graph, not its mutation count.
// The request rides the shard's writer queue — it runs after every
// mutation queued before it, never inside a coalesced group — and returns
// once the rewritten log is durable.  Errors: ErrGraphNotFound,
// ErrWALDisabled, *parcc.ReadOnlyReplicaError, or ErrShardFailed (a
// failed rewrite fails the shard stop).
func (e *Engine) Compact(name string) error {
	if e.opt.ReadOnly {
		return &parcc.ReadOnlyReplicaError{Primary: e.opt.Primary}
	}
	sh, err := e.lookup(name)
	if err != nil {
		return err
	}
	if e.opt.WALDir == "" {
		return ErrWALDisabled
	}
	m := &mutation{compact: true, err: make(chan error, 1)}
	sh.state.RLock()
	if sh.closing {
		sh.state.RUnlock()
		return fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	sh.reqs <- m // may block: queue-depth back pressure
	sh.state.RUnlock()
	return <-m.err
}

// ApplyReplicaGroup applies one committed group of a primary's log stream
// to the named replica session and publishes it at the group's seq, the
// version the primary published it at.  A group that opens with a create
// or checkpoint record replaces the session with one built from the group
// the way Recover builds one from a log (fold, one attach, one publish);
// the shard is swapped in atomically, so readers never see the graph
// missing, and the old session is closed.  Any other group runs frame by
// frame through the writer's apply path.  A failed group may leave the
// session partly applied but never publishes it: the caller must resync
// from a head record.  Calls for one name must not overlap.  Errors:
// ErrEngineClosed, ErrGraphNotFound (no session to apply to), a
// *parcc.WALCorruptionError for a malformed group, or whatever the
// incremental path rejects.
func (e *Engine) ApplyReplicaGroup(name string, group []StreamFrame) error {
	if !e.opt.ReadOnly {
		return fmt.Errorf("service: replica groups apply only to a read-only engine")
	}
	if len(group) == 0 || group[0].Seq == 0 {
		return &parcc.WALCorruptionError{Reason: "replica group without a seq"}
	}
	e.life.RLock()
	defer e.life.RUnlock()
	if e.closed.Load() {
		return ErrEngineClosed
	}
	seq := group[0].Seq
	if k := group[0].Kind; k == walKindCreate || k == walKindCheckpoint {
		s, _, err := e.buildSession(group, seq)
		if err != nil {
			return err
		}
		sh := e.newShard(name, group[0].N, s)
		sh.replica = true
		sh.reqs = nil // no writer: len(nil chan) = 0 keeps the queue gauges honest
		for {
			v, loaded := e.shards.LoadOrStore(name, sh)
			if !loaded {
				return nil
			}
			// The new session carries the old one's /stats counts on.
			old := v.(*shard)
			sh.reads.Store(old.reads.Load())
			sh.writes.Store(old.writes.Load())
			sh.applies.Store(old.applies.Load())
			if e.shards.CompareAndSwap(name, v, sh) {
				old.shutdown(false) // readers holding its snapshot keep a valid view
				return nil
			}
		}
	}
	sh, err := e.lookup(name)
	if err != nil {
		return err
	}
	sh.state.Lock()
	defer sh.state.Unlock()
	if sh.closing {
		return fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	for i, fr := range group {
		if (fr.Kind != walKindAdd && fr.Kind != walKindRemove) || fr.Seq != seq {
			return &parcc.WALCorruptionError{Reason: fmt.Sprintf("replica group frame %d: kind %d seq %d in a group at seq %d", i, fr.Kind, fr.Seq, seq)}
		}
		if err := sh.applyOne(fr.Kind == walKindRemove, fr.Batch); err != nil {
			return err
		}
	}
	sh.s.AdvanceSnapshotVersion(seq - 1)
	if _, err := e.publishSnapshot(sh.s); err != nil {
		return err
	}
	sh.wrote()
	return nil
}

// DropReplica removes a replica session and closes it (the replication
// layer stopped following the graph).  Readers already holding its
// snapshot keep a valid frozen view.  Errors: ErrGraphNotFound.
func (e *Engine) DropReplica(name string) error {
	if !e.opt.ReadOnly {
		return fmt.Errorf("service: replicas drop only from a read-only engine")
	}
	if !e.retire(name, false) {
		return fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	return nil
}

// Names lists the live sessions, sorted.
func (e *Engine) Names() []string {
	var names []string
	e.shards.Range(func(k, _ any) bool {
		names = append(names, k.(string))
		return true
	})
	sort.Strings(names)
	return names
}

// Close drains and releases every session and rejects all further calls
// with ErrEngineClosed.  Queued mutations are applied before their
// sessions close (graceful drain); Close returns when every writer has
// exited.  Idempotent.
func (e *Engine) Close() {
	e.life.Lock()
	first := e.closed.CompareAndSwap(false, true)
	e.life.Unlock() // in-flight Creates have registered; new ones see closed
	if !first {
		e.wg.Wait() // a concurrent Close drains; wait for it
		return
	}
	e.shards.Range(func(k, _ any) bool {
		e.retire(k.(string), false)
		return true
	})
	e.wg.Wait()
}

// RecoverStats summarizes one Engine.Recover run.
type RecoverStats struct {
	Graphs  int           // sessions reconstructed
	Records int           // WAL records replayed (including create records)
	Edges   int64         // edges decoded from the log: the head record plus every batch
	Elapsed time.Duration // wall time of the whole replay
}

// Recover replays every write-ahead log under Options.WALDir,
// reconstructing each named graph at its last durable state and
// registering it as a live shard — call it once, after New and before
// serving.  While it runs, every lookup and Create fails with
// parcc.ErrRecovering (HTTP 503), so no reader can observe a graph
// mid-replay.  A log's torn final record (an interrupted append) is
// truncated away — the interrupted group never released its callers, so
// dropping it is consistent; any other damage fails recovery with a
// *parcc.WALCorruptionError identifying the file and offset, and no shard
// from that log is registered (operator intervention beats silent partial
// state).  Empty logs (a Create that never wrote, or a fully torn tail)
// are removed.  With WALDir empty, Recover is a no-op.
func (e *Engine) Recover() (RecoverStats, error) {
	var st RecoverStats
	if e.opt.WALDir == "" {
		return st, nil
	}
	e.life.RLock()
	defer e.life.RUnlock()
	if e.closed.Load() {
		return st, ErrEngineClosed
	}
	e.recovering.Store(true)
	defer e.recovering.Store(false)
	t0 := time.Now()
	entries, err := os.ReadDir(e.opt.WALDir)
	if err != nil {
		return st, fmt.Errorf("service: wal dir: %w", err)
	}
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), walSuffix) {
			continue
		}
		path := filepath.Join(e.opt.WALDir, ent.Name())
		rr, err := e.replayWAL(path)
		if err != nil {
			st.Elapsed = time.Since(t0)
			return st, err
		}
		if rr == nil {
			os.Remove(path) // no durable records: the graph never existed
			continue
		}
		w, err := openWAL(path, rr.version, rr.lastSeq, rr.epoch, rr.size, &e.wal)
		if err != nil {
			rr.solver.Close()
			st.Elapsed = time.Since(t0)
			return st, err
		}
		sh := e.newShard(rr.name, rr.n, rr.solver)
		sh.wal.Store(w)
		if _, raced := e.shards.LoadOrStore(rr.name, sh); raced {
			// Two log files decoding to one name (hand-copied files).
			w.Close()
			rr.solver.Close()
			st.Elapsed = time.Since(t0)
			return st, &parcc.WALCorruptionError{Path: path, Reason: fmt.Sprintf("duplicate graph %q", rr.name)}
		}
		e.wg.Add(1)
		go e.writer(sh)
		st.Graphs++
		st.Records += rr.records
		st.Edges += rr.replayed
	}
	st.Elapsed = time.Since(t0)
	e.replayRecords.Store(uint64(st.Records))
	e.replayEdges.Store(uint64(st.Edges))
	e.replayNanos.Store(int64(st.Elapsed))
	return st, nil
}

// lookup resolves a shard on the lock-free read path.
func (e *Engine) lookup(name string) (*shard, error) {
	if e.closed.Load() {
		return nil, ErrEngineClosed
	}
	if e.recovering.Load() {
		return nil, fmt.Errorf("service: %w", parcc.ErrRecovering)
	}
	v, ok := e.shards.Load(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	return v.(*shard), nil
}

// view resolves a shard and its current snapshot: a sync.Map load plus an
// atomic pointer load — no locks, no contention with the shard writer.
func (e *Engine) view(name string) (*shard, *parcc.Snapshot, error) {
	sh, err := e.lookup(name)
	if err != nil {
		return nil, nil, err
	}
	sn := sh.s.ReadView()
	if sn == nil {
		// Not yet durable: Create registers the shard before its birth
		// record lands and publishes only after.
		return nil, nil, fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	return sh, sn, nil
}

// Connected reports whether u and v share a component, answered from the
// published snapshot.
func (e *Engine) Connected(name string, u, v int) (bool, error) {
	sh, sn, err := e.view(name)
	if err != nil {
		return false, err
	}
	if err := checkVertex(u, sh.n); err != nil {
		return false, err
	}
	if err := checkVertex(v, sh.n); err != nil {
		return false, err
	}
	sh.read()
	return sn.Connected(u, v), nil
}

// ComponentOf returns u's component representative (stable within one
// snapshot version; compare via Connected across versions).
func (e *Engine) ComponentOf(name string, u int) (int32, error) {
	sh, sn, err := e.view(name)
	if err != nil {
		return 0, err
	}
	if err := checkVertex(u, sh.n); err != nil {
		return 0, err
	}
	sh.read()
	return sn.ComponentOf(u), nil
}

// ComponentSize returns the size of u's component.
func (e *Engine) ComponentSize(name string, u int) (int, error) {
	sh, sn, err := e.view(name)
	if err != nil {
		return 0, err
	}
	if err := checkVertex(u, sh.n); err != nil {
		return 0, err
	}
	sh.read()
	return sn.ComponentSize(u), nil
}

// ComponentCount returns the exact number of components.
func (e *Engine) ComponentCount(name string) (int, error) {
	sh, sn, err := e.view(name)
	if err != nil {
		return 0, err
	}
	sh.read()
	return sn.NumComponents(), nil
}

// Snapshot returns the named session's current published snapshot — the
// bulk-read form of the point queries, for callers that want a consistent
// view across many lookups.
func (e *Engine) Snapshot(name string) (*parcc.Snapshot, error) {
	sh, sn, err := e.view(name)
	if err != nil {
		return nil, err
	}
	sh.read()
	return sn, nil
}

// AddEdges queues an insert batch on the shard writer and returns once it
// is applied and the refreshed snapshot is published.  The batch is
// validated against the vertex bound before queueing, so range errors
// return immediately and a queued batch cannot fail the combined apply it
// is coalesced into.  The engine borrows batch until the call returns.
func (e *Engine) AddEdges(name string, batch []parcc.Edge) error {
	return e.mutate(name, false, batch)
}

// RemoveEdges queues a delete batch (multiset semantics: one occurrence
// per entry, either orientation) and returns once applied and published.
// A batch with missing occurrences fails with *parcc.MissingEdgeError and
// mutates nothing — coalesced neighbors are unaffected (the writer falls
// back to per-caller application when a combined batch fails).
func (e *Engine) RemoveEdges(name string, batch []parcc.Edge) error {
	return e.mutate(name, true, batch)
}

func (e *Engine) mutate(name string, remove bool, batch []parcc.Edge) error {
	if e.opt.ReadOnly {
		return &parcc.ReadOnlyReplicaError{Primary: e.opt.Primary}
	}
	sh, err := e.lookup(name)
	if err != nil {
		return err
	}
	for _, ed := range batch {
		if err := checkVertex(int(ed.U), sh.n); err != nil {
			return &parcc.EdgeRangeError{Edge: ed, N: sh.n}
		}
		if err := checkVertex(int(ed.V), sh.n); err != nil {
			return &parcc.EdgeRangeError{Edge: ed, N: sh.n}
		}
	}
	if len(batch) == 0 {
		return nil
	}
	m := &mutation{remove: remove, batch: batch, err: make(chan error, 1)}
	sh.state.RLock()
	if sh.closing {
		sh.state.RUnlock()
		return fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	sh.reqs <- m // may block: queue-depth back pressure
	sh.state.RUnlock()
	sh.wrote()
	return <-m.err
}

func checkVertex(v, n int) error {
	if v < 0 || v >= n {
		return &VertexRangeError{V: v, N: n}
	}
	return nil
}

// shutdown stops the shard's writer after a graceful drain and releases
// its solver.  The drain order is the durability contract: queued
// mutation groups are applied and logged (each group fsync'd as it
// lands), then the log is compacted to a checkpoint if any groups landed
// since the last head record (so restarts replay a snapshot, not
// history), then the WAL handle is closed, then the session — so a
// graceful stop loses nothing and the log ends on a whole-frame boundary.
// A failed shard checkpoints nothing: its session may hold a group the
// log never did.  A dropping shutdown (drop set) checkpoints nothing
// either: it closes the log and deletes it.
// Safe to call once per shard (Drop and Close both route through
// LoadAndDelete, which elects a single caller).
func (sh *shard) shutdown(drop bool) {
	sh.state.Lock()
	sh.closing = true
	if sh.replica {
		// No writer, queue or WAL: closing under the state lock waits out
		// an ApplyReplicaGroup in flight.
		sh.s.Close()
		sh.state.Unlock()
		return
	}
	close(sh.reqs)
	sh.state.Unlock()
	<-sh.done // writer drains remaining queued mutations, then exits
	if w := sh.wal.Load(); w != nil {
		if !drop && w.groupsSinceHead > 0 {
			// A failed checkpoint leaves the (longer, equally durable)
			// pre-compaction log for the next recovery to replay.
			sh.compact()
		}
		w.Close()
		if drop {
			os.Remove(w.path)
		}
	}
	sh.s.Close()
}

// writer is the shard's single mutator: it picks up one queued mutation,
// coalesces whatever else is waiting (bounded by maxBatchEdges and the
// CoalesceWindow), applies the combined batches through the incremental
// path, publishes one snapshot for the whole group, and only then releases
// the callers.  Compaction barriers run between groups, never inside one.
func (e *Engine) writer(sh *shard) {
	defer e.wg.Done()
	defer close(sh.done)
	for first := range sh.reqs {
		for first != nil {
			if first.compact {
				first.err <- sh.compact()
				first = nil
				continue
			}
			var group []*mutation
			group, first = e.collect(sh, first)
			sh.apply(group)
		}
	}
}

// collect gathers the coalescing group starting at first.  With a zero
// window it takes only what is already queued; with a positive window it
// keeps listening until the window closes or the edge cap is reached.  A
// compaction barrier pulled mid-collection ends the group and is returned
// for the writer to run after the group lands.
func (e *Engine) collect(sh *shard, first *mutation) ([]*mutation, *mutation) {
	group := []*mutation{first}
	edges := len(first.batch)
	var window <-chan time.Time
	if e.opt.CoalesceWindow > 0 {
		window = time.After(e.opt.CoalesceWindow)
	}
	for edges < maxBatchEdges {
		var m *mutation
		var ok bool
		if window == nil {
			select {
			case m, ok = <-sh.reqs:
			default:
				return group, nil
			}
		} else {
			select {
			case m, ok = <-sh.reqs:
			case <-window:
				return group, nil
			}
		}
		if !ok {
			return group, nil
		}
		if m.compact {
			return group, m
		}
		group = append(group, m)
		edges += len(m.batch)
	}
	return group, nil
}

// compact checkpoints the shard's log: the live state becomes the new
// head record at the current seq and the applied history before it is
// dropped.  Runs on the writer goroutine between groups (or in shutdown
// after it exits), so the captured state is exactly the log's state at
// lastSeq — unless the shard failed, when it checkpoints nothing.
func (sh *shard) compact() error {
	if err := sh.err(); err != nil {
		return err
	}
	g := sh.s.Live() // attached: shutdown closes the session only after this
	if err := sh.wal.Load().writeCheckpoint(g.N, g.Edges); err != nil {
		return sh.fail(err)
	}
	return nil
}

// apply runs the group through the incremental path: consecutive
// mutations of the same kind become one combined AddEdges/RemoveEdges
// call (order across kinds is preserved — an add queued before a remove
// is applied before it).  If a combined call fails, the run is replayed
// per caller so each gets its exact error and innocent neighbors still
// land.  With the WAL on, exactly the successfully applied sub-batches
// are logged and fsync'd; then one snapshot publish covers the whole
// group, and only then are the callers released — so a write is never
// acknowledged, and never visible to any reader, before it is durable.
// A failed append fails the shard stop: the group never publishes, and
// every caller of it and of every later group gets the fail-stop error.
func (sh *shard) apply(group []*mutation) {
	errs := make([]error, len(group))
	if err := sh.err(); err != nil {
		for _, m := range group {
			m.err <- err
		}
		return
	}
	mutated := false
	wal := sh.wal.Load()
	var logged []walEntry
	ok := func(remove bool, batch []parcc.Edge) {
		mutated = true
		if wal != nil {
			logged = append(logged, walEntry{remove: remove, batch: batch})
		}
	}
	for lo := 0; lo < len(group); {
		hi := lo + 1
		for hi < len(group) && group[hi].remove == group[lo].remove {
			hi++
		}
		run := group[lo:hi]
		if len(run) == 1 {
			errs[lo] = sh.applyOne(run[0].remove, run[0].batch)
			if errs[lo] == nil {
				ok(run[0].remove, run[0].batch)
			}
			lo = hi
			continue
		}
		combined := make([]parcc.Edge, 0, runEdges(run))
		for _, m := range run {
			combined = append(combined, m.batch...)
		}
		if err := sh.applyOne(run[0].remove, combined); err != nil {
			// One caller's batch poisoned the combined apply (e.g. two
			// removes racing for the same occurrence).  Nothing was
			// mutated; replay per caller for exact attribution.
			for i, m := range run {
				errs[lo+i] = sh.applyOne(m.remove, m.batch)
				if errs[lo+i] == nil {
					ok(m.remove, m.batch)
				}
			}
		} else {
			ok(run[0].remove, combined)
			sh.coalesced.Add(uint64(len(run)))
			sh.eng.coalesced.Add(int64(len(run)))
		}
		lo = hi
	}
	if mutated && wal != nil {
		if err := wal.appendGroup(logged); err != nil {
			err = sh.fail(err)
			for i := range errs {
				errs[i] = err
			}
			mutated = false
		}
	}
	if mutated {
		// Cannot fail: the writer owns the session, which is attached and
		// not closed until this goroutine exits.
		sh.eng.publishSnapshot(sh.s)
	}
	for i, m := range group {
		m.err <- errs[i]
	}
}

// applyOne applies a single batch and maintains the serving counters.
func (sh *shard) applyOne(remove bool, batch []parcc.Edge) error {
	var err error
	if remove {
		err = sh.s.RemoveEdges(batch)
	} else {
		err = sh.s.AddEdges(batch)
	}
	if err == nil {
		sh.applies.Add(1)
		sh.eng.applies.Inc()
	}
	return err
}

func runEdges(run []*mutation) int {
	total := 0
	for _, m := range run {
		total += len(m.batch)
	}
	return total
}

// ShardStats is one session's serving counters, as reported by Stats.
type ShardStats struct {
	Name       string `json:"name"`
	N          int    `json:"n"`
	Edges      int64  `json:"edges"`
	Components int    `json:"components"`
	Version    uint64 `json:"snapshot_version"`
	Reads      uint64 `json:"reads"`
	Writes     uint64 `json:"writes"`
	Applies    uint64 `json:"applies"`
	Coalesced  uint64 `json:"coalesced"`
	Queue      int    `json:"queue"`
	Failed     string `json:"failed,omitempty"` // the fail-stop error; empty while healthy
}

// Stats reports every live session's counters, sorted by name.  It reads
// only lock-free state (snapshot + atomics) — safe to poll in production.
func (e *Engine) Stats() []ShardStats {
	var out []ShardStats
	e.shards.Range(func(_, v any) bool {
		sh := v.(*shard)
		st := ShardStats{
			Name:      sh.name,
			N:         sh.n,
			Reads:     sh.reads.Load(),
			Writes:    sh.writes.Load(),
			Applies:   sh.applies.Load(),
			Coalesced: sh.coalesced.Load(),
			Queue:     len(sh.reqs),
		}
		if err := sh.err(); err != nil {
			st.Failed = err.Error()
		}
		if sn := sh.s.ReadView(); sn != nil {
			st.Edges = int64(sn.NumEdges())
			st.Components = sn.NumComponents()
			st.Version = sn.Version()
		}
		out = append(out, st)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
