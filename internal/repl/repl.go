// Package repl is the replication layer: a Follower tails a primary's
// per-graph write-ahead-log streams (service's GET /graphs/{name}/wal)
// and hands each committed group to its read-only engine
// (service.Engine.ApplyReplicaGroup), which applies it and publishes the
// snapshot at exactly the version the stream encodes — so a read served
// by the follower is indistinguishable, at its reported version, from the
// same read served by the primary.  The engine owns the replica sessions;
// this package owns transport, discovery, backoff and the resume
// position.
//
// Correctness rules (schedule-independent, like the kernels underneath):
//
//   - Groups are buffered frame by frame and handed over only when the
//     group's COMMIT frame arrives.  A stream cut mid-group discards the
//     partial buffer; the reconnect resumes from the last APPLIED seq, so
//     no group is ever half-applied or applied twice.
//   - A create/checkpoint frame makes the engine rebuild the replica from
//     the full state it carries (publishing at its seq); the epoch field
//     detects a primary whose graph was dropped and re-created, so two
//     histories are never spliced.
//   - Versions a follower serves are exactly the versions the primary's
//     log assigned, even across primary recoveries (whose own publish seq
//     is never in the log; followers simply skip it).
//   - A graph's tailer is stopped and waited for before its replica is
//     dropped, so no tailer of a dropped graph outlives it and applies
//     to a name a newer tailer owns.
//
// Liveness: the tailer retries with jittered exponential backoff, a
// stall watchdog severs connections that stop producing frames (the
// primary heartbeats commit frames while idle), and discovery keeps the
// replica set in sync with the primary's graph list.  When the primary
// dies, tailers keep the last applied state serving reads and reconnect
// until it returns.
package repl

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"parcc"
	"parcc/internal/obs"
	"parcc/internal/service"
)

// Options configures a Follower.
type Options struct {
	// Primary is the primary's base URL; used by the default transport
	// and echoed in operator-facing errors.
	Primary string
	// Engine is the follower's read-only serving engine (service.Options
	// ReadOnly: true); it builds the replica sessions, from its own
	// service.Options.Solver, as groups arrive.
	Engine *service.Engine
	// Deprecated: unused; the engine's service.Options.Solver configures
	// the replica sessions.
	Solver *parcc.Options
	// MaxLag is the bounded-staleness threshold: Ready() reports an error
	// once the follower has gone longer than this without being caught up
	// to the primary's advertised head (default 5s).
	MaxLag time.Duration
	// Transport overrides the primary connection (fault injection,
	// tests).  Nil: HTTP against Primary.
	Transport Transport
	// Poll is the graph-discovery interval (default 2s).
	Poll time.Duration
	// RetryMin/RetryMax bound the jittered exponential reconnect backoff
	// (defaults 50ms / 2s).
	RetryMin, RetryMax time.Duration
	// Stall severs a stream that produces no frame for this long —
	// covers half-open connections the primary's heartbeat can't reach
	// (default 5s; must exceed the primary's heartbeat interval).
	Stall time.Duration
	// Seed makes the backoff jitter deterministic for tests (0: seeded
	// from the clock).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.MaxLag <= 0 {
		o.MaxLag = 5 * time.Second
	}
	if o.Poll <= 0 {
		o.Poll = 2 * time.Second
	}
	if o.RetryMin <= 0 {
		o.RetryMin = 50 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 2 * time.Second
	}
	if o.Stall <= 0 {
		o.Stall = 5 * time.Second
	}
	if o.Transport == nil {
		o.Transport = NewHTTPTransport(o.Primary)
	}
	if o.Seed == 0 {
		o.Seed = time.Now().UnixNano()
	}
	return o
}

// Follower replicates a primary's graphs into a read-only engine.
type Follower struct {
	opt    Options
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	tailers map[string]*tailer
	synced  atomic.Bool // at least one successful discovery round

	reconnects obs.CounterMetric // stream (re)connect attempts after the first
	resets     obs.CounterMetric // full-state resets (create/checkpoint applied)
	groups     obs.CounterMetric // committed groups applied
	applyErrs  obs.CounterMetric // groups the engine rejected (forced resync)
	frames     obs.CounterMetric // stream frames received
}

// New builds a Follower; Start begins replication.
func New(opt Options) (*Follower, error) {
	opt = opt.withDefaults()
	if opt.Engine == nil {
		return nil, fmt.Errorf("repl: Options.Engine is required")
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Follower{
		opt:     opt,
		ctx:     ctx,
		cancel:  cancel,
		tailers: make(map[string]*tailer),
	}, nil
}

// Start launches discovery and the per-graph tailers.
func (f *Follower) Start() {
	f.wg.Add(1)
	go f.discover()
}

// Stop halts replication and drops every replica session from the
// engine; readers already holding a snapshot keep a valid frozen view.
func (f *Follower) Stop() {
	f.cancel()
	f.wg.Wait()
	f.mu.Lock()
	ts := f.tailers
	f.tailers = make(map[string]*tailer)
	f.mu.Unlock()
	for _, t := range ts {
		t.teardown()
	}
}

// discover polls the primary's graph list, starting tailers for new
// graphs and stopping them for dropped ones.  Discovery failures leave
// the current replica set serving — a dead primary must not take the
// follower's reads down with it.
func (f *Follower) discover() {
	defer f.wg.Done()
	tick := time.NewTicker(f.opt.Poll)
	defer tick.Stop()
	for {
		f.syncOnce()
		select {
		case <-f.ctx.Done():
			return
		case <-tick.C:
		}
	}
}

func (f *Follower) syncOnce() {
	ctx, cancel := context.WithTimeout(f.ctx, f.opt.Poll)
	names, err := f.opt.Transport.Names(ctx)
	cancel()
	if err != nil {
		return // primary unreachable: keep serving what we have
	}
	f.synced.Store(true)
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var dropped []*tailer
	f.mu.Lock()
	if f.ctx.Err() != nil {
		f.mu.Unlock()
		return
	}
	for _, name := range names {
		if _, ok := f.tailers[name]; !ok {
			t := f.newTailer(name)
			f.tailers[name] = t
			go t.run()
		}
	}
	for name, t := range f.tailers {
		if !want[name] {
			dropped = append(dropped, t)
			delete(f.tailers, name)
		}
	}
	f.mu.Unlock()
	// Outside the lock: teardown waits for the tailer's goroutine, which
	// may be mid-apply.  Only this goroutine starts tailers, so none for
	// a dropped name starts before its old one is gone.
	for _, t := range dropped {
		t.teardown()
	}
}

// Ready implements the readiness probe: nil when the follower has
// discovered the primary at least once and every replica is caught up to
// the primary's advertised head within MaxLag.  The error names the
// laggiest graph — the /readyz body surfaces it.
func (f *Follower) Ready() error {
	if !f.synced.Load() {
		return fmt.Errorf("repl: no contact with primary %s yet", f.opt.Primary)
	}
	now := time.Now().UnixNano()
	f.mu.Lock()
	defer f.mu.Unlock()
	for name, t := range f.tailers {
		fresh := t.freshAt.Load()
		if fresh == 0 {
			return fmt.Errorf("repl: graph %q not yet synced", name)
		}
		if lag := time.Duration(now - fresh); lag > f.opt.MaxLag {
			return fmt.Errorf("repl: graph %q lagging %.1fs behind primary (max %s, %d seqs behind)",
				name, lag.Seconds(), f.opt.MaxLag, t.lagSeqs())
		}
	}
	return nil
}

// GraphStatus is one replica's replication position.
type GraphStatus struct {
	Name    string `json:"name"`
	Applied uint64 `json:"applied_seq"`
	Head    uint64 `json:"head_seq"`
	LagSeqs uint64 `json:"lag_seqs"`
	Fresh   bool   `json:"fresh"` // caught up within MaxLag
}

// Status reports every replica's position, sorted by name.
func (f *Follower) Status() []GraphStatus {
	now := time.Now().UnixNano()
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]GraphStatus, 0, len(f.tailers))
	for name, t := range f.tailers {
		fresh := t.freshAt.Load()
		out = append(out, GraphStatus{
			Name:    name,
			Applied: t.applied.Load(),
			Head:    t.head.Load(),
			LagSeqs: t.lagSeqs(),
			Fresh:   fresh != 0 && time.Duration(now-fresh) <= f.opt.MaxLag,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// lag returns the worst (seqs, seconds) lag across replicas.
func (f *Follower) lag() (uint64, float64) {
	now := time.Now().UnixNano()
	f.mu.Lock()
	defer f.mu.Unlock()
	var seqs uint64
	var secs float64
	for _, t := range f.tailers {
		if s := t.lagSeqs(); s > seqs {
			seqs = s
		}
		fresh := t.freshAt.Load()
		if fresh == 0 {
			continue
		}
		if s := time.Duration(now - fresh).Seconds(); s > secs {
			secs = s
		}
	}
	return seqs, secs
}

// RegisterMetrics adds the replication series to reg (the follower
// engine's registry, so they scrape from the same /metrics).
func (f *Follower) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("parcc_repl_graphs",
		"Replica sessions this follower maintains.",
		func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return float64(len(f.tailers))
		})
	reg.GaugeFunc("parcc_repl_lag_seqs",
		"Worst replication lag across graphs, in log seqs (primary head minus applied).",
		func() float64 { s, _ := f.lag(); return float64(s) })
	reg.GaugeFunc("parcc_repl_lag_seconds",
		"Worst staleness across graphs: seconds since the replica was last caught up to the primary's head.",
		func() float64 { _, s := f.lag(); return s })
	reg.Counter("parcc_repl_groups_total",
		"Committed mutation groups applied from the replication stream.", &f.groups)
	reg.Counter("parcc_repl_resets_total", "Full-state resets applied (create/checkpoint frames).", &f.resets)
	reg.Counter("parcc_repl_reconnects_total", "Replication stream reconnect attempts.", &f.reconnects)
	reg.Counter("parcc_repl_apply_errors_total",
		"Stream groups the replica session rejected (forces a full resync).", &f.applyErrs)
	reg.Counter("parcc_repl_frames_total",
		"Replication stream frames received (including commit heartbeats).", &f.frames)
}

// tailer replicates one graph.
type tailer struct {
	f    *Follower
	name string
	rng  *rand.Rand // backoff jitter; owned by the run goroutine
	// ctx ends the run goroutine (teardown cancels it; Stop cancels the
	// follower's ctx it derives from); done is closed when run returns.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// Replication position, read by Ready/Status/metrics.
	applied atomic.Uint64 // last seq whose group is applied AND published
	head    atomic.Uint64 // primary's last advertised durable seq
	epoch   atomic.Uint64 // log identity from the last head record
	// freshAt is when the replica was last caught up (applied >= head at
	// a commit frame); 0 until the first catch-up.
	freshAt atomic.Int64
}

// lagSeqs is the primary's advertised head minus the last applied seq
// (zero when caught up; head may trail applied briefly after a reset).
func (t *tailer) lagSeqs() uint64 {
	head, applied := t.head.Load(), t.applied.Load()
	if head <= applied {
		return 0
	}
	return head - applied
}

func (f *Follower) newTailer(name string) *tailer {
	// Derive a per-graph jitter stream from the follower seed: distinct
	// graphs don't reconnect in lockstep, and a fixed seed is fully
	// deterministic for the fault-injection tests.
	h := int64(0)
	for _, c := range name {
		h = h*131 + int64(c)
	}
	ctx, cancel := context.WithCancel(f.ctx)
	return &tailer{
		f: f, name: name, rng: rand.New(rand.NewSource(f.opt.Seed ^ h)),
		ctx: ctx, cancel: cancel, done: make(chan struct{}),
	}
}

// teardown stops the tailer, waits for its goroutine to return, and drops
// the replica from the engine.  Readers that already hold the snapshot
// keep a valid frozen view.
func (t *tailer) teardown() {
	t.cancel()
	<-t.done
	t.f.opt.Engine.DropReplica(t.name) // ErrGraphNotFound: never synced
}

// run is the tailer's connection loop: connect, consume frames until the
// stream dies, back off, reconnect from the last applied seq.
func (t *tailer) run() {
	defer close(t.done)
	attempt := 0
	for {
		if t.ctx.Err() != nil {
			return
		}
		if attempt > 0 {
			t.f.reconnects.Inc()
			if !t.sleep(t.backoff(attempt)) {
				return
			}
		}
		attempt++
		rc, err := t.f.opt.Transport.Stream(t.ctx, t.name, t.applied.Load(), t.epoch.Load())
		if err != nil {
			continue
		}
		if t.consume(rc) {
			// Made progress: the next disconnect starts backoff from the
			// bottom instead of where this connection left it.
			attempt = 1
		}
		rc.Close()
	}
}

// backoff is the jittered exponential schedule: min·2^k up to max, each
// scaled by a uniform [0.5, 1.0) factor so a fleet of followers does not
// reconnect in phase.
func (t *tailer) backoff(attempt int) time.Duration {
	d := t.f.opt.RetryMin << uint(attempt-1)
	if d > t.f.opt.RetryMax || d <= 0 {
		d = t.f.opt.RetryMax
	}
	return time.Duration(float64(d) * (0.5 + 0.5*t.rng.Float64()))
}

func (t *tailer) sleep(d time.Duration) bool {
	select {
	case <-t.ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// consume drains one stream connection, buffering each group and applying
// it at its commit frame.  Returns whether any group was applied (resets
// the caller's backoff).  A partial group at disconnect is discarded —
// the reconnect's from=applied re-fetches it whole.
func (t *tailer) consume(rc io.ReadCloser) bool {
	// Stall watchdog: if no frame lands for Stall, sever the connection
	// so the read below unblocks and the caller reconnects.
	watch := time.AfterFunc(t.f.opt.Stall, func() { rc.Close() })
	defer watch.Stop()
	stop := context.AfterFunc(t.ctx, func() { rc.Close() })
	defer stop()

	br := bufio.NewReaderSize(rc, 64<<10)
	var pend []service.StreamFrame // current group's frames, commit pending
	var pendSeq uint64
	progressed := false
	for {
		fr, err := service.ReadStreamFrame(br)
		if err != nil {
			return progressed
		}
		watch.Reset(t.f.opt.Stall)
		t.f.frames.Inc()
		switch fr.Kind {
		case service.FrameCreate, service.FrameCheckpoint:
			if fr.Epoch == t.epoch.Load() && fr.Seq <= t.applied.Load() {
				// Stale rewind of our own history (server resent the head
				// record we already hold): ignore.
				pend, pendSeq = nil, 0
				continue
			}
			pend, pendSeq = []service.StreamFrame{*fr}, fr.Seq
		case service.FrameAdd, service.FrameRemove:
			if pendSeq != 0 && fr.Seq != pendSeq {
				// A new group began without a commit for the previous one —
				// should not happen, but never splice two groups together.
				pend = nil
			}
			pend, pendSeq = append(pend, *fr), fr.Seq
		case service.FrameCommit:
			if pendSeq != 0 && fr.Seq == pendSeq {
				if !t.apply(pend) {
					return progressed // forced resync: reconnect from scratch
				}
				progressed = true
				pend, pendSeq = nil, 0
			}
			t.head.Store(fr.Head)
			if t.applied.Load() >= fr.Head {
				t.freshAt.Store(time.Now().UnixNano())
			}
		}
	}
}

// apply hands one committed group to the engine, which applies it and
// publishes at exactly the group's seq.  Returns false when the engine
// rejected the group: the replica may have diverged, so the tailer falls
// back to a full resync (epoch 0 makes the server stream the head record).
func (t *tailer) apply(group []service.StreamFrame) bool {
	if err := t.f.opt.Engine.ApplyReplicaGroup(t.name, group); err != nil {
		t.f.applyErrs.Inc()
		t.applied.Store(0)
		t.epoch.Store(0)
		return false
	}
	if head := group[0]; head.Kind == service.FrameCreate || head.Kind == service.FrameCheckpoint {
		t.epoch.Store(head.Epoch)
		t.f.resets.Inc()
	}
	t.applied.Store(group[0].Seq)
	t.f.groups.Inc()
	return true
}
