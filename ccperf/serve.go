package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parcc"
	"parcc/internal/baseline"
	"parcc/internal/repl"
	"parcc/internal/service"
)

// serveParams shapes one serving workload.
type serveParams struct {
	shards, n, deg, block, batch int
	readPct                      int // share of ops that are point reads, in percent
	durable                      bool
	baseRate                     float64       // ops/s of the base step
	ladder                       []float64     // rate multipliers of the steps after it
	limit                        time.Duration // write-ack p99 (and backlog) limit of a passing step
}

func readHeavyParams(tiny bool) serveParams {
	p := serveParams{shards: 4, n: 1 << 15, deg: 2, block: 1024, batch: 8, readPct: 95,
		baseRate: 2000, ladder: []float64{2, 4}, limit: 20 * time.Millisecond}
	if tiny {
		p.n, p.block, p.baseRate = 1<<11, 256, 400
	}
	return p
}

func durableParams(tiny bool) serveParams {
	p := serveParams{shards: 4, n: 1 << 14, deg: 2, block: 1024, batch: 8, readPct: 40, durable: true,
		baseRate: 200, ladder: []float64{2, 4}, limit: 100 * time.Millisecond}
	if tiny {
		p.n, p.block, p.baseRate = 1<<11, 256, 100
	}
	return p
}

func runServeReadHeavy(cfg *config) (*report, error) { return runServe(cfg, readHeavyParams(cfg.tiny)) }
func runServeDurable(cfg *config) (*report, error)   { return runServe(cfg, durableParams(cfg.tiny)) }

// engineOptions are ccserved's solver defaults: zero-value backend, seed
// 1, TrustGraph and Trace on, at nproc.
func engineOptions(procs int) *parcc.Options {
	return &parcc.Options{Procs: procs, Seed: 1, TrustGraph: true, Trace: true}
}

// blockUnion is ccload's shard shape: n vertices as a disjoint union of
// block-sized cells, each a supercritical random graph with deg edges per
// vertex.
func blockUnion(n, deg, block int, seed uint64) *parcc.Graph {
	g := parcc.NewGraph(n)
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	for lo := 0; lo < n; lo += block {
		w := min(block, n-lo)
		for k := 0; k < deg*w; k++ {
			g.AddEdge(lo+rng.IntN(w), lo+rng.IntN(w))
		}
	}
	return g
}

type opKind uint8

const (
	opConnected opKind = iota
	opComponent
	opCount
	opAdd
	opRemove
)

func (k opKind) String() string {
	return [...]string{"connected", "component", "count", "add", "remove"}[k]
}

func (k opKind) write() bool { return k == opAdd || k == opRemove }

// op is one generated request.
type op struct {
	id    int64
	kind  opKind
	shard int
	u, v  int
	batch []parcc.Edge
}

// opResult is what became of one op.  Latency is end − due.
type opResult struct {
	op
	due, start, end time.Time
	status          int
	version         uint64
}

// ack is one acknowledged write, in acknowledgement order.
type ack struct {
	shard   int
	remove  bool
	batch   []parcc.Edge
	version uint64
	at      time.Time
}

// opGen is the seeded op stream.  It never looks at the system's state:
// removes consume a per-block shuffled list of the shard's initial edges,
// so every occurrence is removed at most once and the inputs depend on
// the seed alone.
type opGen struct {
	p         serveParams
	rng       *rand.Rand
	removable [][][]parcc.Edge // [shard][block]
	nextID    int64
}

func newOpGen(p serveParams, seed uint64, initial []*parcc.Graph) *opGen {
	g := &opGen{p: p, rng: rand.New(rand.NewPCG(seed, 0x5851f42d4c957f2d))}
	for _, gr := range initial {
		blocks := make([][]parcc.Edge, (p.n+p.block-1)/p.block)
		for _, e := range gr.Edges {
			b := int(e.U) / p.block
			blocks[b] = append(blocks[b], e)
		}
		for _, es := range blocks {
			g.rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		}
		g.removable = append(g.removable, blocks)
	}
	return g
}

func (g *opGen) next() op {
	g.nextID++
	o := op{id: g.nextID, shard: g.rng.IntN(g.p.shards)}
	if g.rng.IntN(100) < g.p.readPct {
		o.kind = opKind(g.rng.IntN(3))
		o.u, o.v = g.rng.IntN(g.p.n), g.rng.IntN(g.p.n)
		return o
	}
	b := g.rng.IntN(len(g.removable[o.shard]))
	if rem := g.removable[o.shard][b]; g.rng.IntN(2) == 0 && len(rem) >= g.p.batch {
		o.kind = opRemove
		o.batch = append([]parcc.Edge(nil), rem[len(rem)-g.p.batch:]...)
		g.removable[o.shard][b] = rem[:len(rem)-g.p.batch]
		return o
	}
	o.kind = opAdd
	lo := b * g.p.block
	w := min(g.p.block, g.p.n-lo)
	o.batch = make([]parcc.Edge, g.p.batch)
	for i := range o.batch {
		o.batch[i] = parcc.Edge{U: int32(lo + g.rng.IntN(w)), V: int32(lo + g.rng.IntN(w))}
	}
	return o
}

// cluster is one set-up serving deployment: the primary engine and its
// HTTP handler, and for the durable workload a loopback listener for the
// replication stream plus an in-process follower serving the reads.
type cluster struct {
	p       serveParams
	names   []string
	initial []*parcc.Graph // clones of the created graphs
	primary *service.Engine
	writeH  http.Handler // the primary's API: all writes
	readH   http.Handler // reads: the primary, or the follower when durable
	walDir  string

	srv      *http.Server
	follower *repl.Follower
	feng     *service.Engine

	acksMu sync.Mutex
	acks   []ack
	// served[shard] is the newest version the read server has answered
	// with; a later response may never report an older one.
	served []atomic.Uint64
}

func (c *cluster) close() {
	if c.follower != nil {
		c.follower.Stop()
	}
	if c.srv != nil {
		c.srv.Close()
	}
	if c.feng != nil {
		c.feng.Close()
	}
	c.primary.Close()
}

func setupCluster(cfg *config, p serveParams, dir string) (*cluster, error) {
	c := &cluster{p: p, served: make([]atomic.Uint64, p.shards)}
	opts := engineOptions(cfg.procs)
	so := service.Options{Solver: opts}
	if p.durable {
		c.walDir = filepath.Join(dir, "wal")
		so.WALDir = c.walDir
	}
	graphs := make([]*parcc.Graph, p.shards)
	for i := range graphs {
		graphs[i] = blockUnion(p.n, p.deg, p.block, cfg.seed*1000003+uint64(i))
		c.initial = append(c.initial, graphs[i].Clone())
		c.names = append(c.names, fmt.Sprintf("shard%d", i))
	}
	c.primary = service.New(so)
	for i, g := range graphs {
		start := time.Now()
		err := c.primary.Create(c.names[i], g)
		cfg.tr.record("service", "Engine.Create", 0, start, time.Now())
		if err != nil {
			c.primary.Close()
			return nil, fmt.Errorf("create %s: %w", c.names[i], err)
		}
	}
	c.writeH = service.NewHandlerOpts(c.primary, service.HandlerOptions{})
	c.readH = c.writeH
	if !p.durable {
		return c, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.primary.Close()
		return nil, fmt.Errorf("stream listener: %w", err)
	}
	c.srv = &http.Server{Handler: c.writeH}
	go c.srv.Serve(ln)
	url := "http://" + ln.Addr().String()
	c.feng = service.New(service.Options{Solver: opts, ReadOnly: true, Primary: url})
	f, err := repl.New(repl.Options{Primary: url, Engine: c.feng, Solver: opts, Seed: int64(cfg.seed) + 1})
	if err != nil {
		c.close()
		return nil, err
	}
	f.RegisterMetrics(c.feng.Registry())
	c.follower = f
	c.readH = service.NewHandlerOpts(c.feng, service.HandlerOptions{Readiness: f.Ready})
	start := time.Now()
	f.Start()
	err = c.waitFollower(30 * time.Second)
	cfg.tr.record("repl", "initial sync", 0, start, time.Now())
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// waitFollower waits until every follower shard serves at least the
// primary's current version.
func (c *cluster) waitFollower(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, name := range c.names {
		want, err := c.primary.Snapshot(name)
		if err != nil {
			return err
		}
		for {
			if sn, err := c.feng.Snapshot(name); err == nil && sn.Version() >= want.Version() {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("follower did not reach %s version %d within %v", name, want.Version(), timeout)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// request builds the HTTP request for o.
func (c *cluster) request(o *op) (*http.Request, http.Handler) {
	path := "/graphs/" + c.names[o.shard]
	var req *http.Request
	switch o.kind {
	case opConnected:
		req, _ = http.NewRequest(http.MethodGet, path+"/connected?u="+strconv.Itoa(o.u)+"&v="+strconv.Itoa(o.v), nil)
	case opComponent:
		req, _ = http.NewRequest(http.MethodGet, path+"/component?u="+strconv.Itoa(o.u), nil)
	case opCount:
		req, _ = http.NewRequest(http.MethodGet, path+"/count", nil)
	default:
		var sb strings.Builder
		sb.WriteString(`{"edges":[`)
		for i, e := range o.batch {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "[%d,%d]", e.U, e.V)
		}
		sb.WriteString("]}")
		if o.kind == opRemove {
			path += "/edges/remove"
		} else {
			path += "/edges"
		}
		req, _ = http.NewRequest(http.MethodPost, path, strings.NewReader(sb.String()))
		return req, c.writeH
	}
	return req, c.readH
}

// do issues o through the in-process handler and records the outcome.
func (c *cluster) do(cfg *config, o op, due time.Time) opResult {
	res := opResult{op: o, due: due}
	res.start = time.Now()
	floor := c.served[o.shard].Load()
	req, h := c.request(&o)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	res.end = time.Now()
	res.status = w.Code
	cfg.tr.record("service", "ServeHTTP "+o.kind.String(), o.id, res.start, res.end)
	var body struct {
		Version uint64 `json:"version"`
	}
	if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &body) != nil {
		return res
	}
	res.version = body.Version
	if h == c.readH {
		if body.Version < floor {
			res.status = -1
			return res
		}
		for {
			cur := c.served[o.shard].Load()
			if body.Version <= cur || c.served[o.shard].CompareAndSwap(cur, body.Version) {
				break
			}
		}
	}
	if o.kind.write() {
		c.acksMu.Lock()
		c.acks = append(c.acks, ack{shard: o.shard, remove: o.kind == opRemove, batch: o.batch, version: body.Version, at: res.end})
		c.acksMu.Unlock()
	}
	return res
}

// maxInFlight bounds concurrent ops; beyond it the generator waits, and the
// wait shows as lateness.
const maxInFlight = 512

// step runs one open-loop rate step: ops are due at fixed intervals and
// each write is issued on its own goroutine when due (or as soon after as
// the generator gets to it).  Returns the results and how long the
// in-flight ops took to drain after the last one was issued.
func (c *cluster) step(cfg *config, gen *opGen, rate float64, dur time.Duration, stall bool) ([]opResult, time.Duration) {
	n := max(int(rate*dur.Seconds()), 1)
	interval := time.Duration(float64(time.Second) / rate)
	results := make([]opResult, n)
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < n; i++ {
		o := gen.next()
		due := t0.Add(time.Duration(i) * interval)
		waitUntil(due)
		if stall && i == n/2 {
			time.Sleep(cfg.stall)
		}
		if !o.kind.write() {
			// Point reads answer lock-free in microseconds, far inside the
			// inter-arrival gap, so the generator issues them itself; a
			// read that ever ran long would make the ops behind it late,
			// and their lateness counts in their latency.
			results[i] = c.do(cfg, o, due)
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, o op, due time.Time) {
			defer wg.Done()
			results[i] = c.do(cfg, o, due)
			<-sem
		}(i, o, due)
	}
	issued := time.Now()
	wg.Wait()
	return results, time.Since(issued)
}

// waitUntil returns at t.  The runtime's timers only wake a sleeping
// thread at millisecond granularity, so the last two milliseconds are
// spent yielding instead of sleeping, keeping the generator's own
// lateness in the tens of microseconds.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// oracles tracks each shard's acknowledged edge multiset.
type oracles struct {
	inc     []*baseline.IncOracle
	applied int // acks folded in so far
}

func newOracles(initial []*parcc.Graph) *oracles {
	o := &oracles{}
	for _, g := range initial {
		o.inc = append(o.inc, baseline.NewIncOracle(g))
	}
	return o
}

// catchUp folds the acks not yet applied into the oracles.  The final edge
// multiset does not depend on the order the acks landed in, so each shard
// takes all new adds, then all new removes.
func (o *oracles) catchUp(acks []ack) error {
	adds := make([][]parcc.Edge, len(o.inc))
	removes := make([][]parcc.Edge, len(o.inc))
	for _, a := range acks[o.applied:] {
		if a.remove {
			removes[a.shard] = append(removes[a.shard], a.batch...)
		} else {
			adds[a.shard] = append(adds[a.shard], a.batch...)
		}
	}
	o.applied = len(acks)
	for i, inc := range o.inc {
		if err := inc.AddEdges(adds[i]); err != nil {
			return err
		}
		if err := inc.RemoveEdges(removes[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkEngines compares every shard's published partition on the given
// engines with the oracle, after folding in every ack so far; mismatches
// are failed checks in rep.
func (c *cluster) checkEngines(cfg *config, rep *report, orc *oracles, what string, engs ...*service.Engine) {
	c.acksMu.Lock()
	acks := c.acks
	c.acksMu.Unlock()
	if err := orc.catchUp(acks); err != nil {
		rep.fail("%s: oracle rejected the acknowledged ops: %v", what, err)
		return
	}
	for i, name := range c.names {
		want := orc.inc[i].Labels()
		for j, e := range engs {
			sn, err := e.Snapshot(name)
			if err != nil {
				rep.fail("%s: engine %d %s: %v", what, j, name, err)
				continue
			}
			checkPartition(cfg, rep, fmt.Sprintf("%s: engine %d %s", what, j, name), want, sn.Labels())
		}
	}
}

// metricsText scrapes an engine's /metrics body into its unlabeled samples.
func metricsText(e *service.Engine) map[string]float64 {
	var buf bytes.Buffer
	e.WriteMetrics(&buf)
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// engineTotals sums Engine.Stats over shards: writes, applies, coalesced.
func engineTotals(e *service.Engine) (writes, applies, coalesced float64) {
	for _, st := range e.Stats() {
		writes += float64(st.Writes)
		applies += float64(st.Applies)
		coalesced += float64(st.Coalesced)
	}
	return
}

// liveHeap forces a collection and returns the live heap it found.
func liveHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}
