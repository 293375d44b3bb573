package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"parcc"
	"parcc/internal/service"
)

// runLoad drives the rate ladder against the set-up cluster, checks the
// answers after every step, recovers the durable workload from a crash
// image, and derives the metrics.
func runLoad(cfg *config, rep *report, p serveParams, c *cluster, gen *opGen) error {
	orc := newOracles(c.initial)
	engines := []*service.Engine{c.primary}
	if p.durable {
		engines = append(engines, c.feng)
	}
	c.checkEngines(cfg, rep, orc, "after setup", engines...)

	w0, a0, co0 := engineTotals(c.primary)
	pm0 := metricsText(c.primary)
	var fm0 map[string]float64
	if p.durable {
		fm0 = metricsText(c.feng)
	}
	c.acksMu.Lock()
	acks0 := len(c.acks)
	c.acksMu.Unlock()

	// The follower's lag, sampled at a fixed cadence while the load runs.
	var lagMax uint64
	stopLag := make(chan struct{})
	var lagWG sync.WaitGroup
	if p.durable {
		lagWG.Add(1)
		go func() {
			defer lagWG.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopLag:
					return
				case <-tick.C:
					for _, st := range c.follower.Status() {
						lagMax = max(lagMax, st.LagSeqs)
					}
				}
			}
		}()
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cold := &coldPath{}
	defer cold.close()
	var base []opResult
	// segP50 holds each base-rate segment's median latency in reference
	// operations; their median is robust to a few segments that a burst of
	// neighbour load slowed.
	var segP50 []float64
	byRate := map[float64][]opResult{}
	drains := map[float64]time.Duration{}
	for k, st := range ladderPlan(cfg, p) {
		res, drain := c.step(cfg, gen, st.rate, st.dur, k == 0 && cfg.stall > 0)
		tally(rep, res)
		byRate[st.rate] = append(byRate[st.rate], res...)
		drains[st.rate] = max(drains[st.rate], drain)
		if p.durable {
			if err := c.waitFollower(20 * time.Second); err != nil {
				rep.fail("step %d: %v", k, err)
			}
		}
		per := cfg.ref.sample()
		c.checkEngines(cfg, rep, orc, fmt.Sprintf("after step %d", k), engines...)
		if st.rate == p.baseRate {
			segP50 = append(segP50, quantile(latencies(res, anyOp), 0.5)*1e3/per)
			base = append(base, res...)
			if err := c.sampleCold(cfg, rep, orc, cold); err != nil {
				return err
			}
		}
	}
	maxRate := 0.0
	for _, rate := range sortedRates(byRate) {
		res := byRate[rate]
		limit := us(p.limit)
		late := quantile(lateness(res), 0.99)
		if quantile(latencies(res, isWrite), 0.99) <= limit && late <= limit && us(drains[rate]) <= limit {
			maxRate = rate
		}
		fmt.Printf("rate %.0f ops/s: %d ops, p50 %.0fus p99 %.0fus, write p99 %.0fus, late p99 %.0fus, drain %v\n",
			rate, len(res), quantile(latencies(res, anyOp), 0.5), quantile(latencies(res, anyOp), 0.99),
			quantile(latencies(res, isWrite), 0.99), late, drains[rate].Round(time.Microsecond))
	}
	runtime.ReadMemStats(&ms1)
	close(stopLag)
	lagWG.Wait()

	rep.e2e["p50_refops"] = quantile(segP50, 0.5)
	rep.layer["e2e.p50_us"] = quantile(latencies(base, anyOp), 0.5)
	reads, writes := latencies(base, isRead), latencies(base, isWrite)
	rep.layer["e2e.read_p50_us"] = quantile(reads, 0.5)
	rep.layer["e2e.read_p99_us"] = quantile(reads, 0.99)
	rep.layer["e2e.write_ack_p50_us"] = quantile(writes, 0.5)
	rep.layer["e2e.write_ack_p99_us"] = quantile(writes, 0.99)
	rep.layer["e2e.max_rate_ops_per_s"] = maxRate
	rep.layer["loadgen.late_p99_us"] = quantile(lateness(base), 0.99)
	rep.layer["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	rep.layer["runtime.gc_pause_p99_us"] = gcPauseP99(&ms0, &ms1)

	c.acksMu.Lock()
	acks := c.acks
	c.acksMu.Unlock()
	writtenEdges := 0.0
	for _, a := range acks[acks0:] {
		writtenEdges += float64(len(a.batch))
	}
	w1, a1, co1 := engineTotals(c.primary)
	rep.layer["service.coalesce_ratio"] = ratio(co1-co0, w1-w0)
	rep.layer["service.applies_per_write"] = ratio(a1-a0, w1-w0)
	pm1 := metricsText(c.primary)
	d := func(m0, m1 map[string]float64, name string) float64 { return m1[name] - m0[name] }
	rep.layer["service.wal_fsyncs_per_write"] = ratio(d(pm0, pm1, "parcc_wal_fsyncs_total"), w1-w0)
	rep.layer["service.wal_bytes_per_edge"] = ratio(d(pm0, pm1, "parcc_wal_bytes_total"), writtenEdges)
	rep.layer["service.publish_us_mean"] = 1e6 * ratio(d(pm0, pm1, "parcc_snapshot_publish_seconds_sum"),
		d(pm0, pm1, "parcc_snapshot_publish_seconds_count"))
	rep.layer["service.stream_bytes_per_edge"] = ratio(d(pm0, pm1, "parcc_wal_stream_bytes_total"), writtenEdges)

	if p.durable {
		rep.layer["repl.lag_seqs_max"] = float64(lagMax)
		rep.layer["repl.reconnects"] = d(fm0, metricsText(c.feng), "parcc_repl_reconnects_total")
		st := staleness(acks, base, p.shards)
		rep.layer["e2e.staleness_p50_ms"] = quantile(st, 0.5)
		rep.layer["e2e.staleness_p99_ms"] = quantile(st, 0.99)
		rep.layer["e2e.recover_s"] = quantile(cold.secs, 0.5)
		rep.layer["service.replay_edges_per_s"] = quantile(cold.rate, 0.5)
	}
	rep.e2e["cold_refops_per_edge"] = quantile(cold.refops, 0.5)
	rep.layer["e2e.cold_ns_per_edge"] = quantile(cold.perEdge, 0.5)
	fmt.Printf("cold path: %d calls, ns/edge min %.0f p25 %.0f p50 %.0f p75 %.0f max %.0f\n", len(cold.perEdge),
		quantile(cold.perEdge, 0), quantile(cold.perEdge, 0.25), quantile(cold.perEdge, 0.5),
		quantile(cold.perEdge, 0.75), quantile(cold.perEdge, 1))
	if cfg.layers {
		if err := replayLayers(cfg, rep, c, orc, base); err != nil {
			return err
		}
	}
	return nil
}

// stepPlan is one open-loop step of the ladder.
type stepPlan struct {
	rate float64
	dur  time.Duration
}

// ladderPlan splits the time budget: half for the base rate, cut into ten
// segments, and the other half evenly over the ladder's higher rates.
// Each segment is priced against the reference sample taken right after
// it, so a burst of neighbour load, or one slow reference sample, moves a
// tenth of the base-rate ops; cold-path samples follow each segment, so
// they spread over the run instead of bunching at its end.
func ladderPlan(cfg *config, p serveParams) []stepPlan {
	segments := 10
	if cfg.tiny {
		segments = 2
	}
	total := time.Duration(cfg.seconds * float64(time.Second))
	var plan []stepPlan
	for i := 0; i < segments; i++ {
		plan = append(plan, stepPlan{p.baseRate, total / 2 / time.Duration(segments)})
	}
	for _, m := range p.ladder {
		plan = append(plan, stepPlan{m * p.baseRate, total / 2 / time.Duration(len(p.ladder))})
	}
	return plan
}

func sortedRates(m map[float64][]opResult) []float64 {
	rates := make([]float64, 0, len(m))
	for r := range m {
		rates = append(rates, r)
	}
	sort.Float64s(rates)
	return rates
}

// coldPath collects the cold-path samples of a serving workload: ns per
// edge, the same in reference operations, and for recoveries the elapsed
// seconds and replay rate.
type coldPath struct {
	perEdge, refops, secs, rate []float64
	eng                         *service.Engine // the engine in-memory creates run on
}

// add records one cold call over edges, and prices it against the
// reference sample taken right after it.
func (cp *coldPath) add(cfg *config, d time.Duration, edges int) {
	perEdge := float64(d.Nanoseconds()) / float64(edges)
	cp.perEdge = append(cp.perEdge, perEdge)
	cp.refops = append(cp.refops, perEdge/cfg.ref.sample())
}

// coldReps is how many times the cold path runs after each base-rate
// segment (per shard for in-memory creates).
const coldReps = 2

func (cp *coldPath) close() {
	if cp.eng != nil {
		cp.eng.Close()
	}
}

// sampleCold times the workload's cold path coldReps times, each call from
// a freshly collected heap.  In memory it is Engine.Create — NewSolver,
// Attach, and the first full snapshot publish — of every shard graph on a
// second engine; durable, it is Engine.Recover on a fresh engine over a
// crash image: the WAL files as they stand after the last ack, before any
// clean shutdown could checkpoint them.  Every created or recovered
// partition is checked.
func (c *cluster) sampleCold(cfg *config, rep *report, orc *oracles, cp *coldPath) error {
	for r := 0; r < coldReps; r++ {
		if c.p.durable {
			if err := c.recoverOnce(cfg, rep, orc, cp); err != nil {
				return err
			}
			continue
		}
		if cp.eng == nil {
			cp.eng = service.New(service.Options{Solver: engineOptions(cfg.procs)})
		}
		for i, g := range c.initial {
			g := g.Clone()
			rep.attempted++
			runtime.GC()
			start := time.Now()
			err := cp.eng.Create(c.names[i], g)
			end := time.Now()
			cfg.tr.record("service", "Engine.Create", 0, start, end)
			if err != nil {
				return fmt.Errorf("create %s: %w", c.names[i], err)
			}
			cp.add(cfg, end.Sub(start), g.M())
			sn, err := cp.eng.Snapshot(c.names[i])
			if err != nil {
				return err
			}
			checkLabels(cfg, rep, "create "+c.names[i], c.initial[i], sn.Labels())
			if err := cp.eng.Drop(c.names[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *cluster) recoverOnce(cfg *config, rep *report, orc *oracles, cp *coldPath) error {
	crash := filepath.Join(filepath.Dir(c.walDir), "crash")
	defer os.RemoveAll(crash)
	if err := os.CopyFS(crash, os.DirFS(c.walDir)); err != nil {
		return fmt.Errorf("crash image: %w", err)
	}
	e := service.New(service.Options{Solver: engineOptions(cfg.procs), WALDir: crash})
	defer e.Close()
	runtime.GC()
	start := time.Now()
	st, err := e.Recover()
	end := time.Now()
	cfg.tr.record("service", "Engine.Recover", 0, start, end)
	rep.attempted++
	if err != nil || st.Graphs != len(c.names) || st.Edges == 0 {
		rep.fail("recover: %d graphs, err=%v", st.Graphs, err)
		return nil
	}
	cp.secs = append(cp.secs, end.Sub(start).Seconds())
	cp.add(cfg, end.Sub(start), int(st.Edges))
	cp.rate = append(cp.rate, float64(st.Edges)/st.Elapsed.Seconds())
	c.checkEngines(cfg, rep, orc, "recovered", e)
	return nil
}

// lateness is how late the generator issued each op, in µs.
func lateness(res []opResult) []float64 {
	out := make([]float64, len(res))
	for i := range res {
		out[i] = us(res[i].start.Sub(res[i].due))
	}
	return out
}

// replayLayers replays the run's acknowledged op stream one layer down at
// a time: first on a fresh Engine called directly (pricing the HTTP layer
// as the difference), then on bare Solvers with a PublishSnapshot after
// every write (pricing the session, its publishes, and forest deletes).
func replayLayers(cfg *config, rep *report, c *cluster, orc *oracles, base []opResult) error {
	opts := engineOptions(cfg.procs)
	c.acksMu.Lock()
	acks := c.acks
	c.acksMu.Unlock()

	// Engine, called directly.
	e := service.New(service.Options{Solver: opts})
	defer e.Close()
	for i, name := range c.names {
		if err := e.Create(name, c.initial[i].Clone()); err != nil {
			return err
		}
	}
	var engWrite []float64
	for _, a := range acks {
		rep.attempted++
		var err error
		start := time.Now()
		if a.remove {
			err = e.RemoveEdges(c.names[a.shard], a.batch)
		} else {
			err = e.AddEdges(c.names[a.shard], a.batch)
		}
		end := time.Now()
		cfg.tr.record("service", "Engine.write", 0, start, end)
		engWrite = append(engWrite, us(end.Sub(start)))
		if err != nil {
			rep.fail("engine replay: %v", err)
		}
	}
	c.checkEngines(cfg, rep, orc, "engine replay", e)
	var engRead, httpRead []float64
	for _, r := range base {
		if r.kind.write() {
			continue
		}
		httpRead = append(httpRead, us(r.end.Sub(r.start)))
		name := c.names[r.shard]
		rep.attempted++
		var err error
		start := time.Now()
		switch r.kind {
		case opConnected:
			_, err = e.Connected(name, r.u, r.v)
		case opComponent:
			if _, err = e.ComponentOf(name, r.u); err == nil {
				_, err = e.ComponentSize(name, r.u)
			}
		case opCount:
			_, err = e.ComponentCount(name)
		}
		end := time.Now()
		cfg.tr.record("service", "Engine.read", r.id, start, end)
		engRead = append(engRead, float64(end.Sub(start).Nanoseconds()))
		if err != nil {
			rep.fail("engine read replay: %v", err)
		}
	}
	rep.layer["service.engine_read_ns"] = quantile(engRead, 0.5)
	rep.layer["service.engine_write_us"] = quantile(engWrite, 0.5)
	rep.layer["service.http_us"] = quantile(httpRead, 0.5) - quantile(engRead, 0.5)/1e3

	// Bare solvers, one per shard, publishing after every write.
	var add, remove, publish, apply, planNS, planB []float64
	var attachNS, attachEdges, cloned, publishes float64
	var forest, nonForest, scans, fallbacks float64
	var readNS []float64
	for i, name := range c.names {
		s, err := parcc.NewSolver(opts)
		if err != nil {
			return err
		}
		g := c.initial[i].Clone()
		d := cfg.tr.timed("parcc", "Attach", func() { err = s.Attach(g) })
		if err != nil {
			s.Close()
			return fmt.Errorf("attach %s: %w", name, err)
		}
		attachNS += float64(d.Nanoseconds())
		attachEdges += float64(g.M())
		if _, err := s.PublishSnapshot(); err != nil {
			s.Close()
			return err
		}
		for _, a := range acks {
			if a.shard != i {
				continue
			}
			rep.attempted++
			var err error
			start := time.Now()
			if a.remove {
				err = s.RemoveEdges(a.batch)
			} else {
				err = s.AddEdges(a.batch)
			}
			end := time.Now()
			if err != nil {
				rep.fail("solver replay %s: %v", name, err)
				continue
			}
			t := us(end.Sub(start))
			apply = append(apply, t)
			if a.remove {
				cfg.tr.record("parcc", "RemoveEdges", 0, start, end)
				remove = append(remove, t)
				if tr := s.LastTrace(); tr != nil && tr.Incremental != nil {
					inc := tr.Incremental
					forest += float64(inc.ForestDeletes)
					nonForest += float64(inc.NonForestDeletes)
					scans += float64(inc.ReplaceScans)
					fallbacks += float64(inc.BudgetFallbacks)
				}
			} else {
				cfg.tr.record("parcc", "AddEdges", 0, start, end)
				add = append(add, t)
			}
			var sn *parcc.Snapshot
			pd := cfg.tr.timed("parcc", "PublishSnapshot", func() { sn, err = s.PublishSnapshot() })
			if err != nil {
				rep.fail("publish %s: %v", name, err)
				continue
			}
			publish = append(publish, us(pd))
			cloned += float64(sn.ClonedPages())
			publishes++
		}
		want := orc.inc[i].Labels()
		sn := s.ReadView()
		checkPartition(cfg, rep, "solver replay "+name, want, sn.Labels())
		readNS = append(readNS, snapshotReadNS(cfg, sn, uint64(i)))
		s.Close()

		ps, err := parcc.NewSolver(opts)
		if err != nil {
			return err
		}
		var ma, mb runtime.MemStats
		runtime.ReadMemStats(&ma)
		pd := cfg.tr.timed("graph", "Plan", func() { ps.Plan(c.initial[i]) })
		runtime.ReadMemStats(&mb)
		ps.Close()
		m := float64(max(c.initial[i].M(), 1))
		planNS = append(planNS, float64(pd.Nanoseconds())/m)
		planB = append(planB, float64(mb.TotalAlloc-ma.TotalAlloc)/m)
	}
	rep.layer["graph.plan_ns_per_edge"] = quantile(planNS, 0.5)
	rep.layer["graph.plan_bytes_per_edge"] = quantile(planB, 0.5)
	rep.layer["parcc.attach_ns_per_edge"] = ratio(attachNS, attachEdges)
	rep.layer["parcc.add_us_p50"] = quantile(add, 0.5)
	rep.layer["parcc.add_us_p99"] = quantile(add, 0.99)
	rep.layer["parcc.remove_us_p50"] = quantile(remove, 0.5)
	rep.layer["parcc.remove_us_p99"] = quantile(remove, 0.99)
	rep.layer["parcc.publish_us_p50"] = quantile(publish, 0.5)
	rep.layer["parcc.publish_us_p99"] = quantile(publish, 0.99)
	rep.layer["parcc.cloned_pages_per_publish"] = ratio(cloned, publishes)
	rep.layer["parcc.snapshot_read_ns"] = quantile(readNS, 0.5)
	rep.layer["dynconn.forest_delete_frac"] = ratio(forest, forest+nonForest)
	rep.layer["dynconn.scans_per_forest_delete"] = ratio(scans, forest)
	rep.layer["dynconn.budget_fallbacks"] = fallbacks

	// What the write ack's p50 spends outside HTTP, apply, fsync and
	// publish: queue wait and coalescing.
	rep.layer["service.unattributed_us"] = rep.layer["e2e.write_ack_p50_us"] -
		(rep.layer["service.http_us"] + quantile(apply, 0.5) + quantile(publish, 0.5) +
			rep.layer["service.wal_fsyncs_per_write"]*cfg.fsyncUS)
	return nil
}

// snapshotReadNS times the snapshot's point queries (Connected,
// ComponentOf, ComponentSize in turn) over seeded random vertices and
// returns the mean per call.
func snapshotReadNS(cfg *config, sn *parcc.Snapshot, salt uint64) float64 {
	const calls = 30000
	rng := rand.New(rand.NewPCG(cfg.seed, salt))
	vs := make([]int, 2*calls)
	for i := range vs {
		vs[i] = rng.IntN(sn.N())
	}
	sink := 0
	start := time.Now()
	for i := 0; i < calls; i++ {
		switch i % 3 {
		case 0:
			if sn.Connected(vs[2*i], vs[2*i+1]) {
				sink++
			}
		case 1:
			sink += int(sn.ComponentOf(vs[2*i]))
		default:
			sink += sn.ComponentSize(vs[2*i])
		}
	}
	end := time.Now()
	cfg.tr.record("parcc", "Snapshot reads", 0, start, end)
	if sink == -1 {
		fmt.Println(sink)
	}
	return float64(end.Sub(start).Nanoseconds()) / calls
}
