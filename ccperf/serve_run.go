package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runServe runs a serving workload: setup (repeated cfg.setupReps times,
// setup_s is the median), then the open-loop rate ladder with answer
// checks after every step, then for the durable workload recovery from a
// crash image, then in a traced run the layer-by-layer replays.
func runServe(cfg *config, p serveParams) (*report, error) {
	rep := newReport()
	warm := cfg.warmUp()
	var c *cluster
	var gen *opGen
	var setups []float64
	var heap float64
	for i := 0; i < cfg.setupReps; i++ {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i))
		heapBefore := liveHeap()
		t0 := time.Now()
		cl, err := setupCluster(cfg, p, dir)
		if err != nil {
			return nil, err
		}
		gen = newOpGen(p, cfg.seed, cl.initial)
		res, _ := cl.step(cfg, gen, p.baseRate, warm, false)
		tally(rep, res)
		if p.durable {
			if err := cl.waitFollower(20 * time.Second); err != nil {
				rep.fail("warm-up: %v", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		heap = liveHeap() - heapBefore
		if i+1 < cfg.setupReps {
			cl.close()
			os.RemoveAll(dir)
		} else {
			c = cl
		}
	}
	defer c.close()
	rep.e2e["setup_s"] = quantile(setups, 0.5)
	stored := 0.0
	for _, st := range c.primary.Stats() {
		stored += float64(st.Edges)
	}
	if p.durable {
		stored *= 2 // the follower holds a second copy
	}
	rep.e2e["bytes_per_edge"] = heap / stored
	rep.layer["e2e.heap_bytes_per_edge"] = rep.e2e["bytes_per_edge"]
	if err := runLoad(cfg, rep, p, c, gen); err != nil {
		return nil, err
	}
	return rep, nil
}

// tally counts a step's ops and its failures (non-2xx or a version that
// went backwards).
func tally(rep *report, res []opResult) {
	for _, r := range res {
		rep.attempted++
		if r.status != http.StatusOK {
			rep.fail("%s on shard%d: status %d", r.kind, r.shard, r.status)
		}
	}
}

// latencies returns end − due of the results matching keep, in µs.
func latencies(res []opResult, keep func(*opResult) bool) []float64 {
	var out []float64
	for i := range res {
		if keep(&res[i]) {
			out = append(out, us(res[i].end.Sub(res[i].due)))
		}
	}
	return out
}

func isRead(r *opResult) bool  { return !r.kind.write() }
func isWrite(r *opResult) bool { return r.kind.write() }
func anyOp(*opResult) bool     { return true }

// staleness computes, for every follower read, how long the primary had
// already acknowledged a version newer than the one the read reported (0
// when the read was current), in ms.
func staleness(acks []ack, reads []opResult, shards int) []float64 {
	type ver struct {
		v  uint64
		at time.Time
	}
	first := make([][]ver, shards)
	for _, a := range acks {
		first[a.shard] = append(first[a.shard], ver{a.version, a.at})
	}
	for _, vs := range first {
		sort.Slice(vs, func(i, j int) bool {
			if vs[i].v != vs[j].v {
				return vs[i].v < vs[j].v
			}
			return vs[i].at.Before(vs[j].at)
		})
	}
	var out []float64
	for _, r := range reads {
		if r.status != http.StatusOK {
			continue
		}
		vs := first[r.shard]
		i := sort.Search(len(vs), func(i int) bool { return vs[i].v > r.version })
		s := 0.0
		if i < len(vs) && vs[i].at.Before(r.start) {
			s = float64(r.start.Sub(vs[i].at).Nanoseconds()) / 1e6
		}
		out = append(out, s)
	}
	return out
}
