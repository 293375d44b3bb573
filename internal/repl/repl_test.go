// Replication-layer tests: a real primary engine behind its HTTP handler,
// a real follower engine fed by a Follower, and (for the robustness
// matrix) a seeded fault-injection transport between them.  External test
// package so faultconn (which imports repl) can sit in the middle.
package repl_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"parcc"
	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
	"parcc/internal/repl"
	"parcc/internal/repl/faultconn"
	"parcc/internal/service"
)

// newPrimary is a WAL-backed engine behind its handler, with a fast
// stream heartbeat so followers' freshness clocks tick quickly.
func newPrimary(t *testing.T) (*service.Engine, *httptest.Server) {
	t.Helper()
	e := service.New(service.Options{Solver: &parcc.Options{}, WALDir: t.TempDir()})
	srv := httptest.NewServer(service.NewHandlerOpts(e, service.HandlerOptions{
		StreamHeartbeat: 20 * time.Millisecond,
	}))
	t.Cleanup(func() { srv.Close(); e.Close() })
	return e, srv
}

// newFollower wires a read-only engine to a Follower over tr, with test
// timings tight enough that convergence is fast but backoff still real.
func newFollower(t *testing.T, tr repl.Transport) (*service.Engine, *repl.Follower) {
	t.Helper()
	fe := service.New(service.Options{ReadOnly: true, Primary: "http://primary.test"})
	f, err := repl.New(repl.Options{
		Primary:   "http://primary.test",
		Engine:    fe,
		Transport: tr,
		Poll:      20 * time.Millisecond,
		RetryMin:  2 * time.Millisecond,
		RetryMax:  50 * time.Millisecond,
		Stall:     400 * time.Millisecond,
		MaxLag:    30 * time.Second,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	t.Cleanup(func() { f.Stop(); fe.Close() })
	return fe, f
}

// driveWrites applies `batches` randomized sequential add/remove batches
// through the primary, mirroring each into the oracle, and extends
// history so history[v] is the expected partition at snapshot version v.
func driveWrites(t *testing.T, e *service.Engine, name string, oracle *baseline.IncOracle,
	history map[uint64][]int32, fromVersion uint64, batches int, seed int64) uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	v := fromVersion
	for b := 0; b < batches; b++ {
		live := oracle.Graph()
		if rng.Intn(10) < 7 || live.M() == 0 {
			k := 1 + rng.Intn(4)
			batch := make([]parcc.Edge, k)
			for i := range batch {
				batch[i] = parcc.Edge{U: int32(rng.Intn(live.N)), V: int32(rng.Intn(live.N))}
			}
			if err := e.AddEdges(name, batch); err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
			if err := oracle.AddEdges(batch); err != nil {
				t.Fatal(err)
			}
		} else {
			k := 1 + rng.Intn(3)
			if k > live.M() {
				k = live.M()
			}
			idx := rng.Perm(live.M())[:k]
			batch := make([]parcc.Edge, 0, k)
			for _, i := range idx {
				batch = append(batch, live.Edges[i])
			}
			if err := e.RemoveEdges(name, batch); err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
			if err := oracle.RemoveEdges(batch); err != nil {
				t.Fatal(err)
			}
		}
		v++
		history[v] = append([]int32(nil), oracle.Labels()...)
	}
	return v
}

// watchFollower polls the follower's snapshot until it reaches version
// `want` with the oracle's partition, failing on any published version
// that does not match its history entry — the "never serve an unapplied
// version" property — or on a version going backwards.
func watchFollower(t *testing.T, fe *service.Engine, name string,
	history map[uint64][]int32, want uint64, deadline time.Duration) {
	t.Helper()
	var last uint64
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		sn, err := fe.Snapshot(name)
		if err != nil {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		v := sn.Version()
		if v < last {
			t.Fatalf("follower version went backwards: %d after %d", v, last)
		}
		last = v
		wantLabels, ok := history[v]
		if !ok {
			t.Fatalf("follower published version %d, which the primary never assigned", v)
		}
		if !graph.SamePartition(wantLabels, sn.Labels()) {
			t.Fatalf("follower partition at version %d differs from the oracle", v)
		}
		if v == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("follower stuck at version %d, want %d after %v", last, want, deadline)
}

// followerEdges reads the follower shard's live edge count — a
// double-applied add or remove group shows up here even when the label
// partition happens to be insensitive to it.
func followerEdges(t *testing.T, fe *service.Engine, name string) int64 {
	t.Helper()
	for _, st := range fe.Stats() {
		if st.Name == name {
			return st.Edges
		}
	}
	t.Fatalf("no stats for %q", name)
	return 0
}

// TestFollowerConverges: clean network — the follower replays the full
// history, matches the oracle at every published version, and tracks new
// writes live.
func TestFollowerConverges(t *testing.T) {
	e, srv := newPrimary(t)
	g0 := gen.GNM(64, 80, 11)
	oracle := baseline.NewIncOracle(g0.Clone())
	if err := e.Create("g", g0.Clone()); err != nil {
		t.Fatal(err)
	}
	history := map[uint64][]int32{1: append([]int32(nil), oracle.Labels()...)}
	final := driveWrites(t, e, "g", oracle, history, 1, 20, 101)

	fe, f := newFollower(t, repl.NewHTTPTransport(srv.URL))
	watchFollower(t, fe, "g", history, final, 15*time.Second)
	if got, want := followerEdges(t, fe, "g"), int64(oracle.Graph().M()); got != want {
		t.Fatalf("follower edge count %d, want %d", got, want)
	}

	// Live writes replicate too.
	final = driveWrites(t, e, "g", oracle, history, final, 8, 202)
	watchFollower(t, fe, "g", history, final, 15*time.Second)

	if err := f.Ready(); err != nil {
		t.Fatalf("converged follower not ready: %v", err)
	}
	sts := f.Status()
	if len(sts) != 1 || sts[0].Applied != final || !sts[0].Fresh {
		t.Fatalf("status: %+v (want applied=%d fresh)", sts, final)
	}
}

// TestFollowerFaultInjection is the robustness matrix: seeded connect
// failures, read delays, and mid-frame severs between primary and
// follower.  The follower must still converge to the oracle, never
// publish an unapplied version, and never double-apply a group a severed
// connection made it re-fetch.
func TestFollowerFaultInjection(t *testing.T) {
	for _, seed := range []int64{7, 23} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			e, srv := newPrimary(t)
			g0 := gen.GNM(48, 60, 5)
			oracle := baseline.NewIncOracle(g0.Clone())
			if err := e.Create("g", g0.Clone()); err != nil {
				t.Fatal(err)
			}
			history := map[uint64][]int32{1: append([]int32(nil), oracle.Labels()...)}
			final := driveWrites(t, e, "g", oracle, history, 1, 30, seed*13)

			ft := faultconn.New(repl.NewHTTPTransport(srv.URL), faultconn.Plan{
				Seed:             seed,
				ConnectFailEvery: 2,
				SeverAfterMin:    100,
				SeverAfterMax:    600,
				Delay:            500 * time.Microsecond,
			})
			fe, _ := newFollower(t, ft)
			watchFollower(t, fe, "g", history, final, 30*time.Second)
			if got, want := followerEdges(t, fe, "g"), int64(oracle.Graph().M()); got != want {
				t.Fatalf("follower edge count %d, want %d (double-applied group?)", got, want)
			}

			// Keep writing under continuing faults.
			final = driveWrites(t, e, "g", oracle, history, final, 10, seed*29)
			watchFollower(t, fe, "g", history, final, 30*time.Second)
			if got, want := followerEdges(t, fe, "g"), int64(oracle.Graph().M()); got != want {
				t.Fatalf("post-fault edge count %d, want %d", got, want)
			}
			fails, severs := ft.Counts()
			if fails == 0 || severs == 0 {
				t.Fatalf("fault schedule never fired: fails=%d severs=%d", fails, severs)
			}
		})
	}
}

// TestFollowerRestart: a follower stopped mid-stream and replaced by a
// fresh one (same serving engine) catches back up without double-applying
// — the restarted tailer resyncs from the primary's head record.
func TestFollowerRestart(t *testing.T) {
	e, srv := newPrimary(t)
	g0 := gen.GNM(32, 40, 3)
	oracle := baseline.NewIncOracle(g0.Clone())
	if err := e.Create("g", g0.Clone()); err != nil {
		t.Fatal(err)
	}
	history := map[uint64][]int32{1: append([]int32(nil), oracle.Labels()...)}
	final := driveWrites(t, e, "g", oracle, history, 1, 10, 41)

	fe := service.New(service.Options{ReadOnly: true, Primary: "http://primary.test"})
	t.Cleanup(func() { fe.Close() })
	mk := func(seed int64) *repl.Follower {
		f, err := repl.New(repl.Options{
			Primary:   "http://primary.test",
			Engine:    fe,
			Transport: repl.NewHTTPTransport(srv.URL),
			Poll:      20 * time.Millisecond,
			RetryMin:  2 * time.Millisecond,
			RetryMax:  50 * time.Millisecond,
			Stall:     400 * time.Millisecond,
			MaxLag:    30 * time.Second,
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.Start()
		return f
	}
	f1 := mk(1)
	watchFollower(t, fe, "g", history, final, 15*time.Second)
	f1.Stop()

	// Writes the first follower never saw.
	final = driveWrites(t, e, "g", oracle, history, final, 6, 42)

	f2 := mk(2)
	defer f2.Stop()
	watchFollower(t, fe, "g", history, final, 15*time.Second)
	if got, want := followerEdges(t, fe, "g"), int64(oracle.Graph().M()); got != want {
		t.Fatalf("post-restart edge count %d, want %d", got, want)
	}
}

// TestFollowerDropRecreate: dropping and re-creating a graph on the
// primary rotates the log epoch; the follower must abandon the old
// history and converge on the new graph instead of splicing the two.
func TestFollowerDropRecreate(t *testing.T) {
	e, srv := newPrimary(t)
	if err := e.Create("g", gen.Cycle(8)); err != nil {
		t.Fatal(err)
	}
	fe, _ := newFollower(t, repl.NewHTTPTransport(srv.URL))
	waitSnapshot := func(wantN int, deadline time.Duration) *parcc.Snapshot {
		stop := time.Now().Add(deadline)
		for time.Now().Before(stop) {
			sn, err := fe.Snapshot("g")
			if err == nil && len(sn.Labels()) == wantN {
				return sn
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("follower never served n=%d", wantN)
		return nil
	}
	sn := waitSnapshot(8, 15*time.Second)
	if sn.NumComponents() != 1 {
		t.Fatalf("cycle components: %d", sn.NumComponents())
	}

	if err := e.Drop("g"); err != nil {
		t.Fatal(err)
	}
	g2 := gen.GNM(12, 0, 9)
	if err := e.Create("g", g2); err != nil {
		t.Fatal(err)
	}
	sn = waitSnapshot(12, 15*time.Second)
	if sn.NumComponents() != 12 {
		t.Fatalf("re-created graph components: %d, want 12", sn.NumComponents())
	}
}

// streamCounter counts the Stream calls a follower makes through it.
type streamCounter struct {
	repl.Transport
	streams atomic.Int64
}

func (c *streamCounter) Stream(ctx context.Context, name string, from, epoch uint64) (io.ReadCloser, error) {
	c.streams.Add(1)
	return c.Transport.Stream(ctx, name, from, epoch)
}

// TestFollowerStopsDroppedGraphTailer: once discovery drops a graph and
// its replica is gone from the engine, the graph's tailer has stopped —
// it opens no further streams (a leftover tailer reconnects every backoff
// period until Stop).
func TestFollowerStopsDroppedGraphTailer(t *testing.T) {
	e, srv := newPrimary(t)
	if err := e.Create("g", gen.Cycle(8)); err != nil {
		t.Fatal(err)
	}
	tr := &streamCounter{Transport: repl.NewHTTPTransport(srv.URL)}
	fe, _ := newFollower(t, tr)
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		stop := time.Now().Add(15 * time.Second)
		for !ok() {
			if time.Now().After(stop) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor("the replica", func() bool { _, err := fe.Snapshot("g"); return err == nil })

	if err := e.Drop("g"); err != nil {
		t.Fatal(err)
	}
	waitFor("the drop", func() bool {
		_, err := fe.Snapshot("g")
		return errors.Is(err, service.ErrGraphNotFound)
	})
	before := tr.streams.Load()
	time.Sleep(300 * time.Millisecond) // ≥ 6 reconnects at RetryMax 50ms
	if after := tr.streams.Load(); after != before {
		t.Fatalf("dropped graph's tailer opened %d streams after teardown", after-before)
	}
}
