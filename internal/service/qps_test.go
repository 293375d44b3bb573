package service

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parcc"
	"parcc/internal/graph/gen"
)

// TestReadHeavyQPSBeatsFullSolve is the serving acceptance bar: at
// n = 2^16, a read-heavy 99/1 mix against the engine must sustain ≥10× the
// QPS of answering every point query with a full solve of the same graph.
// The naive side is the strongest opponent without snapshots or
// incrementality — a warm per-worker session with a cached CSR plan and
// the cheapest full algorithm (union-find).  The graph is 64 disjoint
// 1024-vertex GNM blocks with two edges per vertex, and writes stay
// block-local (alternating add/remove batches of 8 edges), so a
// deletion's dirty region is one block.  Both sides run 8 closed-loop
// workers, each issuing its next op only after the previous completed.
func TestReadHeavyQPSBeatsFullSolve(t *testing.T) {
	const (
		n, block, workers, batchSize = 1 << 16, 1024, 8, 8
		readPct, bar                 = 99, 10.0
		dur                          = 500 * time.Millisecond
	)
	g := gen.ManyComponents(n/block, func(i int) *parcc.Graph {
		return gen.GNM(block, 2*block, uint64(i)+1)
	})

	naive := closedLoop(t, workers, dur, func() func(*rand.Rand) error {
		s, err := parcc.NewSolver(&parcc.Options{Algorithm: parcc.UnionFind, TrustGraph: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		res := &parcc.Result{}
		return func(rng *rand.Rand) error {
			if err := s.SolveInto(g, res); err != nil {
				return err
			}
			_ = res.Labels[rng.Intn(n)] == res.Labels[rng.Intn(n)]
			return nil
		}
	})

	e := New(Options{Solver: &parcc.Options{Backend: parcc.BackendConcurrent, TrustGraph: true}})
	defer e.Close()
	if err := e.Create("svc", g.Clone()); err != nil {
		t.Fatal(err)
	}
	served := closedLoop(t, workers, dur, func() func(*rand.Rand) error {
		var added [][]parcc.Edge // this worker's inserts, removable later
		return func(rng *rand.Rand) error {
			if rng.Intn(100) < readPct {
				var err error
				switch rng.Intn(4) {
				case 0:
					_, err = e.ComponentOf("svc", rng.Intn(n))
				case 1:
					_, err = e.ComponentSize("svc", rng.Intn(n))
				case 2:
					_, err = e.ComponentCount("svc")
				default:
					_, err = e.Connected("svc", rng.Intn(n), rng.Intn(n))
				}
				return err
			}
			if len(added) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(added))
				b := added[i]
				added[i] = added[len(added)-1]
				added = added[:len(added)-1]
				return e.RemoveEdges("svc", b)
			}
			lo := rng.Intn(n/block) * block
			b := make([]parcc.Edge, batchSize)
			for j := range b {
				b[j] = parcc.Edge{U: int32(lo + rng.Intn(block)), V: int32(lo + rng.Intn(block))}
			}
			added = append(added, b)
			return e.AddEdges("svc", b)
		}
	})

	t.Logf("read-heavy %d/%d: %.4g qps served, %.4g qps naive full solve, %.4gx",
		readPct, 100-readPct, served, naive, served/naive)
	if served < bar*naive {
		t.Fatalf("read-heavy served %.4g qps = %.3gx the naive full-solve %.4g qps, want ≥ %gx",
			served, served/naive, naive, bar)
	}
}

// closedLoop runs workers goroutines for dur, each calling its own op
// (built by mk before the clock starts) back to back, and returns the
// aggregate ops per second.  The first op error fails the test.
func closedLoop(t *testing.T, workers int, dur time.Duration, mk func() func(*rand.Rand) error) float64 {
	t.Helper()
	ops := make([]func(*rand.Rand) error, workers)
	for w := range ops {
		ops[w] = mk()
	}
	var stop atomic.Bool
	var total atomic.Int64
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			k := int64(0)
			for ; !stop.Load(); k++ {
				if err := op(rng); err != nil {
					errs <- err
					break
				}
			}
			total.Add(k)
		}()
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	return float64(total.Load()) / time.Since(start).Seconds()
}
