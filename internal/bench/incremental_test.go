package bench

import (
	"math/rand"
	"testing"
	"time"

	"parcc"
	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
)

// TestINCSpeedupAndShape replays edge-update streams two ways — on a live
// Solver session (AddEdges/RemoveEdges + Components after every batch)
// and as a cold from-scratch re-solve of the mutated graph per batch —
// and asserts the incremental acceptance bars at their published scale,
// n = 2^16:
//
//   - insert-only: 24 batches of 512 random inserts on GNM(n, 2n) run ≥5×
//     faster live than cold (AddEdges does O(batch·α) union-find work,
//     a re-solve re-pays O(m+n));
//   - delete-dominated: 32 delete-only batches of 32 existing edges on a
//     dense GNM(n, 8n) giant component run ≥10× faster live (a non-forest
//     deletion is O(1), a forest deletion a bounded replacement search);
//   - mixed 75/25 and delete-heavy 50/50 (quarter-size delete batches)
//     carry no bar but replay the same way.
//
// Both sides must end every workload on the same component count.
func TestINCSpeedupAndShape(t *testing.T) {
	const n, batches, batchSize, seed = 1 << 16, 24, 512, 1
	opts := &parcc.Options{Backend: parcc.BackendSequential, Seed: seed}
	for _, w := range []struct {
		name      string
		removePct int // percentage of batches that are deletions
		bar       float64
	}{
		{"insert-only", 0, 5},
		{"mixed 75/25", 25, 0},
		{"delete-heavy", 50, 0},
	} {
		base := gen.GNM(n, 2*n, seed)
		rng := rand.New(rand.NewSource(seed + int64(w.removePct)))
		// Pre-generate the batch stream so both sides replay identical
		// mutations; the oracle supplies the reference multiset semantics.
		sim := baseline.NewIncOracle(base)
		steps := make([]incStep, batches)
		for i := range steps {
			if i > 0 && rng.Intn(100) < w.removePct {
				steps[i] = incStep{remove: true, batch: pickLive(rng, sim, batchSize/4)}
				if err := sim.RemoveEdges(steps[i].batch); err != nil {
					t.Fatal(err)
				}
			} else {
				b := make([]graph.Edge, batchSize)
				for j := range b {
					b[j] = graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
				}
				steps[i] = incStep{batch: b}
				if err := sim.AddEdges(b); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkINCSpeedup(t, w.name, opts, base, steps, w.bar)
	}

	// Delete-dominated: nearly every deleted edge of a dense giant
	// component is non-forest, so the live side retires it in O(1) while
	// the cold side re-solves the whole component per batch.
	const dm, dbatches, dsize = 8 * n, 32, 32
	base := gen.GNM(n, dm, seed+7)
	rng := rand.New(rand.NewSource(seed + 99))
	sim := baseline.NewIncOracle(base)
	steps := make([]incStep, dbatches)
	for i := range steps {
		steps[i] = incStep{remove: true, batch: pickLive(rng, sim, dsize)}
		if err := sim.RemoveEdges(steps[i].batch); err != nil {
			t.Fatal(err)
		}
	}
	checkINCSpeedup(t, "delete-dominated", opts, base, steps, 10)
}

// checkINCSpeedup replays steps live and cold and fails unless the cold
// wall is at least bar times the live one.
func checkINCSpeedup(t *testing.T, name string, opts *parcc.Options, base *graph.Graph, steps []incStep, bar float64) {
	t.Helper()
	incWall, coldWall := incReplay(t, opts, base, steps)
	sp := coldWall.Seconds() / incWall.Seconds()
	t.Logf("%s: n=%d m0=%d batches=%d inc %.3g ms/batch, cold %.3g ms/batch, speedup %.4gx",
		name, base.N, base.M(), len(steps),
		incWall.Seconds()*1000/float64(len(steps)), coldWall.Seconds()*1000/float64(len(steps)), sp)
	if sp < bar {
		t.Errorf("%s: incremental speedup over the cold re-solve = %.3gx, want ≥ %gx", name, sp, bar)
	}
}

// incStep is one batch of a mutation stream.
type incStep struct {
	remove bool
	batch  []graph.Edge
}

// pickLive draws k distinct live edge occurrences (fewer if the graph
// holds fewer) from the oracle's current multiset.
func pickLive(rng *rand.Rand, sim *baseline.IncOracle, k int) []graph.Edge {
	live := sim.Graph()
	k = min(k, live.M())
	b := make([]graph.Edge, 0, k)
	for _, j := range rng.Perm(live.M())[:k] {
		b = append(b, live.Edges[j])
	}
	return b
}

// incReplay replays steps twice from base and returns both wall times:
// once on a live session (update + re-query per batch), once as a cold
// from-scratch solve of the mutated graph per batch (session state is kept
// to be fair to the cold path's arena; the partition is recomputed per
// batch, which is what "no incremental support" means — mutations go
// through an oracle with the same reference removal semantics).  Fails
// if the two sides end on different component counts.
func incReplay(t *testing.T, opts *parcc.Options, base *graph.Graph, steps []incStep) (incWall, coldWall time.Duration) {
	s, err := parcc.NewSolver(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Attach(base.Clone()); err != nil {
		t.Fatal(err)
	}
	res := &parcc.Result{}
	t0 := time.Now()
	for _, st := range steps {
		if st.remove {
			err = s.RemoveEdges(st.batch)
		} else {
			err = s.AddEdges(st.batch)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ComponentsInto(res); err != nil {
			t.Fatal(err)
		}
	}
	incWall = time.Since(t0)
	incComps := res.NumComponents

	cold, err := parcc.NewSolver(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	cg := baseline.NewIncOracle(base)
	t0 = time.Now()
	for _, st := range steps {
		if st.remove {
			err = cg.RemoveEdges(st.batch)
		} else {
			err = cg.AddEdges(st.batch)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := cold.SolveInto(cg.Graph(), res); err != nil {
			t.Fatal(err)
		}
	}
	coldWall = time.Since(t0)
	if res.NumComponents != incComps {
		t.Fatalf("incremental and cold component counts diverged: %d vs %d", incComps, res.NumComponents)
	}
	return incWall, coldWall
}

// BenchmarkRemoveEdgesByShape reports the wall-clock cost per removed
// edge (ns/edge) of RemoveEdges batches of 8 on a warm sequential
// session, across degree shapes: the edge store finds each removed copy
// by walking both endpoints' incidence lists, O(min degree), so the dense
// shapes show that cost.  Each shape removes up to 512 batches of
// distinct random edges, then re-attaches a fresh copy untimed.
//
//	go test -run '^$' -bench RemoveEdgesByShape -benchtime 2000x ./internal/bench/
func BenchmarkRemoveEdgesByShape(b *testing.B) {
	const n, per, batches = 1 << 15, 8, 512
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		// ccperf's serve shard: 1024-vertex GNM blocks, average degree 4.
		{"serve", gen.ManyComponents(n/1024, func(i int) *graph.Graph { return gen.GNM(1024, 2048, uint64(i)+1) })},
		{"gnm-deg32", gen.GNM(n, 16*n, 1)},
		{"barabasi-albert-8", gen.BarabasiAlbert(n, 8, 1)},
		{"complete-1024", gen.Complete(1024)},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			rm := make([]graph.Edge, per*batches)
			for i, p := range rng.Perm(c.g.M())[:len(rm)] {
				rm[i] = c.g.Edges[p]
			}
			s, err := parcc.NewSolver(&parcc.Options{Backend: parcc.BackendSequential, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			// attach binds a fresh copy and warms the session's
			// per-remove buffers with a loop added and removed.
			attach := func() {
				warm := []graph.Edge{{U: 0, V: 0}}
				if s.Attach(c.g.Clone()) != nil || s.AddEdges(warm) != nil || s.RemoveEdges(warm) != nil {
					b.Fatal("attach and warm-up failed")
				}
			}
			attach()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % batches
				if k == 0 && i > 0 {
					b.StopTimer()
					attach()
					b.StartTimer()
				}
				if err := s.RemoveEdges(rm[k*per : (k+1)*per]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*per), "ns/edge")
		})
	}
}
