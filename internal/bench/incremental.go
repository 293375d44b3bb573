package bench

import (
	"math/rand"
	"time"

	"parcc"
	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
)

// INCIncrementalUpdates is the mutable-graph serving experiment: a stream
// of edge-update batches, each followed by a component query, answered two
// ways — incrementally on a live Solver session (AddEdges/RemoveEdges +
// Components) and by a cold from-scratch re-solve of the mutated graph.
// Insert-only streams are the incremental subsystem's headline: the live
// path does O(batch·α) work per batch while the cold path re-pays
// O(m+n), so the speedup grows linearly with graph size (the acceptance
// bar is ≥5× at n = 2^16, i.e. -scale full).  Mixed and delete-heavy
// streams show the spanning-forest deletion path on sparse graphs.  The
// fourth, delete-dominated family runs delete-only batches on a dense
// giant component, with a ≥10× acceptance verdict in the table notes.
func INCIncrementalUpdates(c Config) *Table {
	n, batches, batchSize := 1<<12, 12, 128
	if c.Scale == Full {
		n, batches, batchSize = 1<<16, 24, 512
	}

	opts := &parcc.Options{Backend: c.backend(), Procs: c.procs(), Seed: c.seed()}

	t := &Table{
		ID:    "INC",
		Title: "incremental updates: live session vs cold re-solve per batch",
		Claim: "insertions fold into the live partition in O(batch) CAS union-find work and " +
			"deletions re-solve only the dirty components, so update/query streams beat " +
			"from-scratch re-solves by a factor that grows with graph size",
		Columns: []string{"workload", "n", "m0", "batches", "batch",
			"inc ms/batch", "cold ms/batch", "speedup"},
	}
	row := func(name string, base *graph.Graph, steps []incStep, size int) float64 {
		incWall, coldWall := incReplay(opts, base, steps)
		sp := ratio(coldWall.Seconds(), incWall.Seconds())
		t.Add(name, base.N, base.M(), len(steps), size,
			incWall.Seconds()*1000/float64(len(steps)),
			coldWall.Seconds()*1000/float64(len(steps)),
			sp)
		return sp
	}

	type workload struct {
		name      string
		removePct int // percentage of batches that are deletions
	}
	for _, w := range []workload{
		{"insert-only", 0},
		{"mixed 75/25", 25},
		{"delete-heavy", 50},
	} {
		base := gen.GNM(n, 2*n, c.seed())
		rng := rand.New(rand.NewSource(int64(c.seed()) + int64(w.removePct)))

		// Pre-generate the batch stream so both sides replay identical
		// mutations; the oracle supplies the reference multiset semantics.
		sim := baseline.NewIncOracle(base) // evolves as the stream is generated
		steps := make([]incStep, batches)
		for i := range steps {
			if rm := i > 0 && rng.Intn(100) < w.removePct; rm {
				steps[i] = incStep{remove: true, batch: pickLive(rng, sim, batchSize/4)}
				if err := sim.RemoveEdges(steps[i].batch); err != nil {
					panic(err)
				}
			} else {
				b := make([]graph.Edge, batchSize)
				for j := range b {
					b[j] = graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
				}
				steps[i] = incStep{batch: b}
				if err := sim.AddEdges(b); err != nil {
					panic(err)
				}
			}
		}
		row(w.name, base, steps, batchSize)
	}
	t.Note("both sides replay the identical pre-generated mutation stream and answer a "+
		"component query after every batch; final counts are asserted equal.  deletions "+
		"are quarter-size batches of existing edges.  backend=%s.", string(opts.Backend))
	t.Note("the cold side re-solves the full mutated graph with the session's default " +
		"algorithm (FLS); the incremental side folds inserts into the live CAS union-find " +
		"and resolves deletes through the spanning forest, re-solving only the " +
		"components whose replacement search blew its budget.")

	// Delete-dominated family: the spanning-forest acceptance experiment.
	// A dense GNM graph (one giant component) takes a stream of small
	// delete-only batches.  Nearly every deleted edge is non-forest, so the
	// forest path retires it in O(1), while the cold side re-solves the
	// whole giant component per batch.
	{
		dn, dm, dbatches, dsize := 1<<12, 8<<12, 24, 16
		if c.Scale == Full {
			dn, dm, dbatches, dsize = 1<<16, 8<<16, 32, 32
		}
		base := gen.GNM(dn, dm, c.seed()+7)
		rng := rand.New(rand.NewSource(int64(c.seed()) + 99))
		sim := baseline.NewIncOracle(base)
		steps := make([]incStep, dbatches)
		for i := range steps {
			steps[i] = incStep{remove: true, batch: pickLive(rng, sim, dsize)}
			if err := sim.RemoveEdges(steps[i].batch); err != nil {
				panic(err)
			}
		}
		sp := row("delete-dominated", base, steps, dsize)
		verdict := "FAIL"
		if sp >= 10 {
			verdict = "PASS"
		}
		t.Note("delete-dominated row: small delete-only batches on a dense GNM (m=8n) giant "+
			"component; the baseline (cold column) is the cold re-solve of the mutated "+
			"graph, as in the other rows.  acceptance bar ≥10x over the cold re-solve: "+
			"%s (%.3gx).", verdict, sp)
	}
	return t
}

// incStep is one batch of an INC mutation stream.
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
// through an oracle with the same reference removal semantics).  Panics
// if the two sides end on different component counts.
func incReplay(opts *parcc.Options, base *graph.Graph, steps []incStep) (incWall, coldWall time.Duration) {
	s, err := parcc.NewSolver(opts)
	if err != nil {
		panic(err)
	}
	if err := s.Attach(base.Clone()); err != nil {
		panic(err)
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
			panic(err)
		}
		if err := s.ComponentsInto(res); err != nil {
			panic(err)
		}
	}
	incWall = time.Since(t0)
	incComps := res.NumComponents
	s.Close()

	cold, err := parcc.NewSolver(opts)
	if err != nil {
		panic(err)
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
			panic(err)
		}
		if err := cold.SolveInto(cg.Graph(), res); err != nil {
			panic(err)
		}
	}
	coldWall = time.Since(t0)
	if res.NumComponents != incComps {
		panic("INC: incremental and cold component counts diverged")
	}
	return incWall, coldWall
}
