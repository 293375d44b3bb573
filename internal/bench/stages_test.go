package bench

import (
	"fmt"
	"testing"

	"parcc/internal/baseline"
	"parcc/internal/graph"
	"parcc/internal/graph/gen"
	"parcc/internal/labeled"
	"parcc/internal/ltz"
	"parcc/internal/pram"
	"parcc/internal/pram/pramtest"
	"parcc/internal/solve"
	"parcc/internal/stage1"
	"parcc/internal/stage2"
)

// The stage-boundary invariants below restate the paper's structural
// lemmas with the labeled-digraph predicates:
//
//   - safety (throughout): the forest is acyclic and every parent stays in
//     its ground-truth component (labeled.CheckAcyclic, CheckSameComponent);
//   - Lemma 4.5: each MATCHING call grows tree heights by at most one;
//   - Lemmas 4.9/4.21/5.22: after REDUCE and INCREASE, trees are flat and
//     both ends of every surviving edge are roots (MaxHeight,
//     labeled.CheckEdgesOnRoots);
//   - Lemma 6.1 (direction): contraction never raises the number of roots
//     a ground-truth component maps to (rootsPerComponent, monotone);
//   - completeness: once no edges remain, the forest's partition is the
//     ground truth.

// safe checks acyclicity and contraction safety against truth.
func safe(f *labeled.Forest, truth []int32) error {
	if err := f.CheckAcyclic(); err != nil {
		return fmt.Errorf("acyclicity: %w", err)
	}
	if err := labeled.CheckSameComponent(f, truth); err != nil {
		return fmt.Errorf("contraction safety: %w", err)
	}
	return nil
}

// flatAndOnRoots checks that every tree has height at most maxHeight and
// both ends of every edge of E are roots.
func flatAndOnRoots(f *labeled.Forest, E []graph.Edge, maxHeight int) error {
	if h := f.MaxHeight(); h > maxHeight {
		return fmt.Errorf("tree height %d > %d", h, maxHeight)
	}
	return labeled.CheckEdgesOnRoots(f, E)
}

// rootsPerComponent returns, for each ground-truth component label, the
// number of distinct forest roots its vertices currently map to.  A value
// of 1 for every component means the computation is finished.
func rootsPerComponent(f *labeled.Forest, truth []int32) map[int32]int {
	labels := f.Labels()
	distinct := map[int32]map[int32]struct{}{}
	for v, comp := range truth {
		set, ok := distinct[comp]
		if !ok {
			set = map[int32]struct{}{}
			distinct[comp] = set
		}
		set[labels[v]] = struct{}{}
	}
	out := make(map[int32]int, len(distinct))
	for comp, set := range distinct {
		out[comp] = len(set)
	}
	return out
}

// monotone errors if any component's root count rose from before to after:
// contraction progress never goes backwards across a stage boundary.
func monotone(before, after map[int32]int) error {
	for comp, a := range after {
		if b, ok := before[comp]; ok && a > b {
			return fmt.Errorf("component %d went from %d roots to %d", comp, b, a)
		}
	}
	return nil
}

func TestRootsPerComponentAndMonotone(t *testing.T) {
	g := gen.Union(gen.Path(4), gen.Path(2))
	truth := baseline.BFSLabels(g)
	f := labeled.New(g.N)
	before := rootsPerComponent(f, truth)
	if before[0] != 4 || before[4] != 2 {
		t.Fatalf("fresh counts: %v", before)
	}
	f.P[1] = 0
	f.P[2] = 0
	after := rootsPerComponent(f, truth)
	if after[0] != 2 {
		t.Fatalf("after contraction: %v", after)
	}
	if err := monotone(before, after); err != nil {
		t.Fatal(err)
	}
	if monotone(after, before) == nil {
		t.Fatal("increase not detected")
	}
}

// TestInstrumentedPipeline runs REDUCE → INCREASE → LTZ on every solve
// family at n=2^10 and checks the invariants at every stage boundary.
func TestInstrumentedPipeline(t *testing.T) {
	for _, fam := range Families(1<<10, 3) {
		t.Run(fam.Name, func(t *testing.T) {
			g := fam.Make()
			truth := baseline.BFSLabels(g)
			m := pramtest.New(t, 0, pram.Seed(7))
			f := labeled.New(g.N)

			r := stage1.NewRunner(solve.New(m), f, stage1.DefaultParams(g.N))
			red := r.Reduce(g)
			if err := safe(f, truth); err != nil {
				t.Fatalf("after REDUCE: %v", err)
			}
			if err := flatAndOnRoots(f, red.Edges, 1); err != nil {
				t.Fatalf("after REDUCE (Lemma 4.21): %v", err)
			}
			roots := rootsPerComponent(f, truth)

			E := append([]graph.Edge(nil), red.Edges...)
			eclose := stage2.Increase(solve.New(m), f, red.Roots, E, stage2.DefaultParams(g.N, 8))
			if err := safe(f, truth); err != nil {
				t.Fatalf("after INCREASE: %v", err)
			}
			// INCREASE shortcuts only the current graph's vertices (the
			// Stage-1 roots), so the vertices REDUCE hung under them ride
			// one level deeper: the current graph is flat, the forest ≤ 2.
			if err := flatAndOnRoots(f, E, 2); err != nil {
				t.Fatalf("after INCREASE (Lemma 5.22): %v", err)
			}
			for _, v := range red.Roots {
				if p := f.P[v]; f.P[p] != p {
					t.Fatalf("after INCREASE (Lemma 5.22): current-graph vertex %d at depth > 1", v)
				}
			}
			for _, e := range eclose {
				if truth[e.U] != truth[e.V] {
					t.Fatalf("close edge (%d,%d) crosses components", e.U, e.V)
				}
			}
			after := rootsPerComponent(f, truth)
			if err := monotone(roots, after); err != nil {
				t.Fatalf("INCREASE regressed contraction: %v", err)
			}
			roots = after

			// Finish with Theorem 2 on the remaining edges, then flatten.
			E = labeled.Alter(m, f, E)
			if len(E) > 0 {
				V := make([]int32, 0, len(E)*2)
				seen := map[int32]bool{}
				for _, e := range E {
					if !seen[e.U] {
						seen[e.U] = true
						V = append(V, e.U)
					}
					if !seen[e.V] {
						seen[e.V] = true
						V = append(V, e.V)
					}
				}
				ltz.SolveOn(solve.New(m), f, V, E, ltz.DefaultParams(g.N))
			}
			labeled.FlattenAll(m, f)
			if err := safe(f, truth); err != nil {
				t.Fatalf("after finish: %v", err)
			}
			if err := flatAndOnRoots(f, nil, 1); err != nil {
				t.Fatalf("after finish: %v", err)
			}
			if err := monotone(roots, rootsPerComponent(f, truth)); err != nil {
				t.Fatalf("finish regressed contraction: %v", err)
			}
			if !graph.SamePartition(truth, f.Labels()) {
				t.Fatal("pipeline incomplete: forest partition differs from ground truth")
			}
		})
	}
}

// TestInstrumentedMatchingRounds asserts the height discipline of REDUCE
// Step 5 ("MATCHING(E′); for each v ∈ V: v.p = v.p.p; ALTER(E′)"): each
// MATCHING call grows heights by at most one level (Lemma 4.5 applies to
// the roots; vertices contracted in earlier rounds ride along one level
// deeper), and the interleaved global shortcut keeps the forest within
// height 2 at every boundary.
func TestInstrumentedMatchingRounds(t *testing.T) {
	g := gen.GNM(500, 800, 21)
	truth := baseline.BFSLabels(g)
	m := pramtest.New(t, 0, pram.Seed(3))
	f := labeled.New(g.N)
	r := stage1.NewRunner(solve.New(m), f, stage1.DefaultParams(g.N))
	E := append([]graph.Edge(nil), g.Edges...)
	prevH := 0
	for round := 0; round < 8; round++ {
		r.Matching(E)
		if err := safe(f, truth); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if h := f.MaxHeight(); h > prevH+1 {
			t.Fatalf("round %d: height jumped %d -> %d (> +1 per MATCHING)", round, prevH, h)
		}
		labeled.ShortcutAll(m, f)
		E = labeled.Alter(m, f, E)
		if h := f.MaxHeight(); h > 2 {
			t.Fatalf("round %d: height %d after shortcut", round, h)
		}
		prevH = f.MaxHeight()
	}
}
