// Package stage3 implements §6 of the paper: connectivity on the sampled
// graph.  After Stage 2 every vertex of the current graph has degree ≥ b;
// SAMPLESOLVE down-samples the edges (all of them, loops included — §5.3)
// and runs the Theorem-2 algorithm on the sampled subgraph, which by the
// matrix-concentration bound of Appendix C stays connected component-wise
// and has diameter poly(log n) when λ ≥ b^{-0.1}.
package stage3

import (
	"parcc/internal/graph"
	"parcc/internal/labeled"
	"parcc/internal/ltz"
	"parcc/internal/pram"
	"parcc/internal/prim"
	"parcc/internal/solve"
)

// Params configures SAMPLESOLVE.
type Params struct {
	// SampleP64 is the edge sampling probability (paper: 1/log n in §3,
	// 1/(log n)^7 in §6–7).
	SampleP64 uint64
	// SmallN is the |V| ≤ n^0.1 cutoff below which the graph is simplified
	// and solved directly (§6 Step 1).
	SmallN int
	// LTZ configures the Theorem-2 calls.
	LTZ ltz.Params
	// Seed drives the sampling.
	Seed uint64
}

// DefaultParams returns the practical profile.
func DefaultParams(n int) Params {
	lg := float64(prim.Log2Ceil(n + 2))
	if lg < 2 {
		lg = 2
	}
	return Params{
		SampleP64: pram.P64(1 / lg),
		SmallN:    smallCut(n),
		LTZ:       ltz.DefaultParams(n),
		Seed:      0x5a3b1e,
	}
}

func smallCut(n int) int {
	// n^0.1, cheaply: 2^(log2(n)/10), at least 8.
	c := 1 << (prim.Log2Ceil(n+1) / 10)
	if c < 8 {
		c = 8
	}
	return c
}

// SampleSolve runs SAMPLESOLVE(G) (§6) on the current graph (V: its
// vertices; E: its edges, loops included), updating the shared forest, and
// finishes with the Step-4 triple pointer jump so that all original-graph
// trees become flat.  Returns the number of sampled edges (for the work
// accounting experiments).
func SampleSolve(cx *solve.Ctx, f *labeled.Forest, V []int32, E []graph.Edge, p Params) int {
	m := cx.M
	sampled := 0
	if len(V) <= p.SmallN {
		// Step 1: tiny instance — simplify exactly and solve directly.
		simple := prim.DedupEdges(m, E)
		if len(simple) > 0 {
			ltz.SolveOn(cx, f, V, simple, p.LTZ)
		}
		sampled = len(simple)
	} else {
		// Step 2: sample each edge w.p. 1/(log n)^c.
		G2 := cx.GrabEdgesCap(16)
		m.Contract(1, int64(len(E)), func() {
			for i, e := range E {
				if pram.SplitMix64(p.Seed^uint64(i)*0x9e3779b97f4a7c15) < p.SampleP64 {
					G2 = append(G2, e)
				}
			}
		})
		sampled = len(G2)
		// Step 3: Theorem 2 on the sampled subgraph.
		if len(G2) > 0 {
			ltz.SolveOn(cx, f, V, G2, p.LTZ)
		}
		cx.ReleaseEdges(G2)
	}
	// Step 4: v.p = v.p.p.p for every original vertex.
	pp := f.P
	m.For(f.Len(), func(v int) {
		a := pram.Load32(pp, v)
		b := pram.Load32(pp, int(a))
		pram.Store32(pp, v, pram.Load32(pp, int(b)))
	})
	return sampled
}
