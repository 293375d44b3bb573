// Package core implements §7 of the paper — the overall CONNECTIVITY
// algorithm: Stage-1 preprocessing, the pre-sampled subgraphs H₁/H₂, the
// phase loop with double-exponentially growing spectral-gap guesses
// (INTERWEAVE), the work-reduced skeleton construction (SPARSEBUILD), and
// the REMAIN cleanup justified by the KKT sampling lemma.  It is the
// algorithm of Theorem 1: O(log(1/λ) + log log n) time and O(m+n) work
// w.h.p., with no prior knowledge of λ.
package core

import (
	"math"

	"parcc/internal/ltz"
	"parcc/internal/pram"
	"parcc/internal/prim"
	"parcc/internal/stage1"
	"parcc/internal/stage3"
)

// Params collects every tunable of CONNECTIVITY.  Each field documents the
// paper's value; constructors provide the practical profile (Default) and
// the clamped paper formulas (Paper).  Correctness does not depend on the
// values: the final REMAIN/backstop pass completes any unfinished component
// (§7.1 footnote 21), and tests verify every output against BFS.
type Params struct {
	// Stage1 configures REDUCE (§4).
	Stage1 stage1.Params
	// B0 is the initial gap guess b (paper: (log n)^100 in §7.1 Step 1 of
	// INTERWEAVE with i=0).
	B0 int
	// BGrowth is the per-phase exponent: b ← b^BGrowth
	// (paper: 1.1 in §7, 1.5 in the §3.4 overview).
	BGrowth float64
	// MaxPhases bounds the phase loop (paper: 10·log log n).
	MaxPhases int
	// SampleP64 is the sampling probability for H₁ and H₂
	// (paper: 1/(log n)^7).
	SampleP64 uint64
	// FilterRoundsBase scales the Step-6 matching round count
	// (paper: 10^6·1.1^i·log log n in phase i).
	FilterRoundsBase int
	// FilterGrowth is the per-phase growth of the Step-6 round count
	// (paper: 1.1).
	FilterGrowth float64
	// FilterDeleteP64 is the Step-6 edge deletion probability (paper 10^-4).
	FilterDeleteP64 uint64
	// H1Rounds scales INTERWEAVE Step 3: H1Rounds·log b EXPAND-MAXLINK
	// rounds (paper: 20·log b) followed by Theorem-2 rounds
	// (paper: 10^4·log log n).
	H1Rounds int
	// SolveRoundsC scales the round limit of the Theorem-2 calls inside a
	// phase: limit = SolveRoundsC·log2(b) (§3.4: each stage runs for
	// O(log b) time within a phase).
	SolveRoundsC int
	// DensifyRoundsC scales DENSIFY's EXPAND-MAXLINK budget per phase:
	// DensifyRoundsC·log2(b) rounds (paper: 20·log b).  0 keeps the
	// stage2 default.
	DensifyRoundsC int
	// LTZ configures all Theorem-2 invocations.
	LTZ ltz.Params
	// Stage3 configures SAMPLESOLVE when running the known-λ pipeline.
	Stage3 stage3.Params
	// Seed drives every random choice.
	Seed uint64
	// SkipStage1 bypasses REDUCE, running the phase loop on the raw graph.
	// Ablation only (E12): at feasible n Stage 1's n/poly(log n)
	// contraction leaves instances phase 0 finishes outright; skipping it
	// exposes the double-exponential schedule dynamically.
	SkipStage1 bool
}

// Default returns the practical profile for an n-vertex, m-edge graph
// (DESIGN.md §4): polylog exponents reduced to small multiples of log n so
// that the structure — three stages, doubling guesses, interweaving — is
// exercised at feasible sizes.
func Default(n int) Params {
	lg := int(prim.Log2Ceil(n + 2))
	if lg < 4 {
		lg = 4
	}
	return Params{
		Stage1:           stage1.DefaultParams(n),
		B0:               max(8, lg/2),
		BGrowth:          1.5,
		MaxPhases:        int(4 * prim.LogLog(n+4)),
		SampleP64:        pram.P64(1 / float64(lg)),
		FilterRoundsBase: 2,
		FilterGrowth:     1.5,
		FilterDeleteP64:  pram.P64(1e-4),
		H1Rounds:         4,
		SolveRoundsC:     2,
		LTZ:              ltz.DefaultParams(n),
		Stage3:           stage3.DefaultParams(n),
		Seed:             0xc0ffee,
	}
}

// Paper returns the paper's formulas clamped to feasible magnitudes.  The
// clamping is unavoidable — (log n)^100 exceeds memory for every real n —
// and is reported via the Clamped field of the returned struct's doc; the
// structure (round counts proportional to log log n, deletion probability
// 10^-4, growth 1.1) is kept exact.
func Paper(n int) Params {
	p := Default(n)
	lg := float64(prim.Log2Ceil(n + 2))
	b0 := lg * lg // stands in for (log n)^100, clamped
	if b0 > 4096 {
		b0 = 4096
	}
	p.B0 = max(8, int(b0))
	p.BGrowth = 1.1
	p.FilterGrowth = 1.1
	p.MaxPhases = int(10 * prim.LogLog(n+4))
	p.LTZ = ltz.PaperParams(n)
	return p
}

// bSchedule returns the phase-i gap guess: B0^(BGrowth^i), capped.
func (p Params) bSchedule(i int) int {
	b := float64(p.B0)
	for j := 0; j < i; j++ {
		b = math.Pow(b, p.BGrowth)
		if b > 1<<20 {
			return 1 << 20
		}
	}
	if b < 4 {
		b = 4
	}
	return int(b)
}
