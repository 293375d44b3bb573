package bench

// Verdicts maps each experiment to its paper-vs-measured summary, written
// after full-scale runs (`ccbench -run <ID> -scale full` regenerates the
// raw tables; the README lists the experiments and docs/ARCHITECTURE.md §1
// maps them to the paper).  These texts interpret the tables against the
// claims.
var Verdicts = map[string]string{
	"E1": "Reproduced in shape. At fixed n, averaged rounds order by log(1/λ): " +
		"expander and hypercube (λ ≥ 0.14) sit at the Stage-1 floor, torus and grid " +
		"(λ ≈ 10⁻³) add ≈5–20%, cycle and path (λ ≈ 10⁻⁴) add ≈20–30%. The additive " +
		"log log n floor (Stage 1) dominates the constant, as the theorem's sum form predicts.",
	"E2": "Reproduced in shape. CONNECTIVITY's work/(m+n) stays within a ±15% band " +
		"over a 64× range of n, while Shiloach–Vishkin's normalized work grows with its " +
		"round count (∝ log n) and LTZ sits in between. Absolute constants favor the " +
		"baselines at these sizes — expected: the paper's optimality is asymptotic, and " +
		"our polylog parameters are scaled down, not the per-pass constants.",
	"E3": "Reproduced, with margin. Lemma 4.4 guarantees a ≤0.999 factor per MATCHING " +
		"call; measured factors are 0.50–0.88 on constant-degree families and ~3×10⁻⁵ on " +
		"stars (Step 6 adopts every spoke at once).",
	"E4": "Reproduced. REDUCE leaves ≤0.3% of vertices live across a 64× range of n " +
		"with normalized work in a narrow band (≈90–115 ops per edge+vertex) — the " +
		"n/poly(log n) shrink at O(m)+O(n) work of Lemma 4.25.",
	"E5": "Reproduced in the regime BUILD targets (degrees ≫ b): the skeleton ratio " +
		"tracks ≈1/b on dense families (0.25 → 0.06 as b goes 4 → 16) because high–high " +
		"edges are sampled w.p. 1/b, while power-law graphs keep most edges — their mass " +
		"sits on low vertices, which BUILD must keep exactly (that is Lemma 5.4's point).",
	"E6": "Reproduced, with an instructive ablation. In the paper-budget profile " +
		"Stage 2 finishes every component outright at feasible sizes (the postcondition " +
		"holds vacuously — there are no survivors to violate it); the 'starved' profile " +
		"cuts DENSIFY to one round and survivors then miss the degree target (min 2–6 " +
		"vs b=8/16), showing the 20·log b budget of §5.2 is necessary, not slack.",
	"E7": "Reproduced. The Appendix-B construction has double-sweep diameter ≈30–35 " +
		"before sampling; after p=1/4 edge sampling it stays connected and the diameter " +
		"multiplies ≈50–90×, reaching Θ(n/poly t) — the separation that rules out naive " +
		"sparsification before Stage 2.",
	"E8": "Reproduced. |λ−λ′| under edge sampling stays well below the C·√(ln n/(p·d)) " +
		"envelope of Corollary C.3 and decays as p·d grows, the matrix-concentration shape " +
		"Stage 3 relies on.",
	"E9": "Reproduced. Edges of G crossing the sampled subgraph's components stay a " +
		"small fraction of n/p across a 32× range of n (ratios ≈0.1–0.3), confirming the " +
		"KKT bound that makes REMAIN affordable.",
	"E10": "Headline comparison. The paper's algorithm pays a larger constant than the " +
		"simple baselines at feasible sizes but is the only one whose rounds do not grow " +
		"with n on low-gap inputs beyond the log(1/λ) term and whose normalized work stays " +
		"flat; label propagation explodes on the cycle (Θ(d) rounds), SV grows with log n.",
	"E11": "Consistent with the conditional lower bound. Rounds to certify one-cycle vs " +
		"two-cycles (the 2-CYCLE instances) grow with log n (≈6 at n=2⁶ to ≈12 at 2¹⁴ in " +
		"the unit tests' wider sweep), matching Ω(log 1/λ) = Ω(log n) on cycles.",
	"E12": "Partially reproduced — structurally, not dynamically. Phase 0 terminates " +
		"on every feasible instance, even under strict per-phase budgets with sampling " +
		"disabled and Stage 1 skipped: the level-based contraction finishes long before " +
		"the guess schedule must escalate (its rounds grow too slowly in n for budgets " +
		"×log b to bind below astronomic sizes). The schedule itself (double-exponential " +
		"b growth, per-phase revert isolation, geometric time sum) is verified by unit " +
		"tests on bSchedule and the revert path; the last/total≈1 column confirms the " +
		"terminating phase dominates, which is the §3.4 sum argument's observable face.",
	"E13": "Reproduced exactly: zero violations of Lemma 6.1's direction over all " +
		"contraction trials (minimum observed λ′/λ ≥ 1).",
	"E14": "Reproduced. p=0.25 sampling shatters every path component (broken fraction " +
		"≥ 1 per original component) while dense d=8 components survive — the §3 " +
		"counterexample motivating densify-before-sample.",
	"E15": "Reproduced. Stage-1 cost is identical across families (λ-independent), " +
		"while the phase + cleanup share grows from ≈30% on expanders to ≈60% on paths — " +
		"the λ-dependence lives exactly where §7 puts it.",
	"E16": "Ablation. The paper's 10⁻⁴ is indistinguishable from p=0 at feasible " +
		"sizes (the deletion is an asymptotic work device); raising p to 0.1–0.3 cuts " +
		"Stage-1 work by a third without hurting the contraction — live roots even " +
		"drop — because MATCHING only ever needs a constant fraction of the edges.",
	"E17": "Ablation. Bigger β₁ buys fewer rounds at more work per edge on both " +
		"families; the level-up exponent trades rounds against work with an interior " +
		"optimum near 0.25 at practical sizes — consistent with the paper's choice of " +
		"slowly-growing budgets plus rare level-ups at asymptotic scale.",
	"SP": "Engineering measurement, not a paper claim. Executing the charged PRAM " +
		"steps on the internal/par pool keeps the model accounting (normalized work " +
		"flat; round counts may shift a few percent across procs because ARBITRARY " +
		"concurrent-write winners steer the randomized control flow) while the wall " +
		"clock scales with procs; the barrier-free cas-unite kernel gives the " +
		"wall-clock floor the synchronous algorithms are measured against, and " +
		"the one-worker union-find row the wall cas-unite's pool must beat. On a " +
		"single-CPU host T1/TP honestly reports ≈1.0x — goroutines timeshare one " +
		"core — and the table says so in its footnote.",
}
