package bench

// Verdicts maps each experiment to its paper-vs-measured summary, written
// after the full-scale runs recorded in EXPERIMENTS.md.  cmd/ccbench -run
// can regenerate the raw tables; these texts interpret them against the
// claims (EXPERIMENTS.md is assembled from both).
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
		"wall-clock floor the synchronous algorithms are measured against. On a " +
		"single-CPU host T1/TP honestly reports ≈1.0x — goroutines timeshare one " +
		"core — and the table says so in its footnote.",
	"QPS": "Engineering measurement, not a paper claim. Session reuse (parcc.Solver) " +
		"amortizes the goroutine pool, PRAM machine, scratch arena, and cached CSR " +
		"plan across solves: the serving baselines drop to ~zero steady-state " +
		"allocations (union-find 13×, bfs 19× fewer allocs/op than one-shot in the " +
		"small-scale run, bfs ~4× higher throughput because the plan cache removes " +
		"the per-call CSR rebuild).  The charged PRAM algorithms keep one closure " +
		"allocation per charged loop by construction, so their session gain is " +
		"bounded — arena reuse trims allocs ~5–10% and the pool/machine reuse shows " +
		"up at smaller instances where per-call setup is a visible fraction.",
	"SOLVE": "Engineering measurement, not a paper claim.  The Afforest-style " +
		"sampling fast path (sample a cache-line-confined neighbor window per vertex, " +
		"flatten, vote a majority root, then finish over the CSR skipping settled " +
		"regions wholesale) beats the cas union-find baseline exactly where its theory " +
		"says it should: ≥2× on the dense block (2.1–2.5×) and relaxed-caveman " +
		"community (2.2–2.4×) families at n=2^16, 6.3× on complete, 1.8× on dense GNM " +
		"— and honestly loses on sparse low-degree families (paths, grids, trees) " +
		"where the ~n successful sampling hooks cost more than the edge pass they " +
		"would eliminate.  The auto dispatcher reads n, m, and (in the inconclusive " +
		"mid-density band) the cached plan's max degree, and lands within 1.1× of the " +
		"best fixed algorithm on every family (worst ≈1.05×); its decision is echoed " +
		"in Result.Algorithm.  Partitions are asserted equal across algorithms on " +
		"every family and run.",
	"INC": "Engineering measurement, not a paper claim — the paper is static " +
		"connectivity; the serving layer maintains the partition incrementally and " +
		"falls back to the paper's pipeline only when the spanning forest cannot " +
		"decide a deletion locally.  Insert-only streams run ~10²× faster than cold " +
		"re-solves because AddEdges does O(batch·α) CAS union-find work while a " +
		"re-solve re-pays O(m+n).  Since the forest subsystem, mixed (75/25) and " +
		"delete-heavy streams hold the same ~10²× instead of the pre-forest ≈2–6×: " +
		"a non-forest deletion is O(1) and a forest deletion pays only a bounded " +
		"replacement search, so random deletions on these graphs almost never reach " +
		"the scoped re-solve.  The delete-dominated row isolates that mechanism on " +
		"a dense giant component — against the cold re-solve of the mutated graph, " +
		"like the other rows — and clears the ≥10× acceptance bar by orders of " +
		"magnitude (~2×10³× at n=2¹², m=8n), because a re-solve re-pays the whole " +
		"giant component per batch while the forest path retires dense-graph " +
		"deletions in O(1).  Final component counts are asserted equal on every run.",
}
