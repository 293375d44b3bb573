package bench

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"parcc/internal/core"
	"parcc/internal/graph"
)

func TestAllExperimentsRunSmall(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab := e.Run(Config{Scale: Small, Seed: 3})
			if tab.ID != e.ID {
				t.Errorf("table ID %q, want %q", tab.ID, e.ID)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			for i, r := range tab.Rows {
				if len(r) != len(tab.Columns) {
					t.Fatalf("row %d has %d cells, want %d", i, len(r), len(tab.Columns))
				}
			}
			md := tab.Markdown()
			if !strings.Contains(md, tab.Title) {
				t.Error("markdown missing title")
			}
			csv := tab.CSV()
			if len(strings.Split(strings.TrimSpace(csv), "\n")) != len(tab.Rows)+1 {
				t.Error("csv row count mismatch")
			}
			if claim := smallClaims[e.ID]; claim != nil {
				claim(t, tab)
			}
			if e.ID == "SP" {
				return // wall-clock speedups: nothing deterministic to pin
			}
			if got, want := tableHash(tab), tableGolden[e.ID]; got != want {
				t.Errorf("table hash %#x, want %#x:\n%s", got, want, tab.CSV())
			}
		})
	}
}

// smallClaims asserts each experiment's paper claim on the Small-scale,
// seed-3 table TestAllExperimentsRunSmall builds (and pins by hash).
var smallClaims = map[string]func(*testing.T, *Table){
	"E1":  assertE1RoundsByGapClass,
	"E2":  assertE2WorkShape,
	"E4":  assertE4ReduceShrink,
	"E5":  assertE5SkeletonTracksOneOverB,
	"E8":  assertE8GapWithinEnvelope,
	"E9":  assertE9CrossEdgesLinear,
	"E10": assertE10LabelPropRounds,
	"E12": assertE12PhaseSchedule,
	"E15": assertE15StageOneFlat,
}

// claimTests names the test that asserts each remaining experiment's claim
// on a table (or a sweep) of its own.
var claimTests = map[string]func(*testing.T){
	"E3":  TestE3ShrinkFactorsBelowBound,
	"E6":  TestE6MinDegreeHolds,
	"E7":  TestE7DiameterGrows,
	"E11": TestRoundsToDistinguishGrows,
	"E13": TestE13NoViolations,
	"E14": TestE14PathsBreakDenseSurvive,
	"E16": TestE16DeletionReducesWork,
	"E17": TestE17BiggerBudgetsMoreWork,
}

// assertE1RoundsByGapClass: Theorem 1's O(log(1/λ) + log log n) time, at
// fixed n, orders the averaged rounds by each family's λ class: expander
// and hypercube (constant λ) sit at the Stage-1 floor, grid and torus
// (λ = Θ(1/n)) add ≈15–20%, cycle and path (λ = Θ(1/n²)) add ≈20–26%.
// Every family of a class takes fewer rounds than every family of the
// next.  The classes are the closed forms, not the table's λ column,
// whose power-iteration estimate reads cycle and path alike.
func assertE1RoundsByGapClass(t *testing.T, tab *Table) {
	rounds := map[string]float64{}
	for i, r := range column(t, tab, "rounds") {
		rounds[tab.Rows[i][0]] = r
	}
	classes := [][]string{{"expander-d8", "hypercube"}, {"grid", "torus"}, {"cycle", "path"}}
	for i := 1; i < len(classes); i++ {
		for _, lo := range classes[i-1] {
			for _, hi := range classes[i] {
				if !(rounds[lo] < rounds[hi]) {
					t.Errorf("%s %v rounds, %s %v: want the larger-gap family faster", lo, rounds[lo], hi, rounds[hi])
				}
			}
		}
	}
}

// assertE2WorkShape: Theorem 1's O(m+n) work keeps FLS's work/(m+n) in a
// band (max/min ≤ 1.3) over the n sweep, while Shiloach–Vishkin's
// Θ((m+n)·log n) work makes its work/(m+n) grow with n.  SV's round count
// is a step function of log n, so two adjacent sizes may tie (19.5, 26, 26
// at seed 3): the bar is never falling, and higher at the largest n than
// at the smallest.
func assertE2WorkShape(t *testing.T, tab *Table) {
	fls := column(t, tab, "fls work/(m+n)")
	sv := column(t, tab, "sv work/(m+n)")
	if lo, hi := slices.Min(fls), slices.Max(fls); hi > 1.3*lo {
		t.Errorf("fls work/(m+n) spans %.4g..%.4g over the n sweep, want max/min <= 1.3", lo, hi)
	}
	if !slices.IsSorted(sv) || sv[len(sv)-1] <= sv[0] {
		t.Errorf("sv work/(m+n) %v does not grow with n", sv)
	}
}

// assertE4ReduceShrink: Lemma 4.25 — REDUCE shrinks the current graph to
// n/poly(log n) vertices in O(m)+O(n) work.  Under 0.5% of the vertices
// stay live across a 16× range of n, and work/(m+n) stays in a 90–100
// band.
func assertE4ReduceShrink(t *testing.T, tab *Table) {
	if live := slices.Max(column(t, tab, "live/n")); live > 0.005 {
		t.Errorf("REDUCE leaves %.4g of the vertices live, want <= 0.005", live)
	}
	work := column(t, tab, "work/(m+n)")
	if lo, hi := slices.Min(work), slices.Max(work); lo < 90 || hi > 100 {
		t.Errorf("REDUCE work/(m+n) spans %.4g..%.4g, want within 90..100", lo, hi)
	}
}

// assertE5SkeletonTracksOneOverB: Lemma 5.5 in the regime BUILD targets
// (degrees ≫ b).  High–high edges are kept w.p. 1/b, so on the dense
// families the skeleton ratio |E(H)|/(m+n) tracks 1/b within 10% as b goes
// 4 → 16.  The power-law graph keeps at least 80% of its edges: its mass
// sits on low vertices, which BUILD must keep exactly.
func assertE5SkeletonTracksOneOverB(t *testing.T, tab *Table) {
	ratio := column(t, tab, "|E(H)|/(m+n)")
	b := column(t, tab, "b")
	for i, r := range tab.Rows {
		switch r[0] {
		case "complete", "dense-gnm-64":
			if rb := ratio[i] * b[i]; math.Abs(rb-1) > 0.1 {
				t.Errorf("%s b=%v: ratio·b = %.4g, want within 10%% of 1", r[0], b[i], rb)
			}
		default:
			if ratio[i] < 0.8 {
				t.Errorf("%s b=%v: ratio %.4g, want >= 0.8", r[0], b[i], ratio[i])
			}
		}
	}
}

// assertE8GapWithinEnvelope: Corollary C.3 — |λ−λ′| under edge sampling
// stays within √(ln n/(p·d)) (the envelope with C = 1) on every row.  The
// difference does not decay monotonically in p·d: at p = 0.125 it rises
// from d = 16 to d = 32.
func assertE8GapWithinEnvelope(t *testing.T, tab *Table) {
	diff := column(t, tab, "|diff|")
	bound := column(t, tab, "sqrt(ln n/(p·d))")
	for i, r := range tab.Rows {
		if diff[i] > bound[i] {
			t.Errorf("d=%s p=%s: |λ−λ′| = %.4g exceeds the envelope %.4g", r[0], r[1], diff[i], bound[i])
		}
	}
}

// assertE9CrossEdgesLinear: the [KKT95] sampling lemma — edges of G that
// cross the components of a p-sample number O(n/p), which makes REMAIN
// affordable.  Their ratio to n/p stays between 0.25 and 0.28 over the n
// sweep.
func assertE9CrossEdgesLinear(t *testing.T, tab *Table) {
	ratio := column(t, tab, "ratio")
	if lo, hi := slices.Min(ratio), slices.Max(ratio); lo < 0.25 || hi > 0.28 {
		t.Errorf("cross edges/(n/p) spans %.4g..%.4g, want within 0.25..0.28", lo, hi)
	}
}

// assertE10LabelPropRounds: label propagation pays Θ(diameter) rounds, so
// on the cycle it takes more than 4× the rounds of FLS.
func assertE10LabelPropRounds(t *testing.T, tab *Table) {
	rounds := map[string]float64{}
	for _, r := range tab.Rows {
		if r[0] == "cycle" {
			rounds[r[1]] = parseCell(t, r[2])
		}
	}
	if lp, fls := rounds["label-prop"], rounds["fls"]; !(lp > 4*fls) {
		t.Errorf("cycle: label-prop %v rounds, fls %v: want label-prop > 4x fls", lp, fls)
	}
}

// assertE12PhaseSchedule: §3.4/§7 — CONNECTIVITY's phase loop stays
// within MaxPhases, and the terminating phase's gap guess is the schedule
// B0^(BGrowth^i) of its index i.  Phase 0 terminates on every instance but
// one: the strict-p1 cycle at n = 1024 escalates to phase 1 (final b 8),
// where the terminating phase takes a third of the rounds.  Every
// instance that stops in phase 0 spends all its phase rounds there.
func assertE12PhaseSchedule(t *testing.T, tab *Table) {
	phases := column(t, tab, "phases")
	finalB := column(t, tab, "final b")
	last := column(t, tab, "last/total")
	var escalated []string
	for i, r := range tab.Rows {
		// Ring-of-cliques rows are 32 cliques of 16 vertices at Small
		// scale; strict-p1-cycle rows key on n.
		n := 32 * 16
		if r[0] == "strict-p1-cycle" {
			n = int(parseCell(t, r[1]))
		}
		p := core.Default(n)
		if r[0] != "default" {
			p.B0 = 4 // the strict profiles' B0
		}
		k := int(phases[i])
		if k < 1 || k > p.MaxPhases {
			t.Errorf("%s %s: %d phases, want 1..%d", r[0], r[1], k, p.MaxPhases)
		}
		if want := math.Floor(math.Pow(float64(p.B0), math.Pow(p.BGrowth, float64(k-1)))); finalB[i] != want {
			t.Errorf("%s %s: final b %v after %d phases, want %v", r[0], r[1], finalB[i], k, want)
		}
		if k > 1 {
			escalated = append(escalated, r[0]+" "+r[1])
		} else if last[i] != 1 {
			t.Errorf("%s %s: last/total %v in a one-phase run", r[0], r[1], last[i])
		}
	}
	if want := []string{"strict-p1-cycle 1024"}; !slices.Equal(escalated, want) {
		t.Errorf("escalated past phase 0: %v, want %v", escalated, want)
	}
}

// assertE15StageOneFlat: §7 — Stage 1's cost is λ-independent while the
// O(log(1/λ)) term lives in the phases and REMAIN.  stage1-reduce charges
// the same steps on every family, and the phase + finish share of the
// steps is lowest on the expander.
func assertE15StageOneFlat(t *testing.T, tab *Table) {
	steps := column(t, tab, "steps")
	share := column(t, tab, "steps share")
	stage1 := map[string]float64{}
	late := map[string]float64{}
	for i, r := range tab.Rows {
		switch {
		case r[1] == "stage1-reduce":
			stage1[r[0]] = steps[i]
		case r[1] == "finish" || strings.HasPrefix(r[1], "phase-"):
			late[r[0]] += share[i]
		}
	}
	for fam, s := range stage1 {
		if s != stage1["expander"] {
			t.Errorf("stage1-reduce steps: %s %v, expander %v: want equal", fam, s, stage1["expander"])
		}
	}
	for fam, s := range late {
		if fam != "expander" && !(late["expander"] < s) {
			t.Errorf("phase+finish steps share: expander %.4g, %s %.4g: want the expander lowest", late["expander"], fam, s)
		}
	}
}

// column parses the named numeric column of tab.
func column(t *testing.T, tab *Table, name string) []float64 {
	t.Helper()
	i := slices.Index(tab.Columns, name)
	if i < 0 {
		t.Fatalf("%s: no column %q", tab.ID, name)
	}
	out := make([]float64, len(tab.Rows))
	for j, r := range tab.Rows {
		out[j] = parseCell(t, r[i])
	}
	return out
}

func parseCell(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric", cell)
	}
	return v
}

func TestFind(t *testing.T) {
	if _, ok := Find("e1"); !ok {
		t.Error("case-insensitive find failed")
	}
	if _, ok := Find("E99"); ok {
		t.Error("bogus ID should not resolve")
	}
}

func TestE3ShrinkFactorsBelowBound(t *testing.T) {
	tab := E3MatchingShrink(Config{Scale: Small, Seed: 7})
	for _, r := range tab.Rows {
		f, err := strconv.ParseFloat(r[4], 64)
		if err != nil {
			t.Fatalf("factor cell %q not numeric", r[4])
		}
		if f > 0.999 {
			t.Errorf("%s: shrink factor %f exceeds Lemma 4.4 bound", r[0], f)
		}
	}
}

func TestE6MinDegreeHolds(t *testing.T) {
	tab := E6MinDegree(Config{Scale: Small, Seed: 5})
	for _, r := range tab.Rows {
		// The guarantee is asserted for the unlimited profile; the
		// phase-limited rows are reported observationally (the paper's
		// proof covers them only at full polylog parameters).
		if r[1] == "full" && r[6] != "true" {
			t.Errorf("%s b=%s: min degree below b (row %v)", r[0], r[2], r)
		}
	}
}

func TestE13NoViolations(t *testing.T) {
	tab := E13ContractionGap(Config{Scale: Small, Seed: 11})
	for _, r := range tab.Rows {
		if r[3] != "0" {
			t.Errorf("%s: %s contraction-gap violations", r[0], r[3])
		}
	}
}

func TestE7DiameterGrows(t *testing.T) {
	tab := E7DiameterBlowup(Config{Scale: Small, Seed: 9})
	for _, r := range tab.Rows {
		if r[5] != "true" {
			t.Errorf("sampled Appendix-B graph disconnected (row %v)", r)
			continue
		}
		before, _ := strconv.Atoi(r[3])
		after, _ := strconv.Atoi(r[4])
		if after <= 2*before {
			t.Errorf("diameter did not blow up: %d -> %d", before, after)
		}
	}
}

func TestE14PathsBreakDenseSurvive(t *testing.T) {
	tab := E14NaiveSampling(Config{Scale: Small, Seed: 13})
	var pathBroken, denseBroken float64
	for _, r := range tab.Rows {
		if r[1] == "0.25" {
			f, _ := strconv.ParseFloat(r[4], 64)
			switch r[0] {
			case "paths":
				pathBroken = f
			case "dense-d8":
				denseBroken = f
			}
		}
	}
	if pathBroken < 1 {
		t.Errorf("paths should shatter under p=0.25 sampling (broken=%f)", pathBroken)
	}
	if denseBroken > pathBroken/4 {
		t.Errorf("dense components should survive sampling far better: %f vs %f",
			denseBroken, pathBroken)
	}
}

func TestLog2Helper(t *testing.T) {
	if log2(8) != 3 {
		t.Errorf("log2(8) = %f", log2(8))
	}
	if log2(0.5) > -0.9 || log2(0.5) < -1.1 {
		t.Errorf("log2(0.5) = %f", log2(0.5))
	}
	if log2(0) != 0 {
		t.Error("log2(0) should clamp")
	}
}

func TestDistrib(t *testing.T) {
	min, med := distrib([]int{5, 1, 9, 3, 7})
	if min != 1 || med != 5 {
		t.Errorf("distrib = %d,%d", min, med)
	}
	if a, b := distrib(nil); a != 0 || b != 0 {
		t.Error("empty distrib should be zeros")
	}
}

func TestContractRandomEdge(t *testing.T) {
	g := connectedGNM(10, 16, 3)
	h := contractRandomEdge(g, 5)
	if h == nil || h.N != g.N-1 {
		t.Fatal("contraction should drop one vertex")
	}
	if h.M() != g.M() {
		t.Fatal("contraction keeps all edges (as loops if need be)")
	}
	loops := graph.New(3)
	loops.AddEdge(0, 0)
	if contractRandomEdge(loops, 1) != nil {
		t.Fatal("loop-only graph has nothing to contract")
	}
}

// TestVerdictsCoverAllExperiments: every experiment but SP (a wall-clock
// measurement, not a paper claim) has its claim asserted, by a smallClaims
// entry or a claimTests test.
func TestVerdictsCoverAllExperiments(t *testing.T) {
	for _, e := range All() {
		_, small := smallClaims[e.ID]
		_, named := claimTests[e.ID]
		if e.ID != "SP" && !small && !named {
			t.Errorf("no assertion for %s", e.ID)
		}
	}
	for id := range claimTests {
		if _, ok := Find(id); !ok {
			t.Errorf("claim test for unknown experiment %s", id)
		}
	}
	for id := range smallClaims {
		if _, ok := Find(id); !ok {
			t.Errorf("small claim for unknown experiment %s", id)
		}
	}
}

// TestTableJSON: the -format json form is valid and carries the table
// contents.
func TestTableJSON(t *testing.T) {
	tab := &Table{ID: "X", Title: "t", Columns: []string{"a", "b"}}
	tab.Add("1", 2.5)
	tab.Note("n")
	j := tab.JSON()
	for _, want := range []string{`"id": "X"`, `"columns"`, `"2.5"`, `"notes"`} {
		if !strings.Contains(j, want) {
			t.Errorf("JSON missing %s in:\n%s", want, j)
		}
	}
}
