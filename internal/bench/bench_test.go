package bench

import (
	"slices"
	"strconv"
	"strings"
	"testing"

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

// smallClaims asserts the shape claims of the experiments whose verdicts
// compare FLS with the classical baselines, on the Small-scale tables.
var smallClaims = map[string]func(*testing.T, *Table){
	"E2":  assertE2WorkShape,
	"E10": assertE10LabelPropRounds,
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

func TestVerdictsCoverAllExperiments(t *testing.T) {
	for _, e := range All() {
		if _, ok := Verdicts[e.ID]; !ok {
			t.Errorf("no verdict recorded for %s", e.ID)
		}
	}
	for id := range Verdicts {
		if _, ok := Find(id); !ok {
			t.Errorf("verdict for unknown experiment %s", id)
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
