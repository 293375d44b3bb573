package bench

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"parcc"
)

// flsGolden pins the charged cost and the exact labeling of one-shot FLS
// on every solve family at n = 2^10 (seed 1).  Both modes below are
// deterministic: the sequential simulator, and the concurrent backend at
// procs 1 (one worker runs every loop in index order).  The table was
// recorded before the MATCHING/ALTER/SHORTCUT loops became fused chunked
// passes, so it guards that executing several charged steps in one pass
// changes neither the accounting nor any concurrent-write winner.  At
// procs ≥ 2 the winners (and with them the step counts) legitimately vary
// from run to run, so those modes are not pinned.  The two pinned modes
// agree with each other, so one table serves both.  The community,
// lollipop, grid-xl and torus-xl Work values were re-recorded when
// BuildAux's unstable sort became a stable counting sort: the order within
// an endpoint's run reaches MATCHING through Gather, and it moved no Steps,
// component count or label.
var flsGolden = map[string]goldenRun{
	"path":            {Steps: 773, Work: 295814, Comps: 1, LabelHash: 0x54bc0bb20f1db25},
	"cycle":           {Steps: 773, Work: 304105, Comps: 1, LabelHash: 0x2939a16376cddb25},
	"two-cycles":      {Steps: 773, Work: 314338, Comps: 2, LabelHash: 0xfb81ae70d4d43f25},
	"grid":            {Steps: 816, Work: 536276, Comps: 1, LabelHash: 0x54bc0bb20f1db25},
	"torus":           {Steps: 665, Work: 408049, Comps: 1, LabelHash: 0x54bc0bb20f1db25},
	"hypercube":       {Steps: 668, Work: 731987, Comps: 1, LabelHash: 0xb93a0c83ce3b6325},
	"complete":        {Steps: 735, Work: 122019752, Comps: 1, LabelHash: 0x1d24dca62fd2a325},
	"star":            {Steps: 534, Work: 50160, Comps: 1, LabelHash: 0xb93a0c83ce3b6325},
	"binary-tree":     {Steps: 695, Work: 76765, Comps: 1, LabelHash: 0xb93a0c83ce3b6325},
	"random-regular":  {Steps: 620, Work: 284111, Comps: 1, LabelHash: 0x120cffedacf0a325},
	"gnm-sparse":      {Steps: 629, Work: 314763, Comps: 19, LabelHash: 0xc10b5d21708baaec},
	"gnm-dense":       {Steps: 709, Work: 3817473, Comps: 1, LabelHash: 0xb93a0c83ce3b6325},
	"block":           {Steps: 534, Work: 6126120, Comps: 9, LabelHash: 0xef1df0a2b8bd46e5},
	"community":       {Steps: 933, Work: 4410452, Comps: 1, LabelHash: 0x1d24dca62fd2a325},
	"lollipop":        {Steps: 931, Work: 2214311, Comps: 1, LabelHash: 0x9947367924500b25},
	"barbell":         {Steps: 736, Work: 15333285, Comps: 1, LabelHash: 0x42a47795c24b4325},
	"union":           {Steps: 849, Work: 272659, Comps: 23, LabelHash: 0x2a3c945dd7cb941f},
	"many-components": {Steps: 774, Work: 130210, Comps: 122, LabelHash: 0x9c4f17399863748e},
	"watts-strogatz":  {Steps: 623, Work: 566786, Comps: 1, LabelHash: 0x8f09f715fef24325},
	"barabasi-albert": {Steps: 745, Work: 1668857, Comps: 1, LabelHash: 0x5f1ae2cde716a325},
	"path-xl":         {Steps: 1153, Work: 1476752, Comps: 1, LabelHash: 0x9dd6ec1b1ffac325},
	"grid-xl":         {Steps: 854, Work: 2248954, Comps: 1, LabelHash: 0xfe51b12a91b50325},
	"torus-xl":        {Steps: 931, Work: 1974951, Comps: 1, LabelHash: 0x4eaa95dd56392325},
}

type goldenRun struct {
	Steps, Work int64
	Comps       int
	LabelHash   uint64
}

func (g goldenRun) String() string {
	return fmt.Sprintf("{Steps: %d, Work: %d, Comps: %d, LabelHash: %#x}", g.Steps, g.Work, g.Comps, g.LabelHash)
}

func labelHash(labels []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, l := range labels {
		b[0], b[1], b[2], b[3] = byte(l), byte(l>>8), byte(l>>16), byte(l>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestFLSChargedCostGolden(t *testing.T) {
	modes := []struct {
		name string
		opts *parcc.Options
	}{
		{"sequential", &parcc.Options{Backend: parcc.BackendSequential}},
		{"procs1", &parcc.Options{Backend: parcc.BackendConcurrent, Procs: 1}},
	}
	for _, mode := range modes {
		for _, f := range Families(1<<10, 1) {
			res, err := parcc.ConnectedComponents(f.Make(), mode.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", mode.name, f.Name, err)
			}
			got := goldenRun{Steps: res.Steps, Work: res.Work, Comps: res.NumComponents, LabelHash: labelHash(res.Labels)}
			want, ok := flsGolden[f.Name]
			if !ok {
				t.Errorf("%s: no golden entry for family %q (got %v)", mode.name, f.Name, got)
				continue
			}
			if got != want {
				t.Errorf("%s/%s: got %v, want %v", mode.name, f.Name, got, want)
			}
		}
	}
}

// tableGolden pins every E1–E17 table at Small scale, seed 3 (the tables
// TestAllExperimentsRunSmall builds), hashed by tableHash.  The tables run
// on the sequential simulator, so every charged round, work count, size
// and verdict cell is deterministic; a change to any algorithm layer that
// moves one of them fails here.  E1 was re-recorded with the stable
// BuildAux order above (its grid work/(m+n) 188.8 → 188.6).
var tableGolden = map[string]uint64{
	"E1":  0x2dc439ca9436f4e4,
	"E2":  0x8ebded9475918318,
	"E3":  0x20a0a2a44e685e3f,
	"E4":  0xaa2be52979a8f2ce,
	"E5":  0x8f848ad6ea8ed2e2,
	"E6":  0xe4578c72f7d5c6d4,
	"E7":  0x5387407bf3903d4c,
	"E8":  0x5f7f9e3648c4bb01,
	"E9":  0xca011fbd1fbc05ac,
	"E10": 0xfd8a24216fdd954c,
	"E11": 0xb2ed74aa3dc58f51,
	"E12": 0xeb002932d7137c0a,
	"E13": 0x3df2fe8701687b09,
	"E14": 0xdb28da507f1393af,
	"E15": 0xc2225d8f8eaa4798,
	"E16": 0xa6f5fc2e1bcb27af,
	"E17": 0xcb51703e3c0bed85,
}

// unpinnedColumns are the cells tableHash skips: wall-clock times, and the
// spectral estimator's floating-point iterates, which may move in the last
// printed digit with the platform's float rounding.
var unpinnedColumns = []string{
	"wall ms", "lambda", "lambda'", "|diff|", "log2(1/lambda)", "lambda(one)", "min λ'/λ",
}

// tableHash hashes a table's column names and every cell outside
// unpinnedColumns.
func tableHash(t *Table) uint64 {
	h := fnv.New64a()
	for _, c := range t.Columns {
		fmt.Fprintf(h, "%s\x1f", c)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if !slices.Contains(unpinnedColumns, t.Columns[i]) {
				fmt.Fprintf(h, "%s\x1f", cell)
			}
		}
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}
