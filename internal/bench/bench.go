// Package bench is the experiment harness behind ccbench: it regenerates
// the tables of the experiments listed in the README (E1–E17, plus the SP
// self-speedup table).  The paper is a theory paper with no measured
// evaluation, so each experiment instantiates one of its quantitative
// claims (theorem, lemma, or appendix construction); docs/ARCHITECTURE.md
// §1 maps the paper's results to the packages the experiments exercise.
//
// Experiments run at two scales: Small (seconds; used by unit tests and the
// benchmark suite; bench_test.go asserts each claim on the seed-3 tables)
// and Full (the larger sizes ccbench -scale full prints).
package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"parcc"
	"parcc/internal/core"
	"parcc/internal/graph"
	"parcc/internal/ltz"
	"parcc/internal/par"
	"parcc/internal/pram"
	"parcc/internal/solve"
)

// Scale selects experiment sizes.
type Scale int

// Scales.
const (
	Small Scale = iota // CI-sized: a few seconds per experiment
	Full               // the published tables
)

// Config parameterizes an experiment run.
type Config struct {
	Scale Scale
	Seed  uint64
	// Backend selects the execution engine of every experiment:
	// "sequential" (the default) or "concurrent" (the internal/par pool).
	Backend string
	// Procs bounds the concurrent backend's parallelism (0: NumCPU).
	Procs int
}

// backend resolves Config.Backend for the experiment machines:
// "concurrent" selects the internal/par pool, anything else the
// sequential simulator.
func (c Config) backend() parcc.Backend {
	if strings.EqualFold(c.Backend, string(parcc.BackendConcurrent)) {
		return parcc.BackendConcurrent
	}
	return parcc.BackendSequential
}

func (c Config) seed() uint64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

func (c Config) procs() int {
	if c.Procs > 0 {
		return c.Procs
	}
	return runtime.NumCPU()
}

// pools shares one runtime per parallelism degree across all experiment
// machines: experiments build machines in nested loops, and a pool per
// machine would stack up parked goroutines (and GC-timed teardown) while
// the benchmark is timing.  The pools live for the process — ccbench exits
// when the tables are done.  Machine randomness comes from pram.Seed; the
// runtime seed only feeds ForChunks streams, which machines don't use.
var (
	poolMu sync.Mutex
	pools  = map[int]*par.Runtime{}
)

func sharedPool(procs int) *par.Runtime {
	poolMu.Lock()
	defer poolMu.Unlock()
	rt, ok := pools[procs]
	if !ok {
		rt = par.New(par.Procs(procs))
		pools[procs] = rt
	}
	return rt
}

func (c Config) machine() *pram.Machine {
	if c.backend() == parcc.BackendConcurrent {
		return pram.New(pram.Seed(c.seed()), pram.OnRuntime(sharedPool(c.procs())))
	}
	return pram.New(pram.Seed(c.seed()))
}

// Table is one experiment's output: a titled grid of formatted cells.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper statement being instantiated
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Add appends a row of cells formatted with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note records a caveat printed under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "*Claim:* %s\n\n", t.Claim)
	}
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, r := range t.Rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ",") + "\n")
	for _, r := range t.Rows {
		b.WriteString(strings.Join(r, ",") + "\n")
	}
	return b.String()
}

// JSON renders the table as a machine-readable document (ccbench -format
// json) that tooling can diff.
func (t *Table) JSON() string {
	doc := struct {
		ID      string     `json:"id"`
		Title   string     `json:"title"`
		Claim   string     `json:"claim,omitempty"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
		Notes   []string   `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Claim, t.Columns, t.Rows, t.Notes}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		// The struct is marshal-safe by construction; keep the CLI alive.
		return "{}"
	}
	return string(out) + "\n"
}

// Experiment couples an ID to its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) *Table
}

// All returns the registry in index order.
func All() []Experiment {
	return []Experiment{
		{"E1", "parallel time vs spectral gap (Theorem 1)", E1TimeVsGap},
		{"E2", "work linearity vs baselines (Theorem 1)", E2WorkLinearity},
		{"E3", "MATCHING constant shrink (Lemma 4.4)", E3MatchingShrink},
		{"E4", "REDUCE shrink factor (Lemma 4.25)", E4ReduceShrink},
		{"E5", "skeleton sparsity (Lemma 5.5)", E5SkeletonSize},
		{"E6", "minimum degree after INCREASE (Lemma 5.25)", E6MinDegree},
		{"E7", "sampling blows up diameter (Appendix B)", E7DiameterBlowup},
		{"E8", "sampled spectral gap (Corollary C.3)", E8SampledGap},
		{"E9", "inter-component edges after sampling (KKT lemma)", E9KKTRemain},
		{"E10", "headline comparison across algorithms", E10Headline},
		{"E11", "one cycle vs two cycles (Appendix A)", E11TwoCycle},
		{"E12", "double-exponential phase schedule (§3.4/§7)", E12PhaseSchedule},
		{"E13", "contraction preserves the gap (Lemma 6.1)", E13ContractionGap},
		{"E14", "naive sampling breaks paths (§3)", E14NaiveSampling},
		{"E15", "per-stage cost attribution (§7)", E15StageBreakdown},
		{"E16", "ablation: FILTER deletion probability (§4.2)", E16FilterDeletion},
		{"E17", "ablation: EXPAND-MAXLINK budgets (§5.2)", E17BudgetGrid},
		{"SP", "concurrent backend self-speedup T1/TP (internal/par)", SPSelfSpeedup},
	}
}

// Find returns the experiment with the given ID (case-insensitive).
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// runFLS executes the paper's algorithm and reports (rounds, work, wall).
func runFLS(c Config, g *graph.Graph) (steps, work int64, wall time.Duration, res *core.Result) {
	m := c.machine()
	p := core.Default(g.N)
	p.Seed ^= c.seed()
	t0 := time.Now()
	res = core.Connectivity(solve.New(m), g, p, nil)
	return m.Steps(), m.Work(), time.Since(t0), res
}

// runLTZ executes the Theorem-2 baseline.
func runLTZ(c Config, g *graph.Graph) (steps, work int64, wall time.Duration) {
	m := c.machine()
	p := ltz.DefaultParams(g.N)
	p.Seed ^= c.seed()
	t0 := time.Now()
	ltz.Solve(m, g, p)
	return m.Steps(), m.Work(), time.Since(t0)
}

func log2(x float64) float64 {
	if x <= 0 {
		return 0
	}
	l := 0.0
	for x >= 2 {
		x /= 2
		l++
	}
	for x < 1 {
		x *= 2
		l--
	}
	// linear interpolation on the mantissa is plenty for plotting
	return l + (x - 1)
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
