// Command ccperf is the repository's benchmark: one command runs a named
// workload against the parcc library and its serving stack, checks every
// answer, and prints the workload's metrics by name with their units.
//
//	bash ccperf/run.sh --workload serve-read-heavy --seed 7 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics of
// a traced run (which also measures the untraced figures once more, so the
// tracing overhead is reported).  README.md in this directory describes the
// workloads, the metrics, and how they map to the older BENCH_*.json rows.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one named metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every workload reports in an
// untraced run.  Their per-workload definitions are in README.md.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"p50_refops", "refops"},
	{"cold_refops_per_edge", "refops/edge"},
	{"bytes_per_edge", "B/edge"},
}

// flsPhases are the trace phases of the one-shot FLS call reported as
// core.fls_phase_ms.<phase>; "other" pools every phase not listed.
var flsPhases = []string{"validate", "plan", "reduce", "presample", "interweave", "finish", "other"}

// layerMetrics are the per-layer metrics every workload reports in a traced
// run; a layer the workload leaves idle reads 0.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"graph.plan_ns_per_edge", "ns/edge"},
		{"graph.plan_bytes_per_edge", "B/edge"},
		{"par.cas_ns_per_edge", "ns/edge"},
		{"par.sample_ns_per_edge", "ns/edge"},
		{"par.frontier_ns_per_edge", "ns/edge"},
		{"par.sample_skip_ratio", "ratio"},
		{"par.frontier_rounds_p50", "rounds"},
		{"par.frontier_rounds_max", "rounds"},
		{"parcc.auto_over_best", "ratio"},
		{"parcc.attach_ns_per_edge", "ns/edge"},
		{"parcc.add_us_p50", "us"},
		{"parcc.add_us_p99", "us"},
		{"parcc.remove_us_p50", "us"},
		{"parcc.remove_us_p99", "us"},
		{"parcc.publish_us_p50", "us"},
		{"parcc.publish_us_p99", "us"},
		{"parcc.cloned_pages_per_publish", "pages"},
		{"parcc.snapshot_read_ns", "ns"},
		{"dynconn.forest_delete_frac", "ratio"},
		{"dynconn.scans_per_forest_delete", "scans"},
		{"dynconn.budget_fallbacks", "count"},
		{"core.fls_phases", "phases"},
		{"core.fls_steps", "rounds"},
		{"core.fls_work_per_edge", "ops/elem"},
	}
	for _, ph := range flsPhases {
		defs = append(defs, metricDef{"core.fls_phase_ms." + ph, "ms"})
	}
	defs = append(defs, []metricDef{
		{"service.http_us", "us"},
		{"service.engine_read_ns", "ns"},
		{"service.engine_write_us", "us"},
		{"service.coalesce_ratio", "ratio"},
		{"service.applies_per_write", "ratio"},
		{"service.wal_fsyncs_per_write", "ratio"},
		{"service.wal_bytes_per_edge", "B/edge"},
		{"service.publish_us_mean", "us"},
		{"service.unattributed_us", "us"},
		{"service.replay_edges_per_s", "edges/s"},
		{"service.stream_bytes_per_edge", "B/edge"},
		{"repl.lag_seqs_max", "seqs"},
		{"repl.reconnects", "count"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_p99_us", "us"},
		{"loadgen.late_p99_us", "us"},
		{"env.fsync_us", "us"},
		{"env.ref_ns_per_op", "ns"},
		{"e2e.p50_us", "us"},
		{"e2e.cold_ns_per_edge", "ns/edge"},
		{"e2e.solve_ns_per_edge", "ns/edge"},
		{"e2e.alloc_bytes_per_edge", "B/edge"},
		{"e2e.heap_bytes_per_edge", "B/edge"},
		{"e2e.read_p50_us", "us"},
		{"e2e.read_p99_us", "us"},
		{"e2e.write_ack_p50_us", "us"},
		{"e2e.write_ack_p99_us", "us"},
		{"e2e.max_rate_ops_per_s", "ops/s"},
		{"e2e.recover_s", "s"},
		{"e2e.staleness_p50_ms", "ms"},
		{"e2e.staleness_p99_ms", "ms"},
		{"e2e.error_frac", "ratio"},
	}...)
	for _, m := range e2eMetrics {
		defs = append(defs, metricDef{"overhead." + m.name, m.unit})
	}
	return defs
}()

// config is one run's settings.  Everything a workload generates derives
// from seed; the program under test only ever sees the generated inputs.
type config struct {
	seed    uint64
	seconds float64
	procs   int
	tiny    bool   // self-test sizes
	dir     string // scratch directory for WAL files and crash images
	// setupReps is how many times setup runs; setup_s is their median.
	setupReps int
	// layers asks the workload for its per-layer measurements (the
	// layer-by-layer replays and fixed-kernel solves of a traced run).
	layers bool
	// tr records a span around every call into a layer; nil when off.
	tr *tracer
	// ref samples the reference job between measured windows.
	ref *reference
	// corrupt, when set, is applied to every observed partition at the
	// check boundary (self-tests use it to prove the checks bite).
	corrupt func([]int32)
	// fsyncUS is the raw 4 KiB write+fsync time measured at the start.
	fsyncUS float64
	// stall, when positive, pauses the open-loop generator once, halfway
	// through the base rate step (self-tests use it).
	stall time.Duration
}

// warmUp is how long every set-up ends with the workload's own traffic, so
// caches, pools and lazy set-up settle before anything is timed.  Being
// wall time, it also keeps setup_s from swinging with the machine's speed
// as much as the set-up work itself does.
func (cfg *config) warmUp() time.Duration {
	if cfg.tiny {
		return 100 * time.Millisecond
	}
	return 300 * time.Millisecond
}

// report is what one workload run measured.
type report struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	checks    int // answer checks executed (all must have run)
	notes     []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records one failed answer check or non-2xx response.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// workload is one named set of inputs; README.md gives each one's reason.
type workload struct {
	name string
	run  func(cfg *config) (*report, error)
}

var workloads = []workload{
	{"solve-families", runSolveFamilies},
	{"serve-read-heavy", runServeReadHeavy},
	{"serve-durable", runServeDurable},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: solve-families | serve-read-heavy | serve-durable")
		seed    = flag.Uint64("seed", 1, "workload seed: every generated input derives from it")
		seconds = flag.Float64("seconds", 10, "how long the run measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "ccperf: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	base, err := filepath.Abs(".bench_build")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccperf:", err)
		os.Exit(1)
	}
	dir, err := makeRunDir(base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccperf:", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, seconds: *seconds, procs: runtime.NumCPU(), dir: dir, setupReps: 5}
	res, err := runMain(w, cfg, *trace == 1, base)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccperf:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// makeRunDir creates this run's private scratch directory.
func makeRunDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runMain runs the workload in the requested mode and assembles the result.
// A traced run measures the untraced end-to-end figures first, then the
// same workload with spans on plus its per-layer replays, each on half the
// time budget; spans are written under spanDir at the end.
func runMain(w workload, cfg config, traced bool, spanDir string) (*result, error) {
	runtime.GOMAXPROCS(cfg.procs)
	fsyncUS, err := measureFsync(cfg.dir)
	if err != nil {
		return nil, err
	}
	cfg.fsyncUS = fsyncUS
	printStamp(w.name, &cfg, fsyncUS)

	var reps []*report
	if !traced {
		rep, err := runWorkload(w, &cfg)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	} else {
		plain := cfg
		plain.seconds = cfg.seconds / 2
		plain.setupReps = 1
		base, err := runWorkload(w, &plain)
		if err != nil {
			return nil, err
		}
		tcfg := plain
		tcfg.layers = true
		tcfg.tr = newTracer()
		rep, err := runWorkload(w, &tcfg)
		if err != nil {
			return nil, err
		}
		rep.layer["env.fsync_us"] = fsyncUS
		for _, m := range e2eMetrics {
			rep.layer["overhead."+m.name] = rep.e2e[m.name] - base.e2e[m.name]
		}
		rep.layer["e2e.error_frac"] = float64(base.failed+rep.failed) / float64(max(base.attempted+rep.attempted, 1))
		path := filepath.Join(spanDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
		if err := tcfg.tr.write(path); err != nil {
			return nil, err
		}
		tcfg.tr.summary(os.Stdout, path)
		reps = append(reps, base, rep)
	}
	return assemble(w.name, reps, traced), nil
}

// runWorkload runs w with a fresh reference job, which the workload samples
// to express its gated timings in reference operations (see calib.go); the
// absolute figures stay in the per-layer metrics.
func runWorkload(w workload, cfg *config) (*report, error) {
	cfg.ref = newReference()
	rep, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	per := cfg.ref.nsPerOp()
	fmt.Printf("reference job: %d samples, median %.3f ns per element-step; p50 %.3fus, cold %.3fns/edge\n",
		len(cfg.ref.ns), per, rep.layer["e2e.p50_us"], rep.layer["e2e.cold_ns_per_edge"])
	rep.layer["env.ref_ns_per_op"] = per
	return rep, nil
}

// assemble folds the run's reports into the result line: the metrics of
// the last report, and the attempt and failure counts of all of them.
func assemble(name string, reps []*report, traced bool) *result {
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	for _, rep := range reps {
		res.Attempted += rep.attempted
		res.Failed += rep.failed
		if rep.checks == 0 {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "ccperf: %s ran no answer checks\n", name)
		}
		for _, n := range rep.notes {
			fmt.Fprintf(os.Stderr, "ccperf: %s: %s\n", name, n)
		}
	}
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}
	res.Attempted = max(res.Attempted, 1)
	last := reps[len(reps)-1]
	defs, vals := e2eMetrics, last.e2e
	if traced {
		defs, vals = layerMetrics, last.layer
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	printTable(name, defs, vals)
	return res
}

// printTable prints the metrics human-readably ahead of the result line.
func printTable(name string, defs []metricDef, vals map[string]float64) {
	fmt.Printf("%s:\n", name)
	for _, d := range defs {
		fmt.Printf("  %-34s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
