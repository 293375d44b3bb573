package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"
)

// tinyConfig runs a workload at self-test sizes for a fraction of a second.
func tinyConfig(t *testing.T) config {
	return config{seed: 3, seconds: 0.6, procs: 2, tiny: true, dir: t.TempDir(), setupReps: 1}
}

// The metric tables are the contract BENCHMARK.json publishes; they must
// agree name for name and unit for unit.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, tc := range []struct {
		what string
		defs []metricDef
		json []struct{ Name, Unit string }
	}{{"end_to_end", e2eMetrics, doc.EndToEnd}, {"per_layer", layerMetrics, doc.PerLayer}} {
		if len(tc.json) != len(tc.defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", tc.what, len(tc.json), len(tc.defs))
		}
		for i, d := range tc.defs {
			if tc.json[i].Name != d.name || tc.json[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", tc.what, i,
					tc.json[i].Name, tc.json[i].Unit, d.name, d.unit)
			}
		}
	}
}

// Every workload emits every named metric with its unit, untraced and
// traced, and checks its answers.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(t)
			res, err := runMain(w, cfg, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := e2eMetrics
			if traced {
				defs = layerMetrics
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q != %q", w.name, traced, d.name, m.Unit, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

// The GC pause percentile reads the collections between two MemStats
// snapshots, including early in a process when NumGC is below the
// runtime's 256-entry ring.
func TestGCPauseP99(t *testing.T) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&b)
	if p := gcPauseP99(&a, &b); p <= 0 {
		t.Errorf("gc pause p99 over %d collections = %v, want > 0", b.NumGC-a.NumGC, p)
	}
	if p := gcPauseP99(&b, &b); p != 0 {
		t.Errorf("gc pause p99 with no collections = %v, want 0", p)
	}
}

// corruptPartition moves vertex 0 into another component, or splits it off
// when there is only one.
func corruptPartition(labels []int32) {
	for k := range labels {
		if labels[k] != labels[0] {
			labels[0] = labels[k]
			return
		}
	}
	if len(labels) > 0 {
		labels[0] = -1
	}
}

// A partition corrupted at the benchmark's check boundary fails the run.
func TestCorruptedPartitionFailsRun(t *testing.T) {
	for _, w := range workloads {
		cfg := tinyConfig(t)
		cfg.corrupt = corruptPartition
		res, err := runMain(w, cfg, false, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted partitions passed (correct=%v failed=%d)", w.name, res.Correct, res.Failed)
		}
	}
}

// A generator that stalls shows up in loadgen.late_p99_us.
func TestStalledGeneratorShowsInLateness(t *testing.T) {
	w, _ := findWorkload("serve-read-heavy")
	late := func(stall time.Duration) float64 {
		cfg := tinyConfig(t)
		cfg.stall = stall
		rep, err := runWorkload(w, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.layer["loadgen.late_p99_us"]
	}
	stall := 150 * time.Millisecond
	calm, stalled := late(0), late(stall)
	if stalled < us(stall)/2 || calm >= us(stall)/4 {
		t.Errorf("late p99: %.0fus calm, %.0fus with a %v stall", calm, stalled, stall)
	}
}
