package obs

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

// TestNilRecorderSafe: the nil receiver is the "tracing off" state — every
// method must no-op (and the timestamp-returning ones must return values
// that are themselves safe to hand back).
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	since := r.Begin()
	r.End(PhaseSample, since)
	since = r.Lap(PhaseVote, since)
	r.Add(CtrCASAttempts, 7)
	r.Set(GaugeCoverPPM, PPM(0.5))
	r.Reset()
	if r.PhaseNanos(PhaseSample) != 0 || r.Count(CtrCASAttempts) != 0 || r.Gauge(GaugeCoverPPM) != 0 {
		t.Fatal("nil recorder must read as zero")
	}
	if since != 0 {
		t.Fatal("nil recorder timestamps must be zero")
	}
}

// TestRecorderNoAllocs pins the contract the solver stack depends on: a
// live Recorder's span and counter operations allocate nothing.
func TestRecorderNoAllocs(t *testing.T) {
	r := NewRecorder()
	if n := testing.AllocsPerRun(100, func() {
		since := r.Begin()
		since = r.Lap(PhaseSample, since)
		r.End(PhaseVote, since)
		r.Add(CtrCASAttempts, 3)
		r.Set(GaugeCoverPPM, 123)
	}); n != 0 {
		t.Fatalf("recorder ops allocated %.0f/run, want 0", n)
	}
}

func TestRecorderSpansAndReset(t *testing.T) {
	r := NewRecorder()
	since := r.Begin()
	time.Sleep(2 * time.Millisecond)
	since = r.Lap(PhaseSample, since)
	r.End(PhaseVote, since)
	if r.PhaseNanos(PhaseSample) < time.Millisecond {
		t.Errorf("sample span %v, want >= 1ms", r.PhaseNanos(PhaseSample))
	}
	if r.PhaseNanos(PhaseVote) < 0 {
		t.Errorf("vote span negative: %v", r.PhaseNanos(PhaseVote))
	}
	r.Add(CtrCASHooks, 4)
	r.Add(CtrCASHooks, 6)
	if r.Count(CtrCASHooks) != 10 {
		t.Errorf("counter: got %d, want 10", r.Count(CtrCASHooks))
	}
	r.Set(GaugeMajorityMode, 1)
	r.Reset()
	if r.PhaseNanos(PhaseSample) != 0 || r.Count(CtrCASHooks) != 0 || r.Gauge(GaugeMajorityMode) != 0 {
		t.Error("Reset must zero everything")
	}
}

func TestEnumNames(t *testing.T) {
	for p := Phase(0); p < NumPhases; p++ {
		if p.String() == "" || p.String() == "unknown" {
			t.Errorf("phase %d has no name", p)
		}
	}
	for c := Counter(0); c < NumCounters; c++ {
		if c.String() == "" || c.String() == "unknown" {
			t.Errorf("counter %d has no name", c)
		}
	}
	if Phase(250).String() != "unknown" || Counter(250).String() != "unknown" {
		t.Error("out-of-range enums must stringify as unknown")
	}
}

func TestPPMRoundTrip(t *testing.T) {
	for _, x := range []float64{0, 0.25, 0.5, 1} {
		if got := FromPPM(PPM(x)); got != x {
			t.Errorf("PPM round trip %g -> %g", x, got)
		}
	}
}

// TestHistogramBuckets: bucket i holds observations in (2^(i-1), 2^i]
// microseconds; the quantile bound walks the cumulative counts.
func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	h.Observe(500 * time.Nanosecond) // 0µs -> bucket 0
	h.Observe(1 * time.Microsecond)  // bucket 0 (le 1µs)
	h.Observe(2 * time.Microsecond)  // bucket 1 (le 2µs)
	h.Observe(3 * time.Microsecond)  // bucket 2 (le 4µs)
	h.Observe(1 * time.Millisecond)  // bucket 10 (le 1024µs)
	h.Observe(2 * time.Hour)         // beyond the last bound -> +Inf bucket
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	want := map[int]int64{0: 2, 1: 1, 2: 1, 10: 1, histBuckets: 1}
	for i := 0; i <= histBuckets; i++ {
		if got := h.bucket[i].Load(); got != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
	// Cumulative counts: 2,3,4,...  p50 of 6 needs cum >= 3 -> bucket 1.
	if q := h.Quantile(0.5); q != 2*time.Microsecond {
		t.Errorf("p50 bound = %v, want 2µs", q)
	}
	if h.Quantile(1) < time.Hour {
		t.Error("p100 with an +Inf observation must saturate")
	}
	if (&Histogram{}).Quantile(0.5) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
}

// TestWritePrometheus checks the exposition shape end to end: HELP/TYPE
// headers, counter and gauge samples, cumulative histogram buckets with an
// +Inf terminator, and labeled collect lines.
func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	var c CounterMetric
	reg.Counter("parcc_test_total", "a counter", &c)
	c.Add(41)
	c.Inc()
	reg.GaugeFunc("parcc_test_ratio", "a gauge", func() float64 { return 0.75 })
	h := reg.Histogram("parcc_test_seconds", "a histogram")
	h.Observe(3 * time.Microsecond)
	h.Observe(3 * time.Microsecond)
	reg.Collect("parcc_test_labeled", "labeled", "counter", func(w io.Writer, name string) {
		fmt.Fprintf(w, "%s{graph=\"%s\"} 7\n", name, EscapeLabel(`g"1`))
	})
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# HELP parcc_test_total a counter",
		"# TYPE parcc_test_total counter",
		"parcc_test_total 42",
		"# TYPE parcc_test_ratio gauge",
		"parcc_test_ratio 0.75",
		"# TYPE parcc_test_seconds histogram",
		`parcc_test_seconds_bucket{le="4e-06"} 2`,
		`parcc_test_seconds_bucket{le="+Inf"} 2`,
		"parcc_test_seconds_count 2",
		`parcc_test_labeled{graph="g\"1"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestEscapeLabel(t *testing.T) {
	if got := EscapeLabel("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Errorf("EscapeLabel = %q", got)
	}
}
