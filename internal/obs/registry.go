package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is an ordered set of named metrics rendered in the Prometheus
// text exposition format (version 0.0.4).  Metric reads and writes are
// lock-free atomics; the registry lock only guards registration and the
// iteration order of a render, so scraping never contends with the
// serving hot paths that bump the metrics.
type Registry struct {
	mu    sync.Mutex
	items []item
}

type item struct {
	name, help, typ string
	render          func(w io.Writer, name string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (reg *Registry) add(name, help, typ string, render func(io.Writer, string)) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.items = append(reg.items, item{name: name, help: help, typ: typ, render: render})
}

// WritePrometheus renders every registered metric, in registration order.
func (reg *Registry) WritePrometheus(w io.Writer) {
	reg.mu.Lock()
	items := make([]item, len(reg.items))
	copy(items, reg.items)
	reg.mu.Unlock()
	for _, it := range items {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", it.name, it.help, it.name, it.typ)
		it.render(w, it.name)
	}
}

// CounterMetric is a monotonically increasing exported counter.  The zero
// value counts from zero, so it can live in a struct field and be bumped
// before (or without) being registered.
type CounterMetric struct{ v atomic.Int64 }

// Inc adds one.
func (c *CounterMetric) Inc() { c.v.Add(1) }

// Add adds d (d must be >= 0 for the exposition to stay monotone).
func (c *CounterMetric) Add(d int64) { c.v.Add(d) }

// Load returns the current count.
func (c *CounterMetric) Load() int64 { return c.v.Load() }

// Counter registers c under name.  Prometheus convention: name ends in
// _total.
func (reg *Registry) Counter(name, help string, c *CounterMetric) {
	reg.add(name, help, "counter", func(w io.Writer, name string) {
		fmt.Fprintf(w, "%s %d\n", name, c.Load())
	})
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// the natural shape for derived values (ratios, uptimes, queue depths
// read from other state).
func (reg *Registry) GaugeFunc(name, help string, fn func() float64) {
	reg.add(name, help, "gauge", func(w io.Writer, name string) {
		fmt.Fprintf(w, "%s %s\n", name, formatFloat(fn()))
	})
}

// Collect registers a callback that writes its own sample lines — the
// escape hatch for labeled per-entity series (per-shard counters) whose
// label sets change at runtime.  The callback must write lines of the
// form `name{label="value"} 123\n` using the metric name it is given.
func (reg *Registry) Collect(name, help, typ string, fn func(w io.Writer, name string)) {
	reg.add(name, help, typ, fn)
}

// histBuckets is the number of finite histogram buckets: upper bounds at
// 2^i microseconds for i in [0, histBuckets), i.e. 1µs up to ~33.5s,
// plus the implicit +Inf bucket.  Fixed power-of-two bounds make bucket
// selection one bit-length instruction and keep every histogram's layout
// identical across processes — deltas and merges need no bucket
// negotiation.
const histBuckets = 25

// Histogram is a latency histogram with fixed power-of-two buckets.
type Histogram struct {
	bucket [histBuckets + 1]atomic.Int64 // per-bucket (non-cumulative); last is +Inf
	sum    atomic.Int64                  // nanoseconds
	count  atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	us := uint64(d.Microseconds())
	var idx int
	if us > 1 {
		idx = bits.Len64(us - 1) // us in (2^(i-1), 2^i] -> bucket i
	}
	if idx > histBuckets {
		idx = histBuckets
	}
	h.bucket[idx].Add(1)
	h.sum.Add(int64(d))
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the accumulated observed time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) from the
// bucket counts: the upper bound of the first bucket at which the
// cumulative count reaches q of the total.  Zero when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i <= histBuckets; i++ {
		cum += h.bucket[i].Load()
		if cum >= target {
			if i == histBuckets {
				return time.Duration(math.MaxInt64) // +Inf bucket
			}
			return time.Duration(1<<i) * time.Microsecond
		}
	}
	return 0
}

// Histogram registers and returns a power-of-two-bucket histogram.
// Prometheus convention: the unit is seconds, so name should end in
// _seconds; bucket bounds are rendered as seconds.
func (reg *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	reg.add(name, help, "histogram", func(w io.Writer, name string) {
		var cum int64
		for i := 0; i < histBuckets; i++ {
			cum += h.bucket[i].Load()
			le := float64(int64(1)<<i) / 1e6 // 2^i µs in seconds
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(le), cum)
		}
		cum += h.bucket[histBuckets].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.Sum().Seconds()))
		fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
	})
	return h
}

// formatFloat renders a float the way Prometheus parsers expect: shortest
// round-trip representation, no exponent surprises for common values.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// EscapeLabel escapes a label value for the text exposition format
// (backslash, double-quote, newline).
func EscapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}
