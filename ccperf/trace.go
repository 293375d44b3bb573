package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// maxSpans caps the spans one traced run keeps in memory.
const maxSpans = 1 << 18

// span is one call from the benchmark into a layer of the program.  Spans
// of one load-generator operation share its ID (0: not part of an op).
type span struct {
	Layer string `json:"layer"`
	Op    string `json:"op"`
	ID    int64  `json:"id,omitempty"`
	Start int64  `json:"start_ns"` // since the tracer started
	Dur   int64  `json:"dur_ns"`
}

// tracer keeps spans in memory until the run ends.  A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<12)}
}

// record adds a span for a call into layer that ran from start to end.
func (t *tracer) record(layer, op string, id int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{layer, op, id, start.Sub(t.t0).Nanoseconds(), end.Sub(start).Nanoseconds()})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// timed runs fn and records it as a span.
func (t *tracer) timed(layer, op string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(layer, op, 0, start, end)
	return end.Sub(start)
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summary prints span count and busy time per layer and op.
func (t *tracer) summary(w io.Writer, path string) {
	type agg struct {
		n   int
		dur time.Duration
	}
	by := map[string]*agg{}
	t.mu.Lock()
	for _, s := range t.spans {
		k := s.Layer + " " + s.Op
		if by[k] == nil {
			by[k] = &agg{}
		}
		by[k].n++
		by[k].dur += time.Duration(s.Dur)
	}
	n, dropped := len(t.spans), t.dropped
	t.mu.Unlock()
	fmt.Fprintf(w, "spans: %d kept, %d dropped, written to %s\n", n, dropped, path)
	keys := sortedKeys(by)
	sort.SliceStable(keys, func(i, j int) bool { return by[keys[i]].dur > by[keys[j]].dur })
	for _, k := range keys {
		fmt.Fprintf(w, "  %-40s %8d spans %12v busy\n", k, by[k].n, by[k].dur.Round(time.Microsecond))
	}
}
