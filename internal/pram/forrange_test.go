package pram

import (
	"sync/atomic"
	"testing"

	"parcc/internal/par"
)

func TestForRangeChargesLikeKFors(t *testing.T) {
	for _, k := range []int{0, 1, 3} {
		for _, n := range []int{0, 1, 100, 10000} {
			fr, fo := New(), New()
			fr.ForRange(n, k, func(lo, hi, c int) {})
			for j := 0; j < k; j++ {
				fo.For(n, func(int) {})
			}
			if fr.Steps() != fo.Steps() || fr.Work() != fo.Work() {
				t.Errorf("n=%d k=%d: ForRange charged (%d, %d), %d Fors charged (%d, %d)",
					n, k, fr.Steps(), fr.Work(), k, fo.Steps(), fo.Work())
			}
		}
	}
}

func TestForRangeInsideContractChargesNothing(t *testing.T) {
	m := New()
	m.Contract(2, 7, func() {
		m.ForRange(1000, 3, func(lo, hi, c int) {})
	})
	if m.Steps() != 2 || m.Work() != 7 {
		t.Errorf("steps=%d work=%d, want the contract's 2 and 7", m.Steps(), m.Work())
	}
}

// checkSpans runs ForRange over n and asserts every index runs exactly once
// and every span index lies in [0, Spans(n)) with the span's bounds.
func checkSpans(t *testing.T, name string, m *Machine, n int) {
	t.Helper()
	hit := make([]int32, n)
	spans := m.Spans(n)
	var bad atomic.Int32
	m.ForRange(n, 1, func(lo, hi, c int) {
		if c < 0 || c >= spans || lo >= hi {
			bad.Add(1)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hit[i], 1)
		}
	})
	if bad.Load() != 0 {
		t.Errorf("%s n=%d: %d spans outside [0,%d) or empty", name, n, bad.Load(), spans)
	}
	for i, h := range hit {
		if h != 1 {
			t.Fatalf("%s n=%d: index %d ran %d times", name, n, i, h)
		}
	}
}

func TestForRangeRunsEachIndexOnce(t *testing.T) {
	rt := par.New(par.Procs(2), par.Grain(64))
	defer rt.Close()
	machines := map[string]func() *Machine{
		"forward":  func() *Machine { return New(WriteOrder(Forward)) },
		"reverse":  func() *Machine { return New(WriteOrder(Reverse)) },
		"shuffled": func() *Machine { return New(WriteOrder(Shuffled), Seed(5)) },
		"runtime":  func() *Machine { return New(OnRuntime(rt), Grain(16)) },
	}
	for name, mk := range machines {
		for _, n := range []int{0, 1, 2, 17, 257, 5000} {
			checkSpans(t, name, mk(), n)
		}
	}
}

// In Reverse and Shuffled order ForRange visits single indices in exactly
// the order For does, so fused passes resolve concurrent writes the same way.
func TestForRangeFollowsSequentialOrder(t *testing.T) {
	for _, ord := range []Order{Forward, Reverse, Shuffled} {
		n := 300
		var viaFor, viaRange []int
		New(WriteOrder(ord), Seed(9)).For(n, func(i int) { viaFor = append(viaFor, i) })
		New(WriteOrder(ord), Seed(9)).ForRange(n, 1, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				viaRange = append(viaRange, i)
			}
		})
		for i := range viaFor {
			if viaFor[i] != viaRange[i] {
				t.Fatalf("%v: position %d visits %d via For, %d via ForRange", ord, i, viaFor[i], viaRange[i])
			}
		}
	}
}

func TestForRangeSpansOnRuntimeFollowGrain(t *testing.T) {
	rt := par.New(par.Procs(2), par.Grain(100))
	defer rt.Close()
	m := New(OnRuntime(rt), Grain(10))
	n := 1050
	if got := m.Spans(n); got != 11 {
		t.Fatalf("Spans(%d) = %d, want 11 spans of the runtime grain", n, got)
	}
	bounds := make([][2]int, 11)
	m.ForRange(n, 1, func(lo, hi, c int) { bounds[c] = [2]int{lo, hi} })
	for c, b := range bounds {
		if b[0] != c*100 || b[1] != min(c*100+100, n) {
			t.Errorf("span %d = [%d,%d)", c, b[0], b[1])
		}
	}
}
