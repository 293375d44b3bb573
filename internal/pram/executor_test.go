package pram

import (
	"sync/atomic"
	"testing"
)

// countingExec is a minimal Executor that records how many loops it ran.
type countingExec struct {
	procs int
	loops int64
}

func (e *countingExec) Run(n int, body func(i int)) {
	atomic.AddInt64(&e.loops, 1)
	for i := 0; i < n; i++ {
		body(i)
	}
}

func (e *countingExec) Procs() int { return e.procs }

func TestOnExecutorRoutesLargeLoops(t *testing.T) {
	e := &countingExec{procs: 4}
	m := New(Seed(1), Grain(8), OnExecutor(e))
	if m.Exec() == nil {
		t.Fatal("Exec() should return the installed executor")
	}
	hits := make([]int32, 100)
	m.For(len(hits), func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
	if e.loops != 1 {
		t.Fatalf("executor ran %d loops, want 1", e.loops)
	}
	// Loops below the grain stay inline.
	m.For(4, func(i int) {})
	if e.loops != 1 {
		t.Fatalf("sub-grain loop should not hit the executor (loops=%d)", e.loops)
	}
	// Charging is unaffected by the executor.
	if m.Steps() != 2 || m.Work() != 104 {
		t.Fatalf("steps=%d work=%d, want 2/104", m.Steps(), m.Work())
	}
}

// OnExecutor(nil) makes the machine the sequential simulator, and an
// executor with a single proc leaves every loop on the calling goroutine.
func TestSequentialMachineIgnoresExecutor(t *testing.T) {
	e := &countingExec{procs: 4}
	m := New(OnExecutor(e), OnExecutor(nil), Grain(1))
	if m.Exec() != nil {
		t.Fatal("sequential machine must report no executor")
	}
	m.For(100, func(i int) {})
	one := &countingExec{procs: 1}
	New(OnExecutor(one), Grain(1)).For(100, func(i int) {})
	if e.loops != 0 || one.loops != 0 {
		t.Fatalf("serial loops reached an executor (%d, %d times)", e.loops, one.loops)
	}
}
