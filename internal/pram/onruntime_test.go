package pram

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parcc/internal/par"
)

// goid returns the calling goroutine's id, read off its stack header
// ("goroutine 18 [running]: ...").
func goid() string {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	return strings.Fields(string(buf[:n]))[1]
}

// rendezvous returns a loop body over [0,n) that can only finish when two
// of its bodies run at once: body 0 waits for body n−1 to close a channel.
// A serial loop never reaches body n−1, so after a timeout body 0 reports
// the loop as serial instead of hanging.
func rendezvous(t *testing.T, what string, n int) func(i int) {
	done := make(chan struct{})
	return func(i int) {
		switch i {
		case n - 1:
			close(done)
		case 0:
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Errorf("%s: body 0 never ran beside body %d: the loop stayed serial", what, n-1)
			}
		}
	}
}

// drive runs the same charged loops on m that every machine of these tests
// runs: a For and a fused two-step ForRange over n, and a For over 3.
func drive(m *Machine, n int, body func(i int)) {
	m.For(n, body)
	m.ForRange(n, 2, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
	m.For(3, func(int) {})
}

// At procs 2 a loop of the machine's grain reaches the pool, and the
// charged Steps/Work are those of the sequential simulator.
func TestOnRuntimeRoutesLargeLoops(t *testing.T) {
	rt := par.New(par.Procs(2), par.Grain(1))
	defer rt.Close()
	const grain = 8
	m := New(Seed(1), Grain(grain), OnRuntime(rt))
	if m.Runtime() != rt {
		t.Fatal("Runtime() should return the installed runtime")
	}
	m.For(grain, rendezvous(t, "For", grain))
	span := rendezvous(t, "ForRange", grain)
	m.ForRange(grain, 2, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			span(i)
		}
	})
	m.For(3, func(int) {})
	seq := New()
	drive(seq, grain, func(int) {})
	if m.Steps() != seq.Steps() || m.Work() != seq.Work() {
		t.Fatalf("steps/work = %d/%d on the runtime, %d/%d on the sequential simulator",
			m.Steps(), m.Work(), seq.Steps(), seq.Work())
	}
}

// Sub-grain loops, a one-proc runtime and the nil runtime (the default,
// or installed over a runtime) all run every body on the calling
// goroutine, once per index, with the sequential simulator's charges.
func TestSerialLoopsStayOnCaller(t *testing.T) {
	two := par.New(par.Procs(2), par.Grain(1))
	defer two.Close()
	one := par.New(par.Procs(1), par.Grain(1))
	defer one.Close()
	const n = 100
	machines := map[string]*Machine{
		"sub-grain": New(OnRuntime(two), Grain(n+1)),
		"one-proc":  New(OnRuntime(one), Grain(1)),
		"default":   New(Grain(1)),
		"nil":       New(OnRuntime(two), OnRuntime(nil), Grain(1)),
	}
	seq := New()
	drive(seq, n, func(int) {})
	caller := goid()
	for name, m := range machines {
		var hits [n]int32
		var away atomic.Int32
		drive(m, n, func(i int) {
			atomic.AddInt32(&hits[i], 1)
			if goid() != caller {
				away.Add(1)
			}
		})
		if away.Load() != 0 {
			t.Errorf("%s: %d bodies ran off the calling goroutine", name, away.Load())
		}
		for i, h := range hits {
			if h != 2 {
				t.Fatalf("%s: index %d ran %d times, want once per loop", name, i, h)
			}
		}
		if m.Steps() != seq.Steps() || m.Work() != seq.Work() {
			t.Errorf("%s: steps/work = %d/%d, want %d/%d", name, m.Steps(), m.Work(), seq.Steps(), seq.Work())
		}
	}
	if machines["nil"].Runtime() != nil {
		t.Error("OnRuntime(nil) must leave the machine without a runtime")
	}
}
