// Package pram simulates an ARBITRARY CRCW PRAM, sequentially or on a
// parallel runtime.
//
// The paper's algorithms are specified as sequences of synchronous parallel
// loops ("for each edge ...", "for each vertex ...").  Each call to
// Machine.For is one such loop: it charges one unit of parallel time (a PRAM
// step) and one unit of work per active item, and executes the body — on
// the calling goroutine in WriteOrder by default, or across the goroutine
// pool of a runtime installed with OnRuntime.  Concurrent writes to the
// same cell must be performed through the atomic helpers in this package;
// the winner is arbitrary, and — exactly as the ARBITRARY CRCW model
// demands — the algorithms built on top are correct no matter which writer
// wins.
//
// Charged steps vs executed passes.  The accounting and the execution are
// separate concerns: a charged step is the model's unit of parallel time,
// and an executed pass is one sweep of real code over an index space.
// Machine.ForRange charges k steps (and k·n work) but runs ONE chunked pass,
// so an algorithm may execute several consecutive steps of its pseudocode
// in a single sweep.  The rule for which steps may share a pass: a step may
// join the pass of the steps before it when every cell it reads is either
// item-local (touched only by the same index) or written by no other step
// of the pass — i.e. last written before the last barrier — and every cell
// it writes is item-local or touched by no other step of the pass.  Under that
// rule every read sees exactly the value the step-by-step execution would
// show it, and the last writer of every cell is the same index as before —
// so on the deterministic backends (the sequential simulator in Forward
// order, and a single worker) the fused pass yields byte-identical state,
// and the charged Steps/Work do not change at all.  A step that reads a
// cell another item writes in the same pass, or writes a cell another item
// reads in it, needs its own barrier and so its own pass.
//
// Classical PRAM primitives with known (time, work) contracts (approximate
// compaction, padded sort, perfect hashing; see internal/prim) run inside
// Machine.Contract, which suspends per-loop accounting and charges the
// published contract instead, so that the measured time and work are exactly
// the quantities the paper charges.
package pram

import (
	"fmt"
	"sync/atomic"

	"parcc/internal/par"
	"parcc/internal/splitmix"
)

// Order controls how serially run loops resolve concurrent writes.  In a
// real CRCW machine the winning writer is arbitrary; on a sequential machine
// the iteration order determines the last (winning) writer, so varying the
// order exercises the "correct under any resolution" obligation of the model.
type Order int

const (
	// Forward iterates 0..n-1 (the last writer in index order wins).
	Forward Order = iota
	// Reverse iterates n-1..0.
	Reverse
	// Shuffled iterates in a seeded pseudo-random order.
	Shuffled
)

func (o Order) String() string {
	switch o {
	case Forward:
		return "forward"
	case Reverse:
		return "reverse"
	case Shuffled:
		return "shuffled"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// Machine is a simulated ARBITRARY CRCW PRAM.  The zero value is not usable;
// construct with New.  All orchestration methods (For, Contract, ...) must be
// called from a single goroutine; loop bodies run concurrently.
type Machine struct {
	order Order
	seed  uint64
	grain int
	rt    *par.Runtime

	suspend int // >0 while running inside a Contract
	steps   int64
	work    int64

	marks         []Mark
	lastMarkSteps int64
	lastMarkWork  int64
}

// Option configures a Machine.
type Option func(*Machine)

// WriteOrder selects the iteration order of serially run loops: every loop
// of a machine without a runtime, which makes concurrent-write resolution
// reproducible, and the sub-grain loops of one with a runtime.
func WriteOrder(o Order) Option {
	return func(m *Machine) { m.order = o }
}

// Seed sets the seed for the machine's per-step random streams.
func Seed(s uint64) Option {
	return func(m *Machine) { m.seed = s }
}

// Grain sets the minimum loop size that is handed to the runtime.  It is
// the machine's serial threshold, separate from the runtime's chunk grain.
func Grain(g int) Option {
	return func(m *Machine) {
		if g >= 1 {
			m.grain = g
		}
	}
}

// OnRuntime installs a parallel runtime: loop bodies large enough to split
// run there, unless the runtime has a single proc.  A nil runtime (the
// default) makes the machine the sequential simulator.
func OnRuntime(rt *par.Runtime) Option {
	return func(m *Machine) { m.rt = rt }
}

// New returns a machine with the given options applied.
func New(opts ...Option) *Machine {
	m := &Machine{
		order: Forward,
		seed:  0x9e3779b97f4a7c15,
		grain: 4096,
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Runtime returns the installed parallel runtime, or nil on a sequential
// machine.  Uncharged helpers (label extraction, compaction inside Contract
// bodies) run their loops on it; the nil runtime runs them inline.
func (m *Machine) Runtime() *par.Runtime { return m.rt }

// Steps reports the number of parallel time steps charged so far.
func (m *Machine) Steps() int64 { return m.steps }

// Work reports the total work (operations) charged so far.
func (m *Machine) Work() int64 { return m.work }

// Reset zeroes the time and work counters and the mark log, recycling the
// machine for the next solve: a Solver calls it between Solve invocations
// so a reused machine is indistinguishable from a fresh one (the per-step
// random streams restart with it, since they are keyed on the step
// counter).  The mark log keeps its capacity across resets.
func (m *Machine) Reset() {
	m.steps, m.work = 0, 0
	m.suspend = 0
	m.marks = m.marks[:0]
	m.lastMarkSteps, m.lastMarkWork = 0, 0
}

// ChargeTime adds t parallel steps without executing anything.
func (m *Machine) ChargeTime(t int64) {
	if m.suspend == 0 {
		m.steps += t
	}
}

// ChargeWork adds w units of work without executing anything.
func (m *Machine) ChargeWork(w int64) {
	if m.suspend == 0 {
		m.work += w
	}
}

// Contract runs f with per-loop accounting suspended and then charges exactly
// (time, work).  It is used by primitives whose published PRAM contracts
// differ from the depth of their portable implementation here (for example
// approximate compaction: O(log* n) time, O(n) work, Lemma 4.2).
func (m *Machine) Contract(time, work int64, f func()) {
	if m.suspend == 0 {
		m.steps += time
		m.work += work
	}
	m.suspend++
	f()
	m.suspend--
}

// For executes body(i) for every i in [0, n) as one synchronous PRAM step,
// charging one time step and n work.  Bodies run concurrently; any cell that
// can be written by more than one i in the same step must be accessed via
// the atomic helpers (Store32, WinWrite32, Max64, ...).
func (m *Machine) For(n int, body func(i int)) {
	if m.suspend == 0 {
		m.steps++
		m.work += int64(n)
	}
	m.run(n, body)
}

// ForWork is like For but charges the given per-step work instead of n.  It
// is used when only part of the items are active processors (the inactive
// bodies return immediately) and the paper charges only the active ones.
func (m *Machine) ForWork(n int, work int64, body func(i int)) {
	if m.suspend == 0 {
		m.steps++
		m.work += work
	}
	m.run(n, body)
}

// ForRange charges what k consecutive For(n) calls charge — k steps and
// k·n work, nothing inside a Contract — and executes body once per span of
// [0, n) as a single pass: body(lo, hi, c) handles indices lo..hi-1 of span
// c, and spans run concurrently.  It is the chunked form of For for k
// fused steps (see the package comment for which steps may share a pass):
// the loop over a span lives in the body, so no per-index closure call is
// paid.  Spans reports how many spans a loop of n uses, for bodies that
// keep per-span state.  A sequential machine in Reverse or Shuffled order
// runs one index per span (c = i) in that order, so fused passes exercise
// the same write resolutions as For.
func (m *Machine) ForRange(n, k int, body func(lo, hi, c int)) {
	if m.suspend == 0 {
		m.steps += int64(k)
		m.work += int64(k) * int64(n)
	}
	if n <= 0 {
		return
	}
	switch {
	case m.span(n) == n:
		body(0, n, 0)
	case m.serial(n):
		m.runSeq(n, func(i int) { body(i, i+1, i) })
	default:
		m.rt.ForSpans(n, body)
	}
}

// Spans returns the number of spans ForRange(n, ...) splits [0, n) into;
// span c covers [c·s, min((c+1)·s, n)) for a size s fixed by the machine.
func (m *Machine) Spans(n int) int {
	if n <= 0 {
		return 0
	}
	s := m.span(n)
	return (n + s - 1) / s
}

// span is the span size ForRange uses for a loop of n.  Wherever For runs
// its loop serially, so does ForRange: as one span in Forward order, and
// one index per span in the Reverse and Shuffled orders.  Otherwise spans
// are the runtime's grain.
func (m *Machine) span(n int) int {
	if !m.serial(n) {
		return m.rt.Grain()
	}
	if m.order == Forward {
		return n
	}
	return 1
}

// serial reports whether a loop of n runs on the calling goroutine: on a
// sequential machine (whose nil runtime has one proc), below the grain, and
// on a one-proc runtime.
func (m *Machine) serial(n int) bool {
	return n < m.grain || m.rt.Procs() <= 1
}

func (m *Machine) run(n int, body func(i int)) {
	if n <= 0 {
		return
	}
	if m.serial(n) {
		m.runSeq(n, body)
		return
	}
	m.rt.Run(n, body)
}

func (m *Machine) runSeq(n int, body func(i int)) {
	switch m.order {
	case Forward:
		for i := 0; i < n; i++ {
			body(i)
		}
	case Reverse:
		for i := n - 1; i >= 0; i-- {
			body(i)
		}
	case Shuffled:
		// A seeded Feistel-free permutation: iterate a full-period LCG over
		// the next power of two and skip out-of-range values.
		size := 1
		for size < n {
			size <<= 1
		}
		mask := uint64(size - 1)
		x := SplitMix64(m.seed^uint64(m.steps)) & mask
		for k := 0; k < size; k++ {
			// x' = 5x+odd mod 2^b is a full-period LCG for any odd increment.
			x = (x*5 + (SplitMix64(m.seed)|1)&mask) & mask
			if x < uint64(n) {
				body(int(x))
			}
		}
	}
}

// Rand returns a deterministic pseudo-random word for item i of the current
// step.  Distinct (seed, step, i) triples give independent-looking streams,
// which is what the paper's per-processor coin flips require.
func (m *Machine) Rand(step int64, i int) uint64 {
	return SplitMix64(m.seed ^ uint64(step)*splitmix.Gamma ^ uint64(i)*splitmix.M1)
}

// Coin reports a Bernoulli(p) draw for item i of step s, with p given as a
// 64-bit fixed-point probability (see P64).
func (m *Machine) Coin(step int64, i int, p uint64) bool {
	return m.Rand(step, i) < p
}

// P64 converts a probability in [0,1] to the fixed-point form used by
// Coin: splitmix.P64 under the machine's name.
func P64(p float64) uint64 { return splitmix.P64(p) }

// SplitMix64 is splitmix.Hash, the package's universal source of
// deterministic pseudo-randomness.
func SplitMix64(x uint64) uint64 { return splitmix.Hash(x) }

// Store32 atomically stores v into a[i].  Under concurrent stores an
// arbitrary writer wins, matching the ARBITRARY CRCW write rule.
func Store32(a []int32, i int, v int32) { atomic.StoreInt32(&a[i], v) }

// Load32 atomically loads a[i].
func Load32(a []int32, i int) int32 { return atomic.LoadInt32(&a[i]) }

// Store64 atomically stores v into a[i].
func Store64(a []int64, i int, v int64) { atomic.StoreInt64(&a[i], v) }

// Load64 atomically loads a[i].
func Load64(a []int64, i int) int64 { return atomic.LoadInt64(&a[i]) }

// Max64 atomically raises a[i] to v if v is larger.  It implements the
// argmax-by-concurrent-write trick (proof of Lemma 5.8) with a single
// hardware primitive of the same O(1) cost.
func Max64(a []int64, i int, v int64) {
	for {
		cur := atomic.LoadInt64(&a[i])
		if v <= cur {
			return
		}
		if atomic.CompareAndSwapInt64(&a[i], cur, v) {
			return
		}
	}
}

// Min64 atomically lowers a[i] to v if v is smaller.
func Min64(a []int64, i int, v int64) {
	for {
		cur := atomic.LoadInt64(&a[i])
		if v >= cur {
			return
		}
		if atomic.CompareAndSwapInt64(&a[i], cur, v) {
			return
		}
	}
}

// Add64 atomically adds d to a[i] and returns the new value.
func Add64(a []int64, i int, d int64) int64 { return atomic.AddInt64(&a[i], d) }

// CAS32 performs a compare-and-swap on a[i].
func CAS32(a []int32, i int, old, new int32) bool {
	return atomic.CompareAndSwapInt32(&a[i], old, new)
}

// SetFlag atomically sets a[i] to 1.  A flag already set is left alone:
// the same state, without the locked store.
func SetFlag(a []int32, i int) {
	if atomic.LoadInt32(&a[i]) != 1 {
		atomic.StoreInt32(&a[i], 1)
	}
}

// Flag reports whether a[i] is nonzero.
func Flag(a []int32, i int) bool { return atomic.LoadInt32(&a[i]) != 0 }

// Iota32 fills a with 0,1,2,... as one charged step.
func (m *Machine) Iota32(a []int32) {
	m.For(len(a), func(i int) { a[i] = int32(i) })
}
