// Package par is the shared-memory parallel runtime behind the concurrent
// backend: a persistent goroutine pool executing chunked parallel loops and
// reductions, plus lock-free CAS kernels for the connectivity primitives the
// paper's algorithms are built from — hooking, pointer jumping (compression),
// minimum-label propagation, and compaction.
//
// The PRAM simulator in internal/pram expresses every algorithm as a
// sequence of synchronous parallel loops and charges model costs per loop.
// Runtime implements the simulator's Executor contract (structurally — par
// does not import pram), so the very same algorithms execute their loop
// bodies on real goroutines when a Runtime is installed on the Machine: the
// cost accounting stays the model's, the wall clock becomes the hardware's.
// The CAS kernels additionally give the uncharged helpers (label extraction,
// compaction inside Contract blocks) and the cas-unite algorithm a
// barrier-free fast path in the style of Liu–Tarjan [LT19] and the
// CAS-over-flat-arrays GPU/multicore connectivity literature.
//
// Scheduling is chunked and dynamically load-balanced: an index space [0,n)
// is split into fixed-size chunks (Grain), and pool workers grab chunks off
// a shared atomic cursor.  Chunk boundaries depend only on n and the grain —
// never on the number of procs — so per-chunk RNG streams (ForChunks) are
// reproducible across any parallelism degree.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Exec is the minimal executor surface the kernels in this package need.  It
// is satisfied by *Runtime and is structurally identical to the simulator's
// pram.Executor, so a Machine's installed executor can be passed straight to
// the kernels.
type Exec interface {
	// Run executes body(i) for every i in [0,n), returning when all calls
	// have completed.
	Run(n int, body func(i int))
	// Procs reports the parallelism degree.
	Procs() int
}

// Runtime is a pooled parallel runtime.  Construct with New; an idle Runtime
// holds procs-1 parked goroutines, released by Close (or by the garbage
// collector if the Runtime becomes unreachable).  Parallel constructs must
// be issued from one orchestrating goroutine at a time; loop bodies run
// concurrently.
type Runtime struct {
	procs int
	grain int
	seed  uint64
	epoch atomic.Uint64

	jobs  chan *job
	close sync.Once
	// jb is the dispatch descriptor, reused across parallel loops: the
	// orchestration contract (one loop at a time) plus the wg.Wait barrier
	// make the reuse safe, and it keeps every For/Run on the pool
	// allocation-free.
	jb job
	// hooks is Components' hook tally for its concurrent edge pass: a
	// field rather than a captured local, so the warm pass allocates only
	// its body closure.  The one-orchestrator contract keeps it private
	// to one loop at a time.
	hooks atomic.Int64
}

// Option configures a Runtime.
type Option func(*Runtime)

// Procs sets the parallelism degree (goroutines used per loop, including the
// caller).  Values < 1 select runtime.NumCPU().
func Procs(p int) Option {
	return func(r *Runtime) {
		if p >= 1 {
			r.procs = p
		}
	}
}

// Grain sets the chunk size parallel loops are split into.  It is the unit
// of load balancing and of per-chunk RNG seeding; results of ForChunks are
// reproducible across procs only for a fixed grain.
func Grain(g int) Option {
	return func(r *Runtime) {
		if g >= 1 {
			r.grain = g
		}
	}
}

// Seed sets the seed all per-chunk RNG streams derive from.
func Seed(s uint64) Option {
	return func(r *Runtime) { r.seed = s }
}

// New returns a runtime with procs-1 pooled workers started and parked.
func New(opts ...Option) *Runtime {
	r := &Runtime{procs: runtime.NumCPU(), grain: 2048, seed: 0x9e3779b97f4a7c15}
	for _, o := range opts {
		o(r)
	}
	if r.procs > 1 {
		r.jobs = make(chan *job, r.procs)
		for i := 0; i < r.procs-1; i++ {
			go worker(r.jobs)
		}
		// Workers reference only the channel, so an abandoned Runtime is
		// collectable; release its goroutines when that happens.
		runtime.SetFinalizer(r, (*Runtime).Close)
	}
	return r
}

// Close releases the pooled workers.  The Runtime must not be used after
// Close; calling Close more than once is a no-op.
func (r *Runtime) Close() {
	r.close.Do(func() {
		if r.jobs != nil {
			close(r.jobs)
		}
		runtime.SetFinalizer(r, nil)
	})
}

// Procs reports the parallelism degree.
func (r *Runtime) Procs() int { return r.procs }

// Grain reports the chunk size loops are split into: ForSpans' span c is
// [c·Grain, min((c+1)·Grain, n)).
func (r *Runtime) Grain() int { return r.grain }

// job is one parallel loop: workers repeatedly claim the next chunk off the
// shared cursor until the index space is exhausted.  Exactly one of body
// (chunked form) and each (per-index form) is set; carrying the per-index
// body directly avoids wrapping it in a fresh chunk closure per loop.
type job struct {
	n     int
	chunk int
	body  func(lo, hi, c int)
	each  func(i int)
	next  atomic.Int64
	wg    sync.WaitGroup
}

func (j *job) run() {
	for {
		c := int(j.next.Add(1)) - 1
		lo := c * j.chunk
		if lo >= j.n {
			return
		}
		hi := lo + j.chunk
		if hi > j.n {
			hi = j.n
		}
		if j.each != nil {
			for i := lo; i < hi; i++ {
				j.each(i)
			}
		} else {
			j.body(lo, hi, c)
		}
	}
}

func worker(jobs chan *job) {
	for j := range jobs {
		j.run()
		j.wg.Done()
	}
}

// dispatch runs body/each over the chunk-size-`chunk` chunking of [0,n),
// on the pool when it pays.  Exactly one of body and each is non-nil; the
// reused descriptor makes pooled loops allocation-free.
func (r *Runtime) dispatch(n, chunk int, body func(lo, hi, c int), each func(i int)) {
	if n <= 0 {
		return
	}
	nchunks := (n + chunk - 1) / chunk
	helpers := r.procs - 1
	if helpers > nchunks-1 {
		helpers = nchunks - 1
	}
	if r.jobs == nil || helpers <= 0 {
		if each != nil {
			for i := 0; i < n; i++ {
				each(i)
			}
			return
		}
		for c := 0; c < nchunks; c++ {
			lo := c * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			body(lo, hi, c)
		}
		return
	}
	j := &r.jb
	if j.body != nil || j.each != nil {
		// The descriptor is in flight: a loop body issued a nested parallel
		// construct, which the single-orchestrator contract forbids (and
		// which would corrupt the outer loop's chunk cursor).
		panic("par: nested parallel dispatch from inside a loop body")
	}
	j.n, j.chunk, j.body, j.each = n, chunk, body, each
	j.next.Store(0)
	j.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		r.jobs <- j
	}
	j.run() // the orchestrator participates
	j.wg.Wait()
	j.body, j.each = nil, nil // drop closure references until the next loop
}

// For executes body(i) for every i in [0,n) across the pool and returns when
// all iterations have completed.  Iterations touching shared cells must use
// atomics; the completion of For happens-before its return.
func (r *Runtime) For(n int, body func(i int)) {
	r.dispatch(n, r.grain, nil, body)
}

// Run is For under the name the simulator's Executor contract uses.
func (r *Runtime) Run(n int, body func(i int)) { r.For(n, body) }

// ForRanges executes body over the grain-sized chunks [lo,hi) of [0,n) —
// the chunked form of For, for kernels whose inner loop is tight enough
// that a per-index closure call would dominate (SkipUnite's two-load skip
// test is the motivating case: the per-edge work is a pair of loads and a
// compare, so the loop must live inside the kernel, not the dispatcher).
func (r *Runtime) ForRanges(n int, body func(lo, hi int)) {
	r.dispatch(n, r.grain, func(lo, hi, _ int) { body(lo, hi) }, nil)
}

// ForSpans is ForRanges on the dispatcher's native signature (the chunk
// index rides along): no adapter closure is created, so a kernel pays only
// for its own body closure — the frontier engine's passes are the
// motivating case (ForRanges pays one more closure allocation per call to
// hide the chunk index, which the warm solve path's allocation budget
// cannot absorb).
func (r *Runtime) ForSpans(n int, body func(lo, hi, c int)) {
	r.dispatch(n, r.grain, body, nil)
}

// RunCoarse executes body(i) for every i in [0,n) treating each index as one
// schedulable task (chunk size 1).  Kernels that have already blocked their
// work into coarse pieces — e.g. CompactIndices' per-block count and scatter
// passes — use it so a small n still spreads across the pool instead of
// being folded into a single grain-sized chunk.
func (r *Runtime) RunCoarse(n int, body func(i int)) {
	r.dispatch(n, 1, nil, body)
}

// coarseRunner is the optional Exec extension RunCoarse provides; kernels
// fall back to Run when an executor lacks it.
type coarseRunner interface {
	RunCoarse(n int, body func(i int))
}

// runCoarse dispatches n coarse tasks on e, via RunCoarse when available.
func runCoarse(e Exec, n int, body func(i int)) {
	if cr, ok := e.(coarseRunner); ok {
		cr.RunCoarse(n, body)
		return
	}
	e.Run(n, body)
}

// ForChunks executes body once per grain-sized chunk [lo,hi) of [0,n), each
// with its own deterministic RNG stream.  The stream depends on (seed, epoch,
// chunk index) only — epoch advances once per ForChunks call — so the random
// choices made for a given chunk are identical no matter how many procs run
// the loop or which worker claims the chunk.
func (r *Runtime) ForChunks(n int, body func(lo, hi int, rng *RNG)) {
	e := r.epoch.Add(1)
	r.dispatch(n, r.grain, func(lo, hi, c int) {
		rng := NewRNG(r.seed, e, uint64(c))
		body(lo, hi, rng)
	}, nil)
}

// Reduce computes combine over leaf(i) for i in [0,n) with identity id.  The
// per-chunk partials are combined in chunk order, so for a fixed grain the
// result is deterministic across procs (exactly reproducible even for
// non-commutative or floating-point combines).
func Reduce[T any](r *Runtime, n int, id T, leaf func(i int) T, combine func(a, b T) T) T {
	if n <= 0 {
		return id
	}
	nchunks := (n + r.grain - 1) / r.grain
	parts := make([]T, nchunks)
	r.dispatch(n, r.grain, func(lo, hi, c int) {
		acc := id
		for i := lo; i < hi; i++ {
			acc = combine(acc, leaf(i))
		}
		parts[c] = acc
	}, nil)
	acc := id
	for _, p := range parts {
		acc = combine(acc, p)
	}
	return acc
}

// Sum64 is Reduce specialized to int64 addition.
func Sum64(r *Runtime, n int, leaf func(i int) int64) int64 {
	return Reduce(r, n, 0, leaf, func(a, b int64) int64 { return a + b })
}

// Count tallies the i in [0,n) for which pred holds.
func Count(r *Runtime, n int, pred func(i int) bool) int64 {
	return Sum64(r, n, func(i int) int64 {
		if pred(i) {
			return 1
		}
		return 0
	})
}
