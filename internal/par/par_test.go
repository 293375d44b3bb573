package par

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 8} {
		r := New(Procs(procs), Grain(7))
		n := 10_000
		hits := make([]int32, n)
		r.Run(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("procs=%d: index %d executed %d times", procs, i, h)
			}
		}
		r.Close()
	}
}

func TestForSmallAndEmpty(t *testing.T) {
	r := New(Procs(4))
	defer r.Close()
	r.Run(0, func(i int) { t.Fatal("body called for n=0") })
	var n32 int32
	r.Run(1, func(i int) { atomic.AddInt32(&n32, 1) })
	if n32 != 1 {
		t.Fatalf("n=1 ran %d bodies", n32)
	}
}

func TestPoolReuseAcrossManyLoops(t *testing.T) {
	r := New(Procs(4), Grain(16))
	defer r.Close()
	var total int64
	for k := 0; k < 500; k++ {
		r.Run(100, func(i int) { atomic.AddInt64(&total, 1) })
	}
	if total != 500*100 {
		t.Fatalf("total = %d", total)
	}
}

func TestForChunksDeterministicAcrossProcs(t *testing.T) {
	// The per-chunk RNG draws must depend only on (seed, epoch, chunk).
	draw := func(procs int) []uint64 {
		r := New(Procs(procs), Grain(64), Seed(42))
		defer r.Close()
		out := make([]uint64, 1000)
		r.ForChunks(len(out), func(lo, hi int, rng *RNG) {
			for i := lo; i < hi; i++ {
				out[i] = rng.Uint64()
			}
		})
		// Second epoch must differ from the first but stay reproducible.
		r.ForChunks(len(out), func(lo, hi int, rng *RNG) {
			for i := lo; i < hi; i++ {
				out[i] ^= rng.Uint64() << 1
			}
		})
		return out
	}
	want := draw(1)
	for _, procs := range []int{2, 4, 7} {
		got := draw(procs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("procs=%d: draw %d = %x, want %x", procs, i, got[i], want[i])
			}
		}
	}
}

func TestForChunksEpochAdvances(t *testing.T) {
	r := New(Procs(1), Grain(8), Seed(1))
	a := make([]uint64, 8)
	b := make([]uint64, 8)
	r.ForChunks(8, func(lo, hi int, rng *RNG) { a[lo] = rng.Uint64() })
	r.ForChunks(8, func(lo, hi int, rng *RNG) { b[lo] = rng.Uint64() })
	if a[0] == b[0] {
		t.Fatal("two epochs produced identical streams")
	}
}

// The nil runtime runs Run, ForSpans and RunCoarse inline, every index
// once and in order, with the default grain's spans; and Compress and
// CompactIndices on it equal their one-proc results.
func TestNilRuntimeRunsInline(t *testing.T) {
	var r *Runtime
	if r.Procs() != 1 || r.Grain() != defaultGrain {
		t.Fatalf("nil runtime: procs %d grain %d, want 1 and %d", r.Procs(), r.Grain(), defaultGrain)
	}
	const n = 3*defaultGrain + 5
	loops := map[string]func(visit func(i int)){
		"Run":       func(visit func(i int)) { r.Run(n, visit) },
		"RunCoarse": func(visit func(i int)) { r.RunCoarse(n, visit) },
		"ForSpans": func(visit func(i int)) {
			r.ForSpans(n, func(lo, hi, c int) {
				if lo != c*defaultGrain || hi != min(lo+defaultGrain, n) {
					t.Errorf("ForSpans: span %d = [%d,%d)", c, lo, hi)
				}
				for i := lo; i < hi; i++ {
					visit(i)
				}
			})
		},
	}
	for name, loop := range loops {
		var order []int
		loop(func(i int) { order = append(order, i) })
		if len(order) != n {
			t.Fatalf("%s: visited %d indices, want %d", name, len(order), n)
		}
		for k, i := range order {
			if i != k {
				t.Fatalf("%s: visit %d was index %d", name, k, i)
			}
		}
	}
	r.Run(0, func(int) { t.Fatal("body called for n=0") })

	one := New(Procs(1))
	defer one.Close()
	forest := func() []int32 {
		rng := NewRNG(7, 0, 0)
		p := make([]int32, 50_000)
		for v := range p {
			p[v] = int32(rng.Intn(v + 1)) // parents ≤ v: an acyclic forest
		}
		return p
	}
	pn, p1 := forest(), forest()
	Compress(nil, pn)
	Compress(one, p1)
	if !slices.Equal(pn, p1) {
		t.Fatal("Compress on the nil runtime differs from one proc")
	}
	keep := func(i int) bool { return i%3 == 0 || pn[i] == int32(i) }
	if a, b := CompactIndices(nil, len(pn), keep), CompactIndices(one, len(pn), keep); !slices.Equal(a, b) {
		t.Fatalf("CompactIndices: nil runtime kept %d indices, one proc %d", len(a), len(b))
	}
}

func TestRunCoarseSpreadsSmallTaskCounts(t *testing.T) {
	// Regression: Compact's per-block passes hand the runtime a handful of
	// coarse tasks; routed through Run they would be folded into one
	// grain-sized chunk and serialize.  RunCoarse must overlap them.
	r := New(Procs(4), Grain(2048))
	defer r.Close()
	var inFlight, maxSeen int32
	r.RunCoarse(8, func(i int) {
		cur := atomic.AddInt32(&inFlight, 1)
		for {
			old := atomic.LoadInt32(&maxSeen)
			if cur <= old || atomic.CompareAndSwapInt32(&maxSeen, old, cur) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond) // let other workers claim tasks
		atomic.AddInt32(&inFlight, -1)
	})
	if maxSeen < 2 {
		t.Fatalf("coarse tasks never overlapped (max concurrency %d)", maxSeen)
	}
}

func TestCloseIdempotent(t *testing.T) {
	r := New(Procs(4))
	r.Close()
	r.Close()
}

func TestProcsReported(t *testing.T) {
	r := New(Procs(3))
	defer r.Close()
	if r.Procs() != 3 {
		t.Fatalf("procs = %d", r.Procs())
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	a := NewRNG(1, 1, 0)
	b := NewRNG(1, 1, 1)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("%d collisions between adjacent chunk streams", same)
	}
	if f := NewRNG(9, 9, 9).Float64(); f < 0 || f >= 1 {
		t.Fatalf("Float64 out of range: %v", f)
	}
	if n := NewRNG(3, 1, 4).Intn(10); n < 0 || n >= 10 {
		t.Fatalf("Intn out of range: %d", n)
	}
}
