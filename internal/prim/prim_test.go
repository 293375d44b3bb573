package prim

import (
	"testing"
	"testing/quick"

	"parcc/internal/graph"
	"parcc/internal/pram/pramtest"
)

func TestLogStar(t *testing.T) {
	cases := map[int]int64{0: 0, 1: 0, 2: 1, 4: 2, 16: 3, 65536: 4}
	for n, want := range cases {
		if got := LogStar(n); got != want {
			t.Errorf("LogStar(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int64{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := Log2Ceil(n); got != want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestLogLogFamilies(t *testing.T) {
	if LogLog(2) < 1 || LogLogLog(2) < 1 {
		t.Error("iterated logs must be at least 1")
	}
	if LogLog(1<<16) != 4 {
		t.Errorf("LogLog(2^16) = %d, want 4", LogLog(1<<16))
	}
	if LogLog(1<<20) > LogLog(1<<40) {
		t.Error("LogLog must be monotone")
	}
}

func TestCompactIndices(t *testing.T) {
	m := pramtest.New(t, 0)
	got := CompactIndices(m, 10, func(i int) bool { return i%3 == 0 })
	want := []int32{0, 3, 6, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestCompactIndicesLargeParallel(t *testing.T) {
	m := pramtest.New(t, 4)
	n := 1 << 15
	got := CompactIndices(m, n, func(i int) bool { return i%7 == 0 })
	if len(got) != (n+6)/7 {
		t.Fatalf("kept %d, want %d", len(got), (n+6)/7)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatal("compacted indices must be strictly increasing")
		}
	}
}

func TestCompactChargesContract(t *testing.T) {
	m := pramtest.New(t, 0)
	CompactIndices(m, 1000, func(int) bool { return true })
	if m.Work() != 1000 {
		t.Errorf("work = %d, want 1000 (the contract)", m.Work())
	}
	if m.Steps() != LogStar(1000)+1 {
		t.Errorf("steps = %d, want %d", m.Steps(), LogStar(1000)+1)
	}
}

func TestHashInRange(t *testing.T) {
	f := func(seed uint64, x int32) bool {
		h := NewHash(seed, 97)
		v := h.Apply(x)
		return v >= 0 && v < 97
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashDeterministic(t *testing.T) {
	h1 := NewHash(5, 64)
	h2 := NewHash(5, 64)
	for x := int32(0); x < 100; x++ {
		if h1.Apply(x) != h2.Apply(x) {
			t.Fatal("hash not deterministic")
		}
	}
}

func TestHashZeroSize(t *testing.T) {
	h := NewHash(1, 0)
	if h.Apply(5) != 0 {
		t.Error("size-0 hash should clamp to size 1")
	}
}

func TestDedupPairs(t *testing.T) {
	m := pramtest.New(t, 0)
	var keys []int64
	for _, e := range []graph.Edge{{U: 1, V: 2}, {U: 2, V: 1}, {U: 3, V: 3}, {U: 4, V: 5}, {U: 1, V: 2}} {
		keys = append(keys, e.CanonKey())
	}
	out := DedupPairs(m, keys, true)
	if len(out) != 2 {
		t.Fatalf("dedup kept %d keys, want 2 (loop dropped, duplicates merged)", len(out))
	}
}

func TestDedupPairsKeepLoops(t *testing.T) {
	m := pramtest.New(t, 0)
	loop := graph.Edge{U: 3, V: 3}.CanonKey()
	keys := []int64{loop, loop}
	out := DedupPairs(m, keys, false)
	if len(out) != 1 {
		t.Fatalf("dedup kept %d, want 1 loop", len(out))
	}
}

func TestPackUnpackEdge(t *testing.T) {
	f := func(u, v int32) bool {
		if u < 0 {
			u = -u
		}
		if v < 0 {
			v = -v
		}
		a, b := UnpackEdge(graph.Edge{U: u, V: v}.CanonKey())
		lo, hi := u, v
		if lo > hi {
			lo, hi = hi, lo
		}
		return a == lo && b == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
