package pram

import (
	"testing"
	"testing/quick"
)

func TestForChargesTimeAndWork(t *testing.T) {
	m := New()
	m.For(100, func(int) {})
	m.For(0, func(int) {})
	m.For(50, func(int) {})
	if got := m.Steps(); got != 3 {
		t.Errorf("steps = %d, want 3", got)
	}
	if got := m.Work(); got != 150 {
		t.Errorf("work = %d, want 150", got)
	}
}

func TestForWorkChargesCustomWork(t *testing.T) {
	m := New()
	m.ForWork(100, 7, func(int) {})
	if m.Work() != 7 {
		t.Errorf("work = %d, want 7", m.Work())
	}
	if m.Steps() != 1 {
		t.Errorf("steps = %d, want 1", m.Steps())
	}
}

func TestContractSuspendsInnerCharging(t *testing.T) {
	m := New()
	m.Contract(5, 42, func() {
		m.For(1000, func(int) {})
		m.Contract(99, 99, func() {
			m.For(10, func(int) {})
		})
	})
	if m.Steps() != 5 {
		t.Errorf("steps = %d, want 5", m.Steps())
	}
	if m.Work() != 42 {
		t.Errorf("work = %d, want 42", m.Work())
	}
}

func TestReset(t *testing.T) {
	m := New()
	m.For(10, func(int) {})
	m.Reset()
	if m.Steps() != 0 || m.Work() != 0 {
		t.Errorf("after reset: steps=%d work=%d", m.Steps(), m.Work())
	}
}

func TestSequentialOrders(t *testing.T) {
	for _, ord := range []Order{Forward, Reverse, Shuffled} {
		m := New(WriteOrder(ord), Seed(3))
		n := 257
		hit := make([]bool, n)
		m.For(n, func(i int) {
			if hit[i] {
				t.Fatalf("%v: index %d executed twice", ord, i)
			}
			hit[i] = true
		})
		for i, h := range hit {
			if !h {
				t.Fatalf("%v: index %d never executed", ord, i)
			}
		}
	}
}

func TestSequentialOrderDeterminesWinner(t *testing.T) {
	cell := []int32{-1}
	run := func(ord Order) int32 {
		m := New(WriteOrder(ord))
		cell[0] = -1
		m.For(10, func(i int) { Store32(cell, 0, int32(i)) })
		return cell[0]
	}
	if got := run(Forward); got != 9 {
		t.Errorf("forward winner = %d, want 9", got)
	}
	if got := run(Reverse); got != 0 {
		t.Errorf("reverse winner = %d, want 0", got)
	}
}

func TestMax64(t *testing.T) {
	a := []int64{5}
	Max64(a, 0, 3)
	if a[0] != 5 {
		t.Errorf("Max64 lowered the value to %d", a[0])
	}
	Max64(a, 0, 9)
	if a[0] != 9 {
		t.Errorf("Max64 did not raise: %d", a[0])
	}
}

func TestMin64(t *testing.T) {
	a := []int64{5}
	Min64(a, 0, 9)
	if a[0] != 5 {
		t.Errorf("Min64 raised the value to %d", a[0])
	}
	Min64(a, 0, 2)
	if a[0] != 2 {
		t.Errorf("Min64 did not lower: %d", a[0])
	}
}

func TestP64Bounds(t *testing.T) {
	if P64(0) != 0 {
		t.Errorf("P64(0) = %d", P64(0))
	}
	if P64(1) != ^uint64(0) {
		t.Errorf("P64(1) = %d", P64(1))
	}
	if P64(-1) != 0 || P64(2) != ^uint64(0) {
		t.Error("P64 should clamp out-of-range probabilities")
	}
	half := P64(0.5)
	if half < 1<<62 || half > 3<<62 {
		t.Errorf("P64(0.5) = %d out of plausible range", half)
	}
}

func TestCoinFrequency(t *testing.T) {
	m := New(Seed(99))
	p := P64(0.25)
	hits := 0
	n := 100000
	for i := 0; i < n; i++ {
		if m.Coin(1, i, p) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if frac < 0.23 || frac > 0.27 {
		t.Errorf("coin frequency %.4f, want ≈0.25", frac)
	}
}

func TestSplitMix64Distinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 10000; i++ {
		v := SplitMix64(i)
		if seen[v] {
			t.Fatalf("collision at input %d", i)
		}
		seen[v] = true
	}
}

func TestRandDeterministic(t *testing.T) {
	m1 := New(Seed(5))
	m2 := New(Seed(5))
	if m1.Rand(7, 13) != m2.Rand(7, 13) {
		t.Error("Rand not deterministic for equal seeds")
	}
	m3 := New(Seed(6))
	if m1.Rand(7, 13) == m3.Rand(7, 13) {
		t.Error("Rand identical across different seeds")
	}
}

func TestFillAndIota(t *testing.T) {
	m := New()
	a := make([]int32, 100)
	m.Iota32(a)
	for i, v := range a {
		if v != int32(i) {
			t.Fatal("Iota32 wrong value")
		}
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	f := func(v int32) bool {
		a := []int32{0}
		Store32(a, 0, v)
		return Load32(a, 0) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(v int64) bool {
		a := []int64{0}
		Store64(a, 0, v)
		return Load64(a, 0) == v
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestAddAndFlags(t *testing.T) {
	a64 := []int64{1}
	if Add64(a64, 0, 2) != 3 {
		t.Error("Add64 wrong return")
	}
	fl := []int32{0}
	if Flag(fl, 0) {
		t.Error("flag should start clear")
	}
	SetFlag(fl, 0)
	if !Flag(fl, 0) {
		t.Error("flag should be set")
	}
}

func TestOrderString(t *testing.T) {
	if Forward.String() != "forward" || Reverse.String() != "reverse" || Shuffled.String() != "shuffled" {
		t.Error("Order.String mismatch")
	}
	if Order(9).String() == "" {
		t.Error("unknown order should still format")
	}
}
