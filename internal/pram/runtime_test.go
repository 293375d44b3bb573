package pram_test

import (
	"sync/atomic"
	"testing"

	"parcc/internal/pram"
	"parcc/internal/pram/pramtest"
)

// These tests run loops larger than the runtime's grain, so their bodies
// are spread across the pool's goroutines.

func TestForCoversAllIndices(t *testing.T) {
	for _, procs := range []int{1, 2, 7} {
		m := pramtest.New(t, procs, pram.Grain(8))
		n := 10000
		hit := make([]int32, n)
		m.For(n, func(i int) { atomic.AddInt32(&hit[i], 1) })
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("procs=%d: index %d executed %d times", procs, i, h)
			}
		}
	}
}

func TestMax64Concurrent(t *testing.T) {
	m := pramtest.New(t, 8, pram.Grain(16))
	a := make([]int64, 1)
	m.For(10000, func(i int) { pram.Max64(a, 0, int64(i)) })
	if a[0] != 9999 {
		t.Errorf("concurrent max = %d, want 9999", a[0])
	}
}
