package main

import (
	"math/rand/v2"
	"time"
)

// The reference job prices the machine while a run measures the program.
// On a shared VM the same code reads 20-50% slower or faster from one run
// to the next, and by 10-30% from one second to the next within a run, as
// neighbours come and go; absolute times are reported too, but the gated
// end-to-end timings are expressed in reference operations: each timed
// batch (a pass of solves, a rate segment, one cold call) is divided by
// what one element-step of the reference job cost in the sample taken
// right after it.  The job is the benchmark's own sequential union-find
// (path halving, union by index) over a fixed pseudo-random graph in a
// freshly allocated parent array, so it is memory-bound and faults its
// pages in like the program's cold paths do, and it shares no code with
// the program: a slower program moves the ratio, a slower machine moves
// both sides of it.
const (
	refN    = 1 << 18
	refM    = 1 << 18
	refSeed = 0x2545F4914F6CDD1D // fixed: the job is the same in every run
)

type reference struct {
	edges [][2]int32
	ns    []float64 // per-sample cost of one element-step, ns
	sink  int32
}

func newReference() *reference {
	rng := rand.New(rand.NewPCG(refSeed, refSeed))
	r := &reference{edges: make([][2]int32, refM)}
	for i := range r.edges {
		r.edges[i] = [2]int32{int32(rng.IntN(refN)), int32(rng.IntN(refN))}
	}
	return r
}

// sample runs the job once, records it, and returns what one element-step
// (one vertex or edge) cost, in ns.
func (r *reference) sample() float64 {
	start := time.Now()
	parent := make([]int32, refN)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range r.edges {
		a, b := find(e[0]), find(e[1])
		if a < b {
			parent[b] = a
		} else if b < a {
			parent[a] = b
		}
	}
	r.sink += find(refN - 1)
	per := float64(time.Since(start).Nanoseconds()) / float64(refN+refM)
	r.ns = append(r.ns, per)
	return per
}

// nsPerOp is the median cost of one element-step over the run's samples.
func (r *reference) nsPerOp() float64 {
	return quantile(r.ns, 0.5)
}
