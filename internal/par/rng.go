package par

import "parcc/internal/splitmix"

// RNG is a deterministic SplitMix64 stream.  ForChunks hands each chunk its
// own stream seeded from (runtime seed, loop epoch, chunk index), which is
// what keeps randomized kernels reproducible under dynamic scheduling: the
// draws a chunk sees do not depend on which worker claims it or on how many
// procs the loop runs with.
type RNG struct{ st splitmix.Stream }

// NewRNG returns the stream for the given (seed, epoch, chunk) triple.
func NewRNG(seed, epoch, chunk uint64) *RNG {
	return &RNG{splitmix.NewStream(splitmix.Mix(seed ^ epoch*splitmix.Gamma ^ chunk*splitmix.M1))}
}

// Uint64 returns the next 64 pseudo-random bits.
func (g *RNG) Uint64() uint64 {
	return g.st.Next()
}

// Intn returns a pseudo-random int in [0,n).  n must be positive and fit
// in 32 bits.  Range reduction is the multiply-shift of Lemire (the bias
// is ≤ n/2³² — irrelevant for sampling) rather than a modulo: the hot
// kernels draw one index per vertex, and a hardware division per draw is
// the difference between a sampling round costing more than the edge pass
// it is supposed to save.
func (g *RNG) Intn(n int) int {
	return int((g.Uint64() >> 32) * uint64(n) >> 32)
}

// Float64 returns a pseudo-random float64 in [0,1).
func (g *RNG) Float64() float64 {
	return float64(g.Uint64()>>11) / (1 << 53)
}

// Coin reports a Bernoulli draw with success probability p64/2^64 (the same
// fixed-point convention as splitmix.P64).
func (g *RNG) Coin(p64 uint64) bool {
	return g.Uint64() < p64
}
