// Package splitmix is the one definition of the SplitMix64 generator
// (Steele, Lea and Flood, "Fast Splittable Pseudorandom Number
// Generators"): its finalizer, its stream, and the fixed-point coin
// probability.  The machine's and the runtime's streams, the graph
// generators and the benchmark families all draw from it, so it imports
// nothing and is importable from every layer.
package splitmix

// The SplitMix64 constants: Gamma is the golden-ratio increment of the
// stream, M1 and M2 the finalizer's multipliers.  Callers that combine
// several seed components into one state use Gamma and M1 as odd
// multipliers too.
const (
	Gamma = 0x9e3779b97f4a7c15
	M1    = 0xbf58476d1ce4e5b9
	M2    = 0x94d049bb133111eb
)

// Mix is the SplitMix64 finalizer: a bijection on 64-bit words that
// spreads every input bit over the output.
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * M1
	z = (z ^ (z >> 27)) * M2
	return z ^ (z >> 31)
}

// Hash is the first draw of the stream seeded x, Mix(x + Gamma): the
// stateless form the algorithms key their coin flips and samples with.
func Hash(x uint64) uint64 { return Mix(x + Gamma) }

// P64 converts a probability in [0,1] to the 64-bit fixed-point form the
// coins compare a draw against (a draw below P64(p) succeeds with
// probability p); out-of-range probabilities clamp.
func P64(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return ^uint64(0)
	}
	return uint64(p * float64(1<<63) * 2)
}

// Stream is a SplitMix64 stream: each Next advances the state by Gamma
// and returns its Mix.
type Stream struct{ s uint64 }

// NewStream returns the stream whose state starts at seed.
func NewStream(seed uint64) Stream { return Stream{s: seed} }

// Next returns the stream's next 64 pseudo-random bits.
func (r *Stream) Next() uint64 {
	r.s += Gamma
	return Mix(r.s)
}
