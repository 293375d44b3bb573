package splitmix

import "testing"

// TestStreamMatchesReference pins the stream to the reference SplitMix64
// outputs for seed 0 (the first three words of Vigna's splitmix64.c), so a
// change to Gamma, the multipliers or the shifts fails here and not as a
// drift of every generated graph.
func TestStreamMatchesReference(t *testing.T) {
	r := NewStream(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := r.Next(); got != want {
			t.Fatalf("draw %d = %#x, want %#x", i, got, want)
		}
	}
	if Hash(0) != 0xe220a8397b1dcdaf {
		t.Fatalf("Hash(0) = %#x, want the stream's first draw", Hash(0))
	}
}
