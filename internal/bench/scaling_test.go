package bench

import (
	"fmt"
	"math/bits"
	"testing"
	"time"

	"parcc"
	"parcc/internal/graph/gen"
)

// BenchmarkFLSScaling is the linear-work check in wall clock: one-shot FLS
// (the library default, concurrent backend) on gnm-sparse (m = 2n) at three
// sizes a doubling apart.  Each iteration solves every size once; the
// metrics are ns/edge per size and the growth of the per-call time per
// doubling of m (2.0 is exactly linear).  Ungated: the figures are read,
// not asserted, because wall clock on a shared host is too noisy to gate.
func BenchmarkFLSScaling(b *testing.B) {
	sizes := []int{1 << 14, 1 << 15, 1 << 16}
	graphs := make([]*parcc.Graph, len(sizes))
	for i, n := range sizes {
		graphs[i] = gen.GNM(n, 2*n, 1)
	}
	opts := &parcc.Options{Backend: parcc.BackendConcurrent}
	total := make([]time.Duration, len(sizes))
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i, g := range graphs {
			start := time.Now()
			if _, err := parcc.ConnectedComponents(g, opts); err != nil {
				b.Fatal(err)
			}
			total[i] += time.Since(start)
		}
	}
	var worst float64
	for i, n := range sizes {
		perCall := float64(total[i].Nanoseconds()) / float64(b.N)
		b.ReportMetric(perCall/float64(graphs[i].M()), fmt.Sprintf("ns/edge@2^%d", bits.Len(uint(n))-1))
		if i > 0 {
			growth := perCall / (float64(total[i-1].Nanoseconds()) / float64(b.N))
			worst = max(worst, growth)
		}
	}
	b.ReportMetric(worst, "x/doubling-max")
}
