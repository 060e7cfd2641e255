package join

import (
	"fmt"
	"testing"

	"treesim/internal/datagen"
)

// BenchmarkSelfJoin measures a whole self-join — every pair through the
// filter cascade, the survivors verified — on range_scan's tree shape (the
// paper's default spec, clusters of ten), reporting the pairs the filter
// let through.
func BenchmarkSelfJoin(b *testing.B) {
	spec := datagen.Spec{FanoutMean: 4, FanoutStd: 0.5, SizeMean: 50, SizeStd: 2, Labels: 8, Decay: 0.05}
	for _, n := range []int{1000, 2000} {
		ts := datagen.New(spec, 5).Dataset(n, n/10)
		for _, tau := range []int{2, 5} {
			b.Run(fmt.Sprintf("n=%d/tau=%d", n, tau), func(b *testing.B) {
				var st Stats
				for i := 0; i < b.N; i++ {
					_, st = SelfJoin(ts, tau, Options{})
				}
				b.ReportMetric(float64(st.Verified), "verified")
				b.ReportMetric(float64(st.Results), "results")
			})
		}
	}
}
