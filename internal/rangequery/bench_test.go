package rangequery

import (
	"math"
	"sync"
	"testing"

	"ldp/internal/freq"
	"ldp/internal/rng"
)

// The benchmarks compare the two ways of answering 1-D range queries over
// a B=256 bucket domain at eps=1 with n=100k users: the hierarchical
// interval oracle (every user reports one dyadic depth; queries sum at
// most 2*log2(B) = 16 node estimates from a frozen view) against the flat
// baseline (every user reports their leaf bucket through OUE over all 256
// values; queries sum up to 256 leaf estimates). Each benchmark reports
// the empirical MSE over the query workload as an extra metric, so `go
// test -bench Range256` shows the accuracy and throughput sides of the
// trade in one table.

const (
	benchBuckets = 256
	benchEps     = 1.0
	benchUsers   = 100_000
)

type benchState struct {
	view    *HierView // frozen hierarchical estimates
	flat    []float64 // debiased flat leaf estimates
	truth   []float64 // empirical bucket histogram
	queries [][2]int  // inclusive bucket spans
	hierMSE float64
	flatMSE float64
}

var (
	benchOnce sync.Once
	bench     benchState
)

func setupBench(b *testing.B) *benchState {
	benchOnce.Do(func() {
		col := hierCollector(b, benchEps, benchBuckets)
		hier, hierSt := col.Hierarchy(), col.NewState()
		flatOracle, err := freq.NewOUE(benchEps, benchBuckets)
		if err != nil {
			b.Fatal(err)
		}
		flatEst := freq.NewEstimator(flatOracle)
		truth := make([]float64, benchBuckets)
		// Each protocol gets its own n-user population (same data
		// distribution, independent noise).
		for i := 0; i < benchUsers; i++ {
			r := rng.NewStream(2024, uint64(i))
			bucket := bucketOf(rng.TruncGauss(r, 0.2, 0.4, -1, 1), benchBuckets)
			truth[bucket]++
			hr := hier.Perturb(bucket, r)
			col.Fold(hierSt, Report{Kind: KindHier, Depth: hr.Depth, Resp: hr.Resp})
			flatEst.Add(flatOracle.Perturb(bucket, r))
		}
		for i := range truth {
			truth[i] /= benchUsers
		}
		// A spread of narrow, medium and wide unaligned spans.
		var queries [][2]int
		qr := rng.New(7)
		for _, width := range []int{4, 16, 64, 160, 240} {
			for q := 0; q < 8; q++ {
				lo := qr.IntN(benchBuckets - width)
				queries = append(queries, [2]int{lo, lo + width - 1})
			}
		}
		st := benchState{
			view:    col.View(hierSt).Hier(0),
			flat:    flatEst.Estimates(),
			truth:   truth,
			queries: queries,
		}
		for _, q := range queries {
			tm := spanTruth(truth, q[0], q[1])
			hm, err := st.view.SpanMass(q[0], q[1])
			if err != nil {
				b.Fatal(err)
			}
			fm := flatSpan(st.flat, q[0], q[1])
			st.hierMSE += (hm - tm) * (hm - tm)
			st.flatMSE += (fm - tm) * (fm - tm)
		}
		st.hierMSE /= float64(len(queries))
		st.flatMSE /= float64(len(queries))
		bench = st
	})
	return &bench
}

func flatSpan(est []float64, lo, hi int) float64 {
	m := 0.0
	for i := lo; i <= hi; i++ {
		m += est[i]
	}
	return math.Min(1, math.Max(0, m))
}

func BenchmarkHierRange256(b *testing.B) {
	st := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := st.queries[i%len(st.queries)]
		if _, err := st.view.SpanMass(q[0], q[1]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(st.hierMSE, "mse")
}

func BenchmarkFlatRange256(b *testing.B) {
	st := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := st.queries[i%len(st.queries)]
		flatSpan(st.flat, q[0], q[1])
	}
	b.ReportMetric(st.flatMSE, "mse")
}
