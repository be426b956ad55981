package pipeline

import (
	"fmt"
	"testing"

	"ldp/internal/dataset"
	"ldp/internal/rangequery"
	"ldp/internal/rng"
	"ldp/internal/telemetry"
)

// benchReports pre-randomizes n reports so only the aggregation side is on
// the clock.
func benchReports(b *testing.B, p *Pipeline, n int) []Report {
	b.Helper()
	r := rng.New(7)
	reps := make([]Report, n)
	for i := range reps {
		rep, err := p.Randomize(sampleTuple(p.Schema(), r), r)
		if err != nil {
			b.Fatal(err)
		}
		reps[i] = rep
	}
	return reps
}

// BenchmarkPipelineAdd measures Add: one report copied into a pooled
// batch, validated and folded as a one-report AddBatch. No served path
// folds single reports, but the steady state must still report 0
// allocs/op (the CI allocation guard runs it).
func BenchmarkPipelineAdd(b *testing.B) {
	p, err := New(testSchema(b), 1, WithShards(4))
	if err != nil {
		b.Fatal(err)
	}
	reps := benchReports(b, p, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Add(reps[i%len(reps)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineAddBR measures Add on the 16-attribute BR census
// schema — the server's configuration — so the per-report copy, check
// and fold are benchmarked at production width, not just on the
// 3-attribute test schema.
func BenchmarkPipelineAddBR(b *testing.B) {
	c := dataset.NewBR()
	p, err := New(c.Schema(), 1, WithShards(1))
	if err != nil {
		b.Fatal(err)
	}
	reps := make([]Report, 4096)
	for i := range reps {
		r := rng.NewStream(1, uint64(i))
		rep, err := p.Randomize(c.Tuple(r), r)
		if err != nil {
			b.Fatal(err)
		}
		reps[i] = rep
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Add(reps[i%len(reps)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineAddBatch measures the columnar batch fold at the
// batch-size axis of the ingest benchmark. One op folds one whole batch;
// steady state must report 0 allocs/op — and therefore 0 allocs/report.
func BenchmarkPipelineAddBatch(b *testing.B) {
	for _, bs := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("size%d", bs), func(b *testing.B) {
			p, err := New(testSchema(b), 1, WithShards(4))
			if err != nil {
				b.Fatal(err)
			}
			batch := NewReportBatch()
			for _, rep := range benchReports(b, p, bs) {
				batch.Append(rep)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.AddBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bs), "ns/report")
		})
	}
}

// BenchmarkPipelineAddBatchRange measures the batch fold of the served
// configuration: BR at eps 1 with the range task registered (default
// 256 buckets, 8x8 grids), so about a third of the reports fold into a
// hierarchy level or grid column. One op folds one pre-randomized
// 64-report batch; the CI allocation guard holds it to 0 allocs/op.
func BenchmarkPipelineAddBatchRange(b *testing.B) {
	const bs = 64
	c := dataset.NewBR()
	p, err := New(c.Schema(), 1, WithRange(rangequery.Config{}))
	if err != nil {
		b.Fatal(err)
	}
	batches := make([]*ReportBatch, 64)
	for i := range batches {
		batches[i] = NewReportBatch()
		for j := 0; j < bs; j++ {
			r := rng.NewStream(3, uint64(i*bs+j))
			rep, err := p.Randomize(c.Tuple(r), r)
			if err != nil {
				b.Fatal(err)
			}
			batches[i].Append(rep)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.AddBatch(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bs), "ns/report")
}

// BenchmarkStateSnapshot measures StateSnapshot, the export every edge
// push of a fan-in tier runs: BR at eps 1 with 2 shards holding 16,384
// reports, over a small (256 buckets, 8x8 grids) and a large (4096
// buckets, 32x32 grids) range domain.
func BenchmarkStateSnapshot(b *testing.B) {
	for _, dom := range []struct{ buckets, cells int }{{256, 8}, {4096, 32}} {
		b.Run(fmt.Sprintf("B%d_g%d", dom.buckets, dom.cells), func(b *testing.B) {
			c := dataset.NewBR()
			p, err := New(c.Schema(), 1, WithShards(2),
				WithRange(rangequery.Config{Buckets: dom.buckets, GridCells: dom.cells}))
			if err != nil {
				b.Fatal(err)
			}
			batch := NewReportBatch()
			for i := 0; i < 16384; i++ {
				r := rng.NewStream(4, uint64(i))
				rep, err := p.Randomize(c.Tuple(r), r)
				if err != nil {
					b.Fatal(err)
				}
				batch.Append(rep)
			}
			if err := p.AddBatch(batch); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if st := p.StateSnapshot(); st.Total() != 16384 {
					b.Fatalf("snapshot holds %d reports, want 16384", st.Total())
				}
			}
		})
	}
}

// BenchmarkBatchAppend measures building a batch from materialized
// reports (the bench harness path; the server decodes wire frames into
// the batch directly).
func BenchmarkBatchAppend(b *testing.B) {
	p, err := New(testSchema(b), 1)
	if err != nil {
		b.Fatal(err)
	}
	reps := benchReports(b, p, 1024)
	batch := NewReportBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Reset()
		for _, rep := range reps {
			batch.Append(rep)
		}
	}
}

// benchQueryPipeline builds an ingested pipeline with every query
// surface for the query-path benchmarks.
func benchQueryPipeline(b *testing.B, opts ...Option) *Pipeline {
	b.Helper()
	p, err := New(testSchema(b), 2, append([]Option{WithShards(4),
		WithRange(rangequery.Config{Buckets: 64, GridCells: 4})}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	batch := NewReportBatch()
	for _, rep := range benchReports(b, p, 4096) {
		batch.Append(rep)
	}
	if err := p.AddBatch(batch); err != nil {
		b.Fatal(err)
	}
	return p
}

// queryOnce runs one dashboard-shaped query mix (a mean, a frequency
// histogram, a 1-D range, and a 2-D range) against a result.
func queryOnce(b *testing.B, res *Result) float64 {
	m, err := res.Mean("age")
	if err != nil {
		b.Fatal(err)
	}
	fr, err := res.FreqView("gender")
	if err != nil {
		b.Fatal(err)
	}
	mass1, err := res.Range(RangeQuery{Attr: "age", Lo: -0.5, Hi: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	mass2, err := res.Range(RangeQuery{Attr: "age", Lo: -0.5, Hi: 0.5, Attr2: "income", Lo2: 0, Hi2: 1})
	if err != nil {
		b.Fatal(err)
	}
	return m + fr[0] + mass1 + mass2
}

// BenchmarkQueryCached measures the cached-hit query path: View() plus
// the dashboard query mix against an unchanged watermark. This is the
// steady state of a dashboard-heavy server, and it must stay lock-free
// and allocation-free — the CI allocation guard fails on any alloc/op.
func BenchmarkQueryCached(b *testing.B) {
	p := benchQueryPipeline(b)
	sink := queryOnce(b, p.View()) // warm the view and its memoized paths
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += queryOnce(b, p.View())
	}
	_ = sink
}

// BenchmarkQuerySnapshot measures the uncached baseline the view cache
// replaces: a full Snapshot rebuild per query, the cost every /v1/query
// request paid before the epoch cache.
func BenchmarkQuerySnapshot(b *testing.B) {
	p := benchQueryPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += queryOnce(b, p.Snapshot())
	}
	_ = sink
}

// BenchmarkViewRefreshIncremental measures the sustained view-refresh
// path under ingest: every iteration folds one report and rebuilds the
// view, so each View() call is an incremental rebuild over a delta of
// exactly one report. This is the cold-query cliff the delta-proportional
// builder removes — the per-refresh cost must track the delta, not the
// domain, and the CI allocation guard bounds it to a small constant
// number of allocations (the fresh Result shell, the copied counts of
// the dirty slot, and the estimates the reads derive), independent of
// domain size.
func BenchmarkViewRefreshIncremental(b *testing.B) {
	p := benchQueryPipeline(b)
	reps := benchReports(b, p, 256)
	sink := queryOnce(b, p.View()) // cold full build outside the loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Add(reps[i%len(reps)]); err != nil {
			b.Fatal(err)
		}
		sink += queryOnce(b, p.View())
	}
	_ = sink
}

// BenchmarkDashboardRefresh replays perfbench's dashboard op in process,
// without HTTP: BR at eps 1 with a 4096-bucket range domain, 32x32 grids
// and 2 shards. Each op folds a pre-randomized 16-report batch, calls
// View (an incremental rebuild, the preload being past the crossover) and
// makes the refresh's four reads: every mean, the region histogram, the
// age 1-D range and the age x income 2-D range. It measures the view
// rebuild and the derivations the reads trigger.
func BenchmarkDashboardRefresh(b *testing.B) {
	c := dataset.NewBR()
	p, err := New(c.Schema(), 1, WithShards(2), WithRange(rangequery.Config{Buckets: 4096, GridCells: 32}))
	if err != nil {
		b.Fatal(err)
	}
	const perOp = 16
	batches := make([]*ReportBatch, 256)
	for i := range batches {
		batches[i] = NewReportBatch()
		for j := 0; j < perOp; j++ {
			r := rng.NewStream(2, uint64(i*perOp+j))
			rep, err := p.Randomize(c.Tuple(r), r)
			if err != nil {
				b.Fatal(err)
			}
			batches[i].Append(rep)
		}
		if err := p.AddBatch(batches[i]); err != nil {
			b.Fatal(err)
		}
	}
	p.View()
	one := RangeQuery{Attr: "age", Lo: -0.5, Hi: 0.25}
	two := RangeQuery{Attr: "age", Lo: -0.5, Hi: 0.5, Attr2: "income", Lo2: -1, Hi2: 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.AddBatch(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
		res := p.View()
		res.Means()
		if _, err := res.FreqView("region"); err != nil {
			b.Fatal(err)
		}
		if _, err := res.Range(one); err != nil {
			b.Fatal(err)
		}
		if _, err := res.Range(two); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddBatchInstrumented is BenchmarkPipelineAddBatch/size1024
// with a live telemetry registry wired in: the CI allocation guard holds
// it to 0 allocs/op, proving instrumentation does not reintroduce
// allocation on the batch ingest path, and its ns/report stands next to
// BenchmarkPipelineAddBatch/size1024's.
func BenchmarkAddBatchInstrumented(b *testing.B) {
	const bs = 1024
	p, err := New(testSchema(b), 1, WithShards(4), WithTelemetry(telemetry.NewRegistry()))
	if err != nil {
		b.Fatal(err)
	}
	batch := NewReportBatch()
	for _, rep := range benchReports(b, p, bs) {
		batch.Append(rep)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.AddBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bs), "ns/report")
}

// BenchmarkQueryCachedInstrumented is BenchmarkQueryCached with a live
// telemetry registry: the cached-hit path gains exactly one counter add
// (the view-hit counter) and must stay at 0 allocs/op.
func BenchmarkQueryCachedInstrumented(b *testing.B) {
	p := benchQueryPipeline(b, WithTelemetry(telemetry.NewRegistry()))
	sink := queryOnce(b, p.View())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += queryOnce(b, p.View())
	}
	_ = sink
}

// BenchmarkGradientAddBatch measures gradient-report ingest through the
// trainer: the steady-state fold is flat array arithmetic under one lock
// acquisition per batch; allocation happens only on a round advance
// (2 small objects per round), so with a group far larger than the batch
// the loop reports 0 allocs/op.
func BenchmarkGradientAddBatch(b *testing.B) {
	p, err := New(testSchema(b), 5, WithGradient(GradientConfig{
		Dim: 90, Rounds: 1 << 20, GroupSize: 1 << 30,
		Eta: 1, Lambda: 1e-4, Mechanism: identityFactory,
	}))
	if err != nil {
		b.Fatal(err)
	}
	const size = 1024
	grad := make([]float64, 90)
	for j := range grad {
		grad[j] = 0.5
	}
	batch := NewReportBatch()
	r := rng.New(3)
	for i := 0; i < size; i++ {
		rep, err := p.GradientTask().RandomizeGradient(0, grad, r)
		if err != nil {
			b.Fatal(err)
		}
		batch.Append(rep)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.AddBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/report")
}
