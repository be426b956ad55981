package transport

import (
	"testing"

	"ldp/internal/pipeline"
	"ldp/internal/rng"
)

// benchEnvelopeBody builds a batch-upload body of n unified report frames
// from a mean+freq pipeline.
func benchEnvelopeBody(b *testing.B, n int) ([]byte, *pipeline.Pipeline) {
	b.Helper()
	p, err := pipeline.New(pipelineSchema(b), 1)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(11)
	var body []byte
	for i := 0; i < n; i++ {
		rep, err := p.Randomize(randomTuple(p.Schema(), r), r)
		if err != nil {
			b.Fatal(err)
		}
		body, err = AppendEnvelope(body, rep)
		if err != nil {
			b.Fatal(err)
		}
	}
	return body, p
}

// BenchmarkAppendEnvelope measures encoding into a reused buffer: the
// client-side batch assembly path. Steady state reports 0 allocs/op.
func BenchmarkAppendEnvelope(b *testing.B) {
	p, err := pipeline.New(pipelineSchema(b), 1)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(13)
	rep, err := p.Randomize(randomTuple(p.Schema(), r), r)
	if err != nil {
		b.Fatal(err)
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendEnvelope(buf[:0], rep)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeEnvelope measures the materializing per-frame decoder
// (one Report struct and bitset per frame), the contrast to DecodeBatch.
func BenchmarkDecodeEnvelope(b *testing.B) {
	body, _ := benchEnvelopeBody(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeEnvelope(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeBatch measures the columnar batch decoder over a
// 1024-frame body with a reused batch: the server-side ingest path.
// Steady state reports 0 allocs/op — 0 allocs/report.
func BenchmarkDecodeBatch(b *testing.B) {
	const frames = 1024
	body, _ := benchEnvelopeBody(b, frames)
	batch := pipeline.NewReportBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Reset()
		if n, err := DecodeBatch(body, batch); err != nil || n != frames {
			b.Fatalf("n=%d err=%v", n, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames), "ns/report")
}

// BenchmarkDecodeBatchFold measures the full server-side steady state:
// decode a 1024-frame body into a pooled batch and fold it into a sharded
// pipeline. Steady state reports 0 allocs/op.
func BenchmarkDecodeBatchFold(b *testing.B) {
	const frames = 1024
	body, _ := benchEnvelopeBody(b, frames)
	p, err := pipeline.New(pipelineSchema(b), 1, pipeline.WithShards(4))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := pipeline.GetBatch()
		if n, err := DecodeBatch(body, batch); err != nil || n != frames {
			b.Fatalf("n=%d err=%v", n, err)
		}
		if err := p.AddBatch(batch); err != nil {
			b.Fatal(err)
		}
		pipeline.PutBatch(batch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames), "ns/report")
}
