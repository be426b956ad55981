package transport

import (
	"errors"
	"testing"

	"ldp/internal/freq"
	"ldp/internal/pipeline"
	"ldp/internal/rangequery"
	"ldp/internal/rng"
	"ldp/internal/schema"
)

// rangeFixture builds a range-only pipeline over two numeric attributes.
func rangeFixture(t *testing.T) (*schema.Schema, *pipeline.Pipeline) {
	t.Helper()
	s, err := schema.New(
		schema.Attribute{Name: "age", Kind: schema.Numeric},
		schema.Attribute{Name: "income", Kind: schema.Numeric},
	)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.New(s, 1,
		pipeline.WithRange(rangequery.Config{Buckets: 32, GridCells: 4}),
		pipeline.WithTaskWeight(pipeline.TaskMean, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

func TestRangeReportRoundTrip(t *testing.T) {
	s, p := rangeFixture(t)
	r := rng.New(3)
	tp := schema.NewTuple(s)
	tp.Num[0], tp.Num[1] = 0.3, -0.6
	for i := 0; i < 50; i++ {
		rep, err := p.Randomize(tp, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeEnvelope(mustEnvelope(t, rep))
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if got.Task != pipeline.TaskRange || !pipelineReportsEqual(got, rep) {
			t.Fatalf("round trip mismatch: got %+v, want %+v", got.Range, rep.Range)
		}
	}
}

func TestRangeReportGRRRoundTrip(t *testing.T) {
	rep := pipeline.Report{Task: pipeline.TaskRange, Range: rangequery.Report{
		Kind: rangequery.KindHier, Attr: 1, Depth: 3, Resp: freq.Response{Value: 5},
	}}
	got, err := DecodeEnvelope(mustEnvelope(t, rep))
	if err != nil {
		t.Fatal(err)
	}
	if got.Range.Kind != rangequery.KindHier || got.Range.Attr != 1 || got.Range.Depth != 3 ||
		got.Range.Resp.Value != 5 || got.Range.Resp.Bits != nil {
		t.Fatalf("got %+v", got.Range)
	}
}

// TestDecodeRangeEnvelopeRejectsCorruption covers the range body decoder:
// framing damage and every malformed body shape come back as errors.
func TestDecodeRangeEnvelopeRejectsCorruption(t *testing.T) {
	frame := mustEnvelope(t, pipeline.Report{Task: pipeline.TaskRange, Range: rangequery.Report{
		Kind: rangequery.KindGrid, Pair: 2, Resp: freq.Response{Value: 7},
	}})
	if _, err := DecodeEnvelope(frame[:5]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated frame: got %v, want ErrTruncated", err)
	}
	flip := append([]byte(nil), frame...)
	flip[len(flip)-5] ^= 0xff // corrupt payload, keep length
	if _, err := DecodeEnvelope(flip); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("corrupt payload: got %v, want ErrBadChecksum", err)
	}
	for name, body := range map[string][]byte{
		"empty body":         {},
		"unknown kind":       {9, 0, respValue, 1},
		"cut hier header":    {rangeKindHier, 0},
		"huge depth":         {rangeKindHier, 0, 65, respValue, 1},
		"cut grid header":    {rangeKindGrid},
		"no response":        {rangeKindGrid, 0},
		"unknown response":   {rangeKindGrid, 0, 7, 1},
		"cut bitset":         {rangeKindGrid, 0, respBits, 2, 1, 2, 3},
		"trailing bytes":     {rangeKindGrid, 0, respValue, 1, 0},
		"value out of range": {rangeKindGrid, 0, respValue, 0x80, 0x80, 0x80, 0x10},
	} {
		if _, err := DecodeEnvelope(envelopeFrame(append([]byte{envTaskRange}, body...))); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// TestCraftedShortBitsetRejectedByAggregator covers the decode->Add seam:
// a well-formed frame whose bitset does not match the claimed depth's
// domain decodes fine but must be rejected (not panic) by the aggregator.
// The degenerate zero-word bitset is rejected one layer earlier, at the
// wire boundary (the columnar batch could not represent it faithfully).
func TestCraftedShortBitsetRejectedByAggregator(t *testing.T) {
	_, p := rangeFixture(t)
	crafted := mustEnvelope(t, pipeline.Report{Task: pipeline.TaskRange, Range: rangequery.Report{
		Kind:  rangequery.KindHier,
		Attr:  0,
		Depth: 1,
		Resp:  freq.Response{Bits: freq.NewBitset(128)}, // 2 words; depth 1 wants 1
	}})
	rep, err := DecodeEnvelope(crafted)
	if err != nil {
		t.Fatalf("crafted frame should decode at the wire layer: %v", err)
	}
	if err := p.Add(rep); err == nil {
		t.Fatal("aggregator accepted a bitset wider than the depth's domain")
	}

	zeroWords := mustEnvelope(t, pipeline.Report{Task: pipeline.TaskRange, Range: rangequery.Report{
		Kind:  rangequery.KindHier,
		Attr:  0,
		Depth: 1,
		Resp:  freq.Response{Bits: freq.NewBitset(0)},
	}})
	if _, err := DecodeEnvelope(zeroWords); err == nil {
		t.Fatal("wire layer accepted a zero-word bitset response")
	}
}

// TestReplayRange: replaying a log of range frames rebuilds range answers
// exactly.
func TestReplayRange(t *testing.T) {
	s, p := rangeFixture(t)
	var frames [][]byte
	r := rng.New(4)
	for i := 0; i < 100; i++ {
		tp := schema.NewTuple(s)
		tp.Num[0], tp.Num[1] = rng.Uniform(r, -1, 1), rng.Uniform(r, -1, 1)
		rep, err := p.Randomize(tp, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Add(rep); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, mustEnvelope(t, rep))
	}
	_, fresh := rangeFixture(t)
	n, err := ReplayPipeline(fresh, func(fn func([]byte) error) error {
		for _, f := range frames {
			if err := fn(f); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 || fresh.N() != 100 {
		t.Errorf("replayed %d frames into N=%d, want 100/100", n, fresh.N())
	}
	for _, q := range []pipeline.RangeQuery{
		{Attr: "age", Lo: -0.5, Hi: 0.5},
		{Attr: "age", Lo: -1, Hi: 0, Attr2: "income", Lo2: 0, Hi2: 1},
	} {
		want, err := p.Snapshot().Range(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fresh.Snapshot().Range(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%+v: replayed %v, original %v", q, got, want)
		}
	}
}
