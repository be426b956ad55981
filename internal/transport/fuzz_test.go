package transport

import (
	"testing"

	"ldp/internal/freq"
	"ldp/internal/pipeline"
	"ldp/internal/rangequery"
	"ldp/internal/rng"
	"ldp/internal/schema"
)

// The decoders sit on the network boundary: every byte sequence an
// attacker can send must come back as an error, never a panic or an
// out-of-bounds read. The fuzz targets also pin the round-trip property
// for frames that do decode after mutation of valid seeds.

// FuzzDecodeReport drives the decoder of Algorithm-4 joint reports (the
// facade's DecodeReport) with the retired v1 report frames — which must
// never decode again — and with their v2 envelope equivalents, plus
// mutations of both. Whatever decodes must re-encode and decode to the
// same report.
func FuzzDecodeReport(f *testing.F) {
	// Joint reports (OUE bitsets, GRR values, numeric entries) seed the
	// corpus, first as v1 frames, then as envelopes.
	s, err := schema.New(
		schema.Attribute{Name: "x", Kind: schema.Numeric},
		schema.Attribute{Name: "c", Kind: schema.Categorical, Cardinality: 70},
	)
	if err != nil {
		f.Fatal(err)
	}
	var reps []pipeline.Report
	for _, oracle := range []freq.Factory{oueFactory, grrFactory} {
		p, err := pipeline.New(s, 8, pipeline.WithMechanism(pmFactory), pipeline.WithOracle(oracle)) // k large: all attrs sampled
		if err != nil {
			f.Fatal(err)
		}
		r := rng.New(1)
		for i := 0; i < 5; i++ {
			tup := schema.NewTuple(s)
			tup.Num[0] = rng.Uniform(r, -1, 1)
			tup.Cat[1] = r.IntN(70)
			rep, err := p.JointTask().Randomize(tup, r)
			if err != nil {
				f.Fatal(err)
			}
			reps = append(reps, rep)
			f.Add(legacyReportFrame(rep.Entries))
		}
	}
	f.Add([]byte{})
	f.Add([]byte("LDPR"))
	f.Add([]byte("LDPR\x01\x00\x00\x00\x00"))
	for _, rep := range reps {
		frame, err := EncodeEnvelope(rep)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		rep, err := DecodeEnvelope(frame)
		if err != nil {
			return
		}
		if frame[4] != wireEnvelopeVersion {
			t.Fatalf("decoded a version-%d frame", frame[4])
		}
		// Whatever decodes must re-encode and decode to the same report.
		again, err := EncodeEnvelope(rep)
		if err != nil {
			t.Fatalf("re-encode of valid report failed: %v", err)
		}
		rep2, err := DecodeEnvelope(again)
		if err != nil {
			t.Fatalf("re-decode of valid report failed: %v", err)
		}
		if !pipelineReportsEqual(rep, rep2) {
			t.Fatal("round trip changed the report")
		}
	})
}

// FuzzDecodeEnvelope drives the envelope decoder with v2 envelopes of
// every routed task tag, with both retired v1 formats (which must never
// decode), and with mutations of them. Malformed magics, version bytes,
// task tags, and payloads must come back as errors, never panics;
// whatever decodes must survive an encode/decode round trip with its task
// tag intact.
func FuzzDecodeEnvelope(f *testing.F) {
	s, err := schema.New(
		schema.Attribute{Name: "x", Kind: schema.Numeric},
		schema.Attribute{Name: "y", Kind: schema.Numeric},
		schema.Attribute{Name: "c", Kind: schema.Categorical, Cardinality: 70},
	)
	if err != nil {
		f.Fatal(err)
	}
	p, err := pipeline.New(s, 2, pipeline.WithRange(rangequery.Config{Buckets: 32, GridCells: 4}))
	if err != nil {
		f.Fatal(err)
	}
	r := rng.New(7)
	for i := 0; i < 24; i++ {
		tup := schema.NewTuple(s)
		tup.Num[0] = rng.Uniform(r, -1, 1)
		tup.Num[1] = rng.Uniform(r, -1, 1)
		tup.Cat[2] = r.IntN(70)
		rep, err := p.Randomize(tup, r)
		if err != nil {
			f.Fatal(err)
		}
		frame, err := EncodeEnvelope(rep)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	// Retired v1 seeds: report frames from the joint task and range
	// frames.
	joint, err := pipeline.New(s, 8, pipeline.WithMechanism(pmFactory))
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tup := schema.NewTuple(s)
		tup.Num[0] = rng.Uniform(r, -1, 1)
		tup.Cat[2] = r.IntN(70)
		rep, err := joint.JointTask().Randomize(tup, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(legacyReportFrame(rep.Entries))
	}
	rcol, err := rangequery.NewCollector(s, 1, rangequery.Config{Buckets: 32, GridCells: 4})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tup := schema.NewTuple(s)
		tup.Num[0] = rng.Uniform(r, -1, 1)
		tup.Num[1] = rng.Uniform(r, -1, 1)
		rep, err := rcol.Perturb(tup, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(legacyRangeFrame(rep))
	}
	f.Add([]byte{})
	f.Add([]byte("LDPR"))
	f.Add([]byte("LDPR\x02\x00\x00\x00\x00"))
	f.Add([]byte("LDPQ\x01\x00\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, frame []byte) {
		rep, err := DecodeEnvelope(frame)
		if err != nil {
			return
		}
		if string(frame[:4]) != wireMagic || frame[4] != wireEnvelopeVersion {
			t.Fatalf("decoded a %q version-%d frame", frame[:4], frame[4])
		}
		again, err := EncodeEnvelope(rep)
		if err != nil {
			t.Fatalf("re-encode of valid report failed: %v", err)
		}
		rep2, err := DecodeEnvelope(again)
		if err != nil {
			t.Fatalf("re-decode of valid report failed: %v", err)
		}
		if rep2.Task != rep.Task || len(rep2.Entries) != len(rep.Entries) {
			t.Fatalf("round trip changed report: task %v != %v, entries %d != %d",
				rep2.Task, rep.Task, len(rep2.Entries), len(rep.Entries))
		}
	})
}

// FuzzDecodeRangeReport drives the envelope decoder with range reports:
// the retired v1 range frames from two range configurations — which must
// never decode again — their v2 envelope equivalents, and mutations of
// both. Whatever decodes must re-encode and decode with its range header
// intact.
func FuzzDecodeRangeReport(f *testing.F) {
	s, err := schema.New(
		schema.Attribute{Name: "x", Kind: schema.Numeric},
		schema.Attribute{Name: "y", Kind: schema.Numeric},
	)
	if err != nil {
		f.Fatal(err)
	}
	var reps []pipeline.Report
	for _, cfg := range []rangequery.Config{
		{Buckets: 32, GridCells: 4},
		{Buckets: 16, GridCells: 2, Oracle: grrFactory},
	} {
		col, err := rangequery.NewCollector(s, 1, cfg)
		if err != nil {
			f.Fatal(err)
		}
		r := rng.New(2)
		for i := 0; i < 6; i++ {
			tup := schema.NewTuple(s)
			tup.Num[0], tup.Num[1] = rng.Uniform(r, -1, 1), rng.Uniform(r, -1, 1)
			rep, err := col.Perturb(tup, r)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(legacyRangeFrame(rep))
			reps = append(reps, pipeline.Report{Task: pipeline.TaskRange, Range: rep})
		}
	}
	f.Add([]byte{})
	f.Add([]byte("LDPQ"))
	f.Add([]byte("LDPQ\x01\x00\x00\x00\x00"))
	for _, rep := range reps {
		frame, err := EncodeEnvelope(rep)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		rep, err := DecodeEnvelope(frame)
		if err != nil {
			return
		}
		if string(frame[:4]) != wireMagic || frame[4] != wireEnvelopeVersion {
			t.Fatalf("decoded a %q version-%d frame", frame[:4], frame[4])
		}
		again, err := EncodeEnvelope(rep)
		if err != nil {
			t.Fatalf("re-encode of valid report failed: %v", err)
		}
		rep2, err := DecodeEnvelope(again)
		if err != nil {
			t.Fatalf("re-decode of valid report failed: %v", err)
		}
		if rep2.Task != rep.Task || rep2.Range.Kind != rep.Range.Kind || rep2.Range.Attr != rep.Range.Attr ||
			rep2.Range.Depth != rep.Range.Depth || rep2.Range.Pair != rep.Range.Pair {
			t.Fatalf("round trip changed header: %+v != %+v", rep2, rep)
		}
	})
}

// FuzzDecodeGradient differentially drives the gradient frame family
// through both decoders: for any body, DecodeBatch must decode exactly
// what SplitFrames+DecodeEnvelope would — same rounds, same coordinates —
// reject out-of-range round/coordinate values, and never panic. Whatever
// decodes must survive an encode/decode round trip with its round tag
// intact.
func FuzzDecodeGradient(f *testing.F) {
	s, err := schema.New(schema.Attribute{Name: "x", Kind: schema.Numeric})
	if err != nil {
		f.Fatal(err)
	}
	p, err := pipeline.New(s, 2, pipeline.WithGradient(pipeline.GradientConfig{
		Dim: 6, Rounds: 9, GroupSize: 4, Eta: 1, Lambda: 1e-4,
	}))
	if err != nil {
		f.Fatal(err)
	}
	gt := p.GradientTask()
	r := rng.New(31)
	var body []byte
	for i := 0; i < 8; i++ {
		grad := make([]float64, gt.Dim())
		for j := range grad {
			grad[j] = rng.Uniform(r, -1, 1)
		}
		rep, err := gt.RandomizeGradient(i%9, grad, r)
		if err != nil {
			f.Fatal(err)
		}
		body, err = AppendEnvelope(body, rep)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), body...))
	}
	f.Add([]byte("LDPR\x02\x02\x00\x00\x00\x05\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > MaxBatchSize {
			return
		}
		b := pipeline.NewReportBatch()
		n, err := DecodeBatch(body, b)
		if b.Len() != n {
			t.Fatalf("DecodeBatch returned %d but batch holds %d reports", n, b.Len())
		}
		off := 0
		for i := 0; i < n; i++ {
			flen, ferr := FrameLen(body[off:])
			if ferr != nil || flen > len(body)-off {
				t.Fatalf("frame %d: batch decoder accepted an unframeable prefix: %v", i, ferr)
			}
			want, derr := DecodeEnvelope(body[off : off+flen])
			if derr != nil {
				t.Fatalf("frame %d: batch decoder accepted what DecodeEnvelope rejects: %v", i, derr)
			}
			got := b.Report(i)
			if !pipelineReportsEqual(want, got) {
				t.Fatalf("frame %d decodes differently through the batch path: %+v != %+v", i, got, want)
			}
			if got.Task == pipeline.TaskGradient {
				if got.Round < 0 || got.Round > maxWireRound {
					t.Fatalf("frame %d: decoded round %d outside wire bounds", i, got.Round)
				}
				for _, e := range got.Entries {
					if e.Attr < 0 || e.Attr > maxWireAttr {
						t.Fatalf("frame %d: decoded coordinate %d outside wire bounds", i, e.Attr)
					}
				}
				// Round trip with the round tag intact.
				again, aerr := EncodeGradientReport(got)
				if aerr != nil {
					t.Fatalf("frame %d: re-encode failed: %v", i, aerr)
				}
				rep2, derr2 := DecodeEnvelope(again)
				if derr2 != nil || !pipelineReportsEqual(got, rep2) {
					t.Fatalf("frame %d: gradient round trip changed the report (%v)", i, derr2)
				}
			}
			off += flen
		}
		_ = err // a decode error past the verified prefix is expected
	})
}

// FuzzDecodeBatch differentially checks the columnar batch decoder
// against the materializing per-frame path: for any body, DecodeBatch
// must decode exactly the frames SplitFrames+DecodeEnvelope would, into
// identical reports, and keep the complete prefix when a later frame is
// malformed — without ever panicking.
func FuzzDecodeBatch(f *testing.F) {
	s, err := schema.New(
		schema.Attribute{Name: "x", Kind: schema.Numeric},
		schema.Attribute{Name: "y", Kind: schema.Numeric},
		schema.Attribute{Name: "c", Kind: schema.Categorical, Cardinality: 70},
	)
	if err != nil {
		f.Fatal(err)
	}
	p, err := pipeline.New(s, 2, pipeline.WithRange(rangequery.Config{Buckets: 32, GridCells: 4}))
	if err != nil {
		f.Fatal(err)
	}
	r := rng.New(23)
	var body []byte
	for i := 0; i < 8; i++ {
		tup := schema.NewTuple(s)
		tup.Num[0] = rng.Uniform(r, -1, 1)
		tup.Num[1] = rng.Uniform(r, -1, 1)
		tup.Cat[2] = r.IntN(70)
		rep, err := p.Randomize(tup, r)
		if err != nil {
			f.Fatal(err)
		}
		body, err = AppendEnvelope(body, rep)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), body...)) // growing multi-frame bodies
	}
	f.Add(append(append([]byte(nil), body...), body[:11]...)) // trailing partial frame
	f.Add([]byte{})
	f.Add([]byte("LDPR\x02\x04\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > MaxBatchSize {
			return
		}
		b := pipeline.NewReportBatch()
		n, err := DecodeBatch(body, b)
		if b.Len() != n {
			t.Fatalf("DecodeBatch returned %d but batch holds %d reports", n, b.Len())
		}
		frames, serr := SplitFrames(body)
		if err == nil {
			if serr != nil {
				t.Fatalf("DecodeBatch accepted a body SplitFrames rejects: %v", serr)
			}
			if n != len(frames) {
				t.Fatalf("DecodeBatch decoded %d frames, SplitFrames found %d", n, len(frames))
			}
		}
		// Every decoded report must match the materializing decoder.
		// (SplitFrames returns nothing on a truncated body, so re-slice
		// the decoded prefix by frame length instead.)
		off := 0
		for i := 0; i < n; i++ {
			flen, ferr := FrameLen(body[off:])
			if ferr != nil || flen > len(body)-off {
				t.Fatalf("frame %d: batch decoder accepted an unframeable prefix: %v", i, ferr)
			}
			want, derr := DecodeEnvelope(body[off : off+flen])
			if derr != nil {
				t.Fatalf("frame %d: batch decoder accepted what DecodeEnvelope rejects: %v", i, derr)
			}
			if !pipelineReportsEqual(want, b.Report(i)) {
				t.Fatalf("frame %d decodes differently through the batch path", i)
			}
			off += flen
		}
		// A content error (well-formed framing, bad payload) must be
		// reproducible on the failing frame.
		if err != nil && serr == nil && n < len(frames) {
			if _, derr := DecodeEnvelope(frames[n]); derr == nil {
				t.Fatalf("batch decoder rejected frame %d that DecodeEnvelope accepts: %v", n, err)
			}
		}
	})
}
