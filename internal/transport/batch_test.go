package transport

import (
	"errors"
	"math"
	"strings"
	"testing"

	"ldp/internal/core"
	"ldp/internal/freq"
	"ldp/internal/pipeline"
)

// TestDecodeBatchEmpty: an empty body is zero frames, not an error (the
// HTTP server rejects empty uploads separately).
func TestDecodeBatchEmpty(t *testing.T) {
	b := pipeline.NewReportBatch()
	n, err := DecodeBatch(nil, b)
	if n != 0 || err != nil || b.Len() != 0 {
		t.Fatalf("DecodeBatch(nil) = %d, %v, len %d; want 0, nil, 0", n, err, b.Len())
	}
	n, err = DecodeBatch([]byte{}, b)
	if n != 0 || err != nil || b.Len() != 0 {
		t.Fatalf("DecodeBatch(empty) = %d, %v, len %d; want 0, nil, 0", n, err, b.Len())
	}
}

// TestDecodeBatchMatchesDecodeEnvelope: a batch of v2 envelopes decodes
// columnar into exactly the reports the per-frame decoder materializes.
func TestDecodeBatchMatchesDecodeEnvelope(t *testing.T) {
	p := newTestPipeline(t)
	reps := samplePipelineReports(t, p, 5)
	var body []byte
	for _, rep := range reps {
		var err error
		body, err = AppendEnvelope(body, rep)
		if err != nil {
			t.Fatal(err)
		}
	}
	b := pipeline.NewReportBatch()
	n, err := DecodeBatch(body, b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(reps) || b.Len() != len(reps) {
		t.Fatalf("decoded %d frames into %d reports, want %d", n, b.Len(), len(reps))
	}
	for i, want := range reps {
		if got := b.Report(i); !pipelineReportsEqual(want, got) {
			t.Fatalf("report %d (%v) differs from the materializing decoder", i, want.Task)
		}
	}
}

// TestDecodeBatchMixedVersions: a retired v1 frame after a v2 envelope
// fails the batch at that frame — a v1 report frame with ErrBadVersion, a
// v1 range frame with ErrBadMagic — and the batch rolls back to the
// frames decoded before it.
func TestDecodeBatchMixedVersions(t *testing.T) {
	p := newTestPipeline(t)
	reps := samplePipelineReports(t, p, 6)
	var rangeRep pipeline.Report
	for _, rep := range reps {
		if rep.Task == pipeline.TaskRange {
			rangeRep = rep
			break
		}
	}

	v2, err := EncodeEnvelope(reps[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		legacy []byte
		want   error
	}{
		{"v1 report", encodeLegacyReportFrame(t, reps), ErrBadVersion},
		{"v1 range", legacyRangeFrame(rangeRep.Range), ErrBadMagic},
	} {
		body := append(append(append([]byte(nil), v2...), tc.legacy...), v2...)
		b := pipeline.NewReportBatch()
		n, err := DecodeBatch(body, b)
		if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), "frame 1:") {
			t.Fatalf("%s: DecodeBatch error %v, want %v at frame 1", tc.name, err, tc.want)
		}
		if n != 1 || b.Len() != 1 {
			t.Fatalf("%s: kept %d frames (batch len %d), want the 1 before it", tc.name, n, b.Len())
		}
		if got := b.Report(0); !pipelineReportsEqual(reps[0], got) {
			t.Fatalf("%s: v2 frame changed through batch decode", tc.name)
		}
	}
}

// encodeLegacyReportFrame builds a v1 "LDPR" frame from the entries of the
// first entry-list report in reps.
func encodeLegacyReportFrame(t *testing.T, reps []pipeline.Report) []byte {
	t.Helper()
	for _, rep := range reps {
		if len(rep.Entries) > 0 {
			return legacyReportFrame(rep.Entries)
		}
	}
	t.Fatal("no entry-list report sampled")
	return nil
}

// TestDecodeBatchTruncatedMidBatch: a batch whose last frame is cut short
// errors but keeps every complete frame decoded before it.
func TestDecodeBatchTruncatedMidBatch(t *testing.T) {
	p := newTestPipeline(t)
	reps := samplePipelineReports(t, p, 7)[:3]
	var body []byte
	var frames [][]byte
	for _, rep := range reps {
		f, err := EncodeEnvelope(rep)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
		body = append(body, f...)
	}
	cut := body[:len(body)-3]
	b := pipeline.NewReportBatch()
	n, err := DecodeBatch(cut, b)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("DecodeBatch(truncated) error = %v, want ErrTruncated", err)
	}
	if n != 2 || b.Len() != 2 {
		t.Fatalf("kept %d frames (batch len %d), want the 2 complete ones", n, b.Len())
	}
	for i := 0; i < 2; i++ {
		if !pipelineReportsEqual(reps[i], b.Report(i)) {
			t.Fatalf("complete frame %d changed by the truncated tail", i)
		}
	}
}

// TestDecodeBatchCorruptFrameRollsBack: a frame whose payload fails its
// checksum mid-batch errors without leaving a half-decoded report behind.
func TestDecodeBatchCorruptFrameRollsBack(t *testing.T) {
	p := newTestPipeline(t)
	reps := samplePipelineReports(t, p, 8)[:2]
	f0, err := EncodeEnvelope(reps[0])
	if err != nil {
		t.Fatal(err)
	}
	f1, err := EncodeEnvelope(reps[1])
	if err != nil {
		t.Fatal(err)
	}
	body := append(append([]byte{}, f0...), f1...)
	body[len(f0)+10] ^= 0xff // corrupt frame 1's payload

	b := pipeline.NewReportBatch()
	n, err := DecodeBatch(body, b)
	if !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("DecodeBatch(corrupt) error = %v, want ErrBadChecksum", err)
	}
	if n != 1 || b.Len() != 1 {
		t.Fatalf("kept %d frames (batch len %d), want 1", n, b.Len())
	}
	if !pipelineReportsEqual(reps[0], b.Report(0)) {
		t.Fatal("frame 0 changed by the corrupt neighbor")
	}
}

// TestAddBatchMatchesAdd: folding a decoded batch produces the same
// aggregate state as folding the reports one at a time.
func TestAddBatchMatchesAdd(t *testing.T) {
	single, batched := newTestPipeline(t), newTestPipeline(t)
	reps := samplePipelineReports(t, single, 9)
	var body []byte
	for _, rep := range reps {
		if err := single.Add(rep); err != nil {
			t.Fatal(err)
		}
		var err error
		body, err = AppendEnvelope(body, rep)
		if err != nil {
			t.Fatal(err)
		}
	}
	b := pipeline.GetBatch()
	defer pipeline.PutBatch(b)
	if _, err := DecodeBatch(body, b); err != nil {
		t.Fatal(err)
	}
	if err := batched.AddBatch(b); err != nil {
		t.Fatal(err)
	}

	rs, rb := single.Snapshot(), batched.Snapshot()
	if rs.N() != rb.N() {
		t.Fatalf("N %d != %d", rb.N(), rs.N())
	}
	for _, kind := range []pipeline.TaskKind{pipeline.TaskMean, pipeline.TaskFreq, pipeline.TaskRange} {
		if rs.NTask(kind) != rb.NTask(kind) {
			t.Fatalf("%v count %d != %d", kind, rb.NTask(kind), rs.NTask(kind))
		}
	}
	// The two ingest orders group float additions differently across
	// shards, so estimates may differ by a few ulps.
	approx := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*(1+math.Abs(a)) }
	ms, _ := rs.Mean("age")
	mb, _ := rb.Mean("age")
	if !approx(ms, mb) {
		t.Fatalf("Mean(age) %v != %v", mb, ms)
	}
	fs, _ := rs.Freq("gender")
	fb, _ := rb.Freq("gender")
	for v := range fs {
		if !approx(fs[v], fb[v]) {
			t.Fatalf("Freq(gender)[%d] %v != %v", v, fb[v], fs[v])
		}
	}
	q := pipeline.RangeQuery{Attr: "age", Lo: -0.5, Hi: 0.5}
	qs, _ := rs.Range(q)
	qb, _ := rb.Range(q)
	if !approx(qs, qb) {
		t.Fatalf("Range %v != %v", qb, qs)
	}
}

// TestDecodeBatchRejectsImplausibleAttr: a well-formed frame whose entry
// attribute (or categorical value) exceeds any plausible schema must be
// rejected by BOTH decoders at the wire boundary, so no platform's int
// conversion can truncate an attacker-chosen 2^32+k into a valid-looking
// small index and poison another attribute's aggregate.
func TestDecodeBatchRejectsImplausibleAttr(t *testing.T) {
	hugeAttr := pipeline.Report{Task: pipeline.TaskMean, Entries: []core.Entry{
		{Attr: 1 << 32, Kind: core.EntryNumeric, Value: 1},
	}}
	hugeValue := pipeline.Report{Task: pipeline.TaskFreq, Entries: []core.Entry{
		{Attr: 2, Kind: core.EntryCategoricalValue, Resp: freq.Response{Value: 1<<32 + 1}},
	}}
	for name, rep := range map[string]pipeline.Report{"attr": hugeAttr, "value": hugeValue} {
		frame, err := EncodeEnvelope(rep)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeEnvelope(frame); err == nil {
			t.Errorf("%s: DecodeEnvelope accepted an implausible %s", name, name)
		}
		b := pipeline.NewReportBatch()
		if n, err := DecodeBatch(frame, b); err == nil || n != 0 || b.Len() != 0 {
			t.Errorf("%s: DecodeBatch accepted an implausible %s (n=%d len=%d err=%v)", name, name, n, b.Len(), err)
		}
	}
}

// TestDecodeRejectsEmptyBitsResponse: a range frame declaring a bits
// response with 0 words can never validate (every oracle domain needs at
// least one word), so both decoders must reject it at the boundary. (The retired v1 range frame carrying it is rejected
// outright.)
func TestDecodeRejectsEmptyBitsResponse(t *testing.T) {
	// kind=hier attr=0 depth=1, respBits with words=0.
	payload := []byte{rangeKindHier, 0, 1, respBits, 0}
	for _, frame := range [][]byte{
		rawFrame("LDPQ\x01", payload),
		envelopeFrame(append([]byte{envTaskRange}, payload...)),
	} {
		if _, err := DecodeEnvelope(frame); err == nil {
			t.Error("DecodeEnvelope accepted a 0-word bits response")
		}
		b := pipeline.NewReportBatch()
		if n, err := DecodeBatch(frame, b); err == nil || n != 0 || b.Len() != 0 {
			t.Errorf("DecodeBatch accepted a 0-word bits response (n=%d len=%d err=%v)", n, b.Len(), err)
		}
	}
	// Same for a 0-word bitset entry in an entry-list report:
	// count=1 attr=0 kind=catBits words=0.
	entries := []byte{1, 0, entryCatBits, 0}
	for _, frame := range [][]byte{
		envelopeFrame(append([]byte{envTaskFreq}, entries...)),
		rawFrame("LDPR\x01", entries),
	} {
		if _, err := DecodeEnvelope(frame); err == nil {
			t.Error("DecodeEnvelope accepted a 0-word bitset entry")
		}
	}
}
