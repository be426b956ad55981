package transport

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"ldp/internal/pipeline"
	"ldp/internal/rng"
)

// newGradPipeline builds a gradient-enabled pipeline for wire tests.
func newGradPipeline(t testing.TB, dim, rounds int) *pipeline.Pipeline {
	t.Helper()
	p, err := pipeline.New(gradSchema(t), 2, pipeline.WithGradient(pipeline.GradientConfig{
		Dim: dim, Rounds: rounds, GroupSize: 4, Eta: 1, Lambda: 1e-4,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func sampleGradientReports(t testing.TB, p *pipeline.Pipeline, n int, seed uint64) []pipeline.Report {
	t.Helper()
	gt := p.GradientTask()
	grad := make([]float64, gt.Dim())
	reps := make([]pipeline.Report, 0, n)
	for i := 0; i < n; i++ {
		r := rng.NewStream(seed, uint64(i))
		for j := range grad {
			grad[j] = rng.Uniform(r, -1, 1)
		}
		rep, err := gt.RandomizeGradient(i%p.Trainer().Rounds(), grad, r)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	return reps
}

func TestGradientEnvelopeRoundTrip(t *testing.T) {
	p := newGradPipeline(t, 6, 5)
	for _, rep := range sampleGradientReports(t, p, 10, 3) {
		frame, err := EncodeGradientReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeEnvelope(frame)
		if err != nil {
			t.Fatal(err)
		}
		if got.Task != pipeline.TaskGradient || got.Round != rep.Round {
			t.Fatalf("round trip changed header: task %v round %d, want gradient round %d", got.Task, got.Round, rep.Round)
		}
		if !pipelineReportsEqual(rep, got) {
			t.Fatalf("round trip changed payload: %+v != %+v", got, rep)
		}
		// The decoded report must fold back into a pipeline.
		if err := p.Validate(got); err != nil {
			t.Fatalf("round-tripped report fails validation: %v", err)
		}
	}
	// EncodeGradientReport rejects other tasks at encode time.
	if _, err := EncodeGradientReport(pipeline.Report{Task: pipeline.TaskMean}); err == nil {
		t.Error("EncodeGradientReport accepted a mean report")
	}
}

// gradientPayload builds a raw gradient envelope payload for bound tests.
func gradientPayload(round uint64, coords []uint64, values []float64) []byte {
	payload := []byte{envTaskGradient}
	payload = binary.AppendUvarint(payload, round)
	payload = binary.AppendUvarint(payload, uint64(len(coords)))
	for i, c := range coords {
		payload = binary.AppendUvarint(payload, c)
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(values[i]))
	}
	return payload
}

// TestDecodeGradientWireBounds: the decoder rejects implausible round and
// coordinate values at the wire boundary — before the int32 narrowing of
// the batch columns could truncate them — plus structural garbage.
func TestDecodeGradientWireBounds(t *testing.T) {
	cases := map[string][]byte{
		"huge round":     gradientPayload(maxWireRound+1, []uint64{0}, []float64{1}),
		"huge coord":     gradientPayload(0, []uint64{maxWireAttr + 1}, []float64{1}),
		"zero coords":    gradientPayload(0, nil, nil),
		"huge count":     append(append([]byte{envTaskGradient}, 0), binary.AppendUvarint(nil, 1<<20)...),
		"trailing bytes": append(gradientPayload(0, []uint64{0}, []float64{1}), 0xAB),
		"cut value":      gradientPayload(0, []uint64{0}, []float64{1})[:6],
		"empty body":     {envTaskGradient},
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			frame := envelopeFrame(payload)
			if _, err := DecodeEnvelope(frame); err == nil {
				t.Error("DecodeEnvelope accepted it")
			}
			b := pipeline.NewReportBatch()
			if n, err := DecodeBatch(frame, b); err == nil || n != 0 || b.Len() != 0 {
				t.Errorf("DecodeBatch accepted it (n=%d len=%d err=%v)", n, b.Len(), err)
			}
		})
	}
	// A round at exactly the wire bound decodes (the pipeline's own
	// validator enforces the real training horizon).
	frame := envelopeFrame(gradientPayload(maxWireRound, []uint64{0}, []float64{0.5}))
	if _, err := DecodeEnvelope(frame); err != nil {
		t.Errorf("round at the wire bound rejected: %v", err)
	}
}

// TestDecodeBatchGradientRollback: a gradient frame that fails mid-decode
// (after its round and some coordinates were appended) must roll the
// batch back to the last complete report — round column included — and
// keep decoded gradient frames before it intact.
func TestDecodeBatchGradientRollback(t *testing.T) {
	p := newGradPipeline(t, 6, 5)
	reps := sampleGradientReports(t, p, 2, 11)
	f0, err := EncodeGradientReport(reps[0])
	if err != nil {
		t.Fatal(err)
	}

	// A structurally framed gradient payload that dies mid-coordinate:
	// count=2 but only one coordinate present, so the decoder fails after
	// the round tag and the first coordinate already hit the columns.
	pl := []byte{envTaskGradient}
	pl = binary.AppendUvarint(pl, 3)
	pl = binary.AppendUvarint(pl, 2) // claims 2 coords
	pl = binary.AppendUvarint(pl, 1)
	pl = binary.LittleEndian.AppendUint64(pl, math.Float64bits(0.25))
	bad := envelopeFrame(pl)

	body := append(append([]byte{}, f0...), bad...)
	b := pipeline.NewReportBatch()
	n, err := DecodeBatch(body, b)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("error = %v, want ErrTruncated", err)
	}
	if n != 1 || b.Len() != 1 {
		t.Fatalf("kept %d frames (batch len %d), want 1", n, b.Len())
	}
	if got := b.Report(0); !pipelineReportsEqual(reps[0], got) || got.Round != reps[0].Round {
		t.Fatal("frame 0 changed by the corrupt gradient neighbor")
	}

	// The rolled-back batch must still be appendable and foldable.
	b.Append(reps[1])
	if b.Round(1) != reps[1].Round {
		t.Fatalf("append after rollback: round = %d, want %d", b.Round(1), reps[1].Round)
	}
	if err := p.AddBatch(b); err != nil {
		t.Fatalf("rolled-back batch does not fold: %v", err)
	}
}

// TestDecodeBatchCorruptGradientChecksum mirrors the existing
// corrupt-frame rollback test for the gradient frame family.
func TestDecodeBatchCorruptGradientChecksum(t *testing.T) {
	p := newGradPipeline(t, 6, 5)
	reps := sampleGradientReports(t, p, 2, 17)
	var body []byte
	for _, rep := range reps {
		var err error
		body, err = AppendEnvelope(body, rep)
		if err != nil {
			t.Fatal(err)
		}
	}
	flen, err := FrameLen(body)
	if err != nil {
		t.Fatal(err)
	}
	body[flen+10] ^= 0xff // corrupt frame 1's payload

	b := pipeline.NewReportBatch()
	n, err := DecodeBatch(body, b)
	if !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("error = %v, want ErrBadChecksum", err)
	}
	if n != 1 || b.Len() != 1 {
		t.Fatalf("kept %d frames (batch len %d), want 1", n, b.Len())
	}
	if !pipelineReportsEqual(reps[0], b.Report(0)) {
		t.Fatal("frame 0 changed by the corrupt neighbor")
	}
}
