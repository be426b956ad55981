package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ldp/internal/core"
	"ldp/internal/pipeline"
	"ldp/internal/rangequery"
	"ldp/internal/rng"
	"ldp/internal/schema"
)

func pipelineSchema(t testing.TB) *schema.Schema {
	t.Helper()
	s, err := schema.New(
		schema.Attribute{Name: "age", Kind: schema.Numeric},
		schema.Attribute{Name: "income", Kind: schema.Numeric},
		schema.Attribute{Name: "gender", Kind: schema.Categorical, Cardinality: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestPipeline(t testing.TB) *pipeline.Pipeline {
	t.Helper()
	p, err := pipeline.New(pipelineSchema(t), 2,
		pipeline.WithShards(2),
		pipeline.WithRange(rangequery.Config{Buckets: 32, GridCells: 2}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func randomTuple(s *schema.Schema, r *rng.Rand) schema.Tuple {
	tup := schema.NewTuple(s)
	tup.Num[0] = rng.Uniform(r, -1, 1)
	tup.Num[1] = rng.Uniform(r, -1, 1)
	tup.Cat[2] = r.IntN(2)
	return tup
}

// sampleReports randomizes until every task kind has appeared at least
// once, returning the collected reports.
func samplePipelineReports(t *testing.T, p *pipeline.Pipeline, seed uint64) []pipeline.Report {
	t.Helper()
	s := p.Schema()
	seen := map[pipeline.TaskKind]bool{}
	var reps []pipeline.Report
	r := rng.New(seed)
	for i := 0; i < 10_000 && (len(seen) < 3 || len(reps) < 20); i++ {
		rep, err := p.Randomize(randomTuple(s, r), r)
		if err != nil {
			t.Fatal(err)
		}
		seen[rep.Task] = true
		reps = append(reps, rep)
	}
	for _, k := range []pipeline.TaskKind{pipeline.TaskMean, pipeline.TaskFreq, pipeline.TaskRange} {
		if !seen[k] {
			t.Fatalf("no %v report sampled", k)
		}
	}
	return reps
}

func pipelineReportsEqual(a, b pipeline.Report) bool {
	if a.Task != b.Task || a.Round != b.Round || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		x, y := a.Entries[i], b.Entries[i]
		if x.Attr != y.Attr || x.Kind != y.Kind || x.Value != y.Value ||
			x.Resp.Value != y.Resp.Value || !bytes.Equal(bitsBytes(x.Resp.Bits), bitsBytes(y.Resp.Bits)) {
			return false
		}
	}
	ra, rb := a.Range, b.Range
	return ra.Kind == rb.Kind && ra.Attr == rb.Attr && ra.Depth == rb.Depth && ra.Pair == rb.Pair &&
		ra.Resp.Value == rb.Resp.Value && bytes.Equal(bitsBytes(ra.Resp.Bits), bitsBytes(rb.Resp.Bits))
}

func bitsBytes(bits []uint64) []byte {
	out := make([]byte, 0, 8*len(bits))
	for _, w := range bits {
		for s := 0; s < 64; s += 8 {
			out = append(out, byte(w>>s))
		}
	}
	return out
}

// rawFrame frames a payload under a 5-byte magic-plus-version header, in
// the layout every frame version shares:
//
//	magic(4) version(1) payloadLen(u32) payload crc32(u32)
func rawFrame(header string, payload []byte) []byte {
	frame := append([]byte(header), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(frame[5:], uint32(len(payload)))
	frame = append(frame, payload...)
	return binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
}

// legacyReportFrame encodes entries as a retired v1 report frame: an
// untagged entry list under "LDPR" version 1.
func legacyReportFrame(entries []core.Entry) []byte {
	return rawFrame("LDPR\x01", appendEntries(nil, entries))
}

// legacyRangeFrame encodes a range report as a retired v1 range frame,
// which carried the range body under its own magic.
func legacyRangeFrame(rep rangequery.Report) []byte {
	return rawFrame("LDPQ\x01", appendRangeReport(nil, rep))
}

// envelopeFrame wraps a raw task-tagged payload in a v2 envelope: valid
// framing around whatever body the test needs.
func envelopeFrame(payload []byte) []byte {
	return rawFrame("LDPR\x02", payload)
}

func mustEnvelope(t testing.TB, rep pipeline.Report) []byte {
	t.Helper()
	frame, err := EncodeEnvelope(rep)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestEnvelopeRoundTrip(t *testing.T) {
	p := newTestPipeline(t)
	for _, rep := range samplePipelineReports(t, p, 1) {
		frame, err := EncodeEnvelope(rep)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeEnvelope(frame)
		if err != nil {
			t.Fatalf("%v report: %v", rep.Task, err)
		}
		if !pipelineReportsEqual(rep, got) {
			t.Fatalf("%v report changed across the wire", rep.Task)
		}
	}

	// Joint-task reports (never routed) round-trip too.
	r := rng.New(2)
	joint, err := p.JointTask().Randomize(randomTuple(p.Schema(), r), r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEnvelope(mustEnvelope(t, joint))
	if err != nil {
		t.Fatal(err)
	}
	if got.Task != pipeline.TaskJoint || !pipelineReportsEqual(joint, got) {
		t.Fatalf("joint report decoded as %v", got.Task)
	}
}

// TestEnvelopeLegacyDecode: the retired version-1 frames no longer decode.
// A v1 report frame fails with ErrBadVersion and a v1 range frame with
// ErrBadMagic, through DecodeEnvelope and through ReplayPipeline, so a
// report log holding v1 frames stops replay at the first one.
func TestEnvelopeLegacyDecode(t *testing.T) {
	p := newTestPipeline(t)
	r := rng.New(3)
	joint, err := p.JointTask().Randomize(randomTuple(p.Schema(), r), r)
	if err != nil {
		t.Fatal(err)
	}
	var rangeRep pipeline.Report
	for _, rep := range samplePipelineReports(t, p, 3) {
		if rep.Task == pipeline.TaskRange {
			rangeRep = rep
			break
		}
	}
	for _, tc := range []struct {
		name  string
		frame []byte
		want  error
	}{
		{"v1 report", legacyReportFrame(joint.Entries), ErrBadVersion},
		{"v1 range", legacyRangeFrame(rangeRep.Range), ErrBadMagic},
	} {
		if _, err := DecodeEnvelope(tc.frame); !errors.Is(err, tc.want) {
			t.Errorf("%s: DecodeEnvelope error %v, want %v", tc.name, err, tc.want)
		}
		fresh := newTestPipeline(t)
		log := [][]byte{mustEnvelope(t, joint), tc.frame, mustEnvelope(t, joint)}
		n, err := ReplayPipeline(fresh, func(fn func([]byte) error) error {
			for _, f := range log {
				if err := fn(f); err != nil {
					return err
				}
			}
			return nil
		})
		if !errors.Is(err, tc.want) || n != 1 {
			t.Errorf("%s: ReplayPipeline = %d, %v; want 1, %v", tc.name, n, err, tc.want)
		}
	}
}

func TestEnvelopeRejectsMalformed(t *testing.T) {
	p := newTestPipeline(t)
	rep := samplePipelineReports(t, p, 4)[0]
	frame, err := EncodeEnvelope(rep)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := DecodeEnvelope(frame[:7]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated: got %v", err)
	}
	bad := append([]byte("XXXX"), frame[4:]...)
	if _, err := DecodeEnvelope(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: got %v", err)
	}
	ver := bytes.Clone(frame)
	ver[4] = 99
	if _, err := DecodeEnvelope(ver); !errors.Is(err, ErrBadVersion) {
		t.Errorf("unknown version: got %v", err)
	}
	flip := bytes.Clone(frame)
	flip[10] ^= 0xff
	if _, err := DecodeEnvelope(flip); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("corrupt payload: got %v", err)
	}
	// Unknown task tag: rebuild a valid frame whose payload starts with 99.
	tag := envelopeFrame([]byte{99, 0})
	if _, err := DecodeEnvelope(tag); err == nil {
		t.Error("unknown task tag accepted")
	}
	if _, err := EncodeEnvelope(pipeline.Report{Task: pipeline.TaskKind(42)}); err == nil {
		t.Error("unknown task kind encoded")
	}
}

func TestSplitFrames(t *testing.T) {
	p := newTestPipeline(t)
	reps := samplePipelineReports(t, p, 5)[:3]
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
	got, err := SplitFrames(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("split %d frames, want %d", len(got), len(frames))
	}
	for i := range got {
		if !bytes.Equal(got[i], frames[i]) {
			t.Fatalf("frame %d differs after split", i)
		}
	}
	if _, err := SplitFrames(body[:len(body)-3]); !errors.Is(err, ErrTruncated) {
		t.Errorf("partial trailing frame: got %v", err)
	}
	if got, err := SplitFrames(nil); err != nil || len(got) != 0 {
		t.Errorf("empty buffer: got %d frames, %v", len(got), err)
	}
}

func TestPipelineServerEndToEnd(t *testing.T) {
	p := newTestPipeline(t)
	srv := httptest.NewServer(NewPipelineServer(p, nil))
	defer srv.Close()

	client := NewPipelineClient(srv.URL, p, WithHTTPClient(srv.Client()))
	ctx := context.Background()
	s := p.Schema()
	r := rng.New(9)

	// Batched and single submissions both land.
	batch := make([]schema.Tuple, 50)
	for i := range batch {
		batch[i] = randomTuple(s, r)
	}
	if err := client.SendBatch(ctx, batch, r); err != nil {
		t.Fatal(err)
	}
	if err := client.Send(ctx, randomTuple(s, r), r); err != nil {
		t.Fatal(err)
	}
	if got := p.N(); got != 51 {
		t.Fatalf("server ingested %d reports, want 51", got)
	}

	// Joint-task reports share the route.
	joint, err := p.JointTask().Randomize(randomTuple(s, r), r)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.SendReport(ctx, joint); err != nil {
		t.Fatal(err)
	}
	if got := p.N(); got != 52 {
		t.Fatalf("after joint submit N = %d, want 52", got)
	}

	// The query route answers every kind.
	for _, path := range []string{
		"/v1/query?kind=stats",
		"/v1/query?kind=mean",
		"/v1/query?kind=mean&attr=age",
		"/v1/query?kind=freq&attr=gender",
		"/v1/query?kind=range&attr=age&lo=-0.5&hi=0.5",
		"/v1/query?kind=range&attr=age&lo=-0.5&hi=0.5&attr2=income&lo2=0&hi2=1",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s -> %s", path, resp.Status)
		}
		resp.Body.Close()
	}
	for _, path := range []string{
		"/v1/query?kind=nope",
		"/v1/query?kind=mean&attr=gender",
		"/v1/query?kind=freq",
		"/v1/query?kind=range&attr=missing&lo=0&hi=1",
		"/v1/query?kind=range&attr=age&lo=zero&hi=1",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			t.Errorf("%s unexpectedly succeeded", path)
		}
		resp.Body.Close()
	}
	// A NaN range endpoint parses as a float but bounds no range: 400 with
	// the view's one error, in 1-D and 2-D alike.
	for _, path := range []string{
		"/v1/query?kind=range&attr=age&lo=NaN&hi=0.5",
		"/v1/query?kind=range&attr=age&lo=-0.5&hi=0.5&attr2=income&lo2=0&hi2=NaN",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "rangequery: range endpoint is NaN") {
			t.Errorf("%s -> %s %q, want 400 naming the NaN endpoint", path, resp.Status, body)
		}
	}
	// An infinite endpoint clamps to the domain edge, as in process: 200
	// with the in-process mass, the endpoint echoed as the edge.
	for path, q := range map[string]pipeline.RangeQuery{
		"/v1/query?kind=range&attr=age&lo=-Inf&hi=Inf": {Attr: "age", Lo: math.Inf(-1), Hi: math.Inf(1)},
		"/v1/query?kind=range&attr=age&lo=-0.5&hi=Inf&attr2=income&lo2=-Inf&hi2=0.25": {
			Attr: "age", Lo: -0.5, Hi: math.Inf(1), Attr2: "income", Lo2: math.Inf(-1), Hi2: 0.25},
	} {
		want, err := p.View().Range(q)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Query pipeline.RangeQuery
			Mass  float64
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("%s -> %s (%v), want 200", path, resp.Status, err)
		}
		echo := q
		for _, x := range []*float64{&echo.Lo, &echo.Hi, &echo.Lo2, &echo.Hi2} {
			if math.IsInf(*x, 0) {
				*x = math.Copysign(1, *x)
			}
		}
		if got.Mass != want || got.Query != echo {
			t.Errorf("%s -> query %+v mass %v, want %+v mass %v", path, got.Query, got.Mass, echo, want)
		}
	}

	// A malformed frame rejects the whole batch atomically.
	before := p.N()
	good, err := EncodeEnvelope(mustRandomize(t, p, r))
	if err != nil {
		t.Fatal(err)
	}
	bad := append(bytes.Clone(good), good...)
	bad[len(bad)-1] ^= 0xff
	resp, err := srv.Client().Post(srv.URL+"/v1/report", "application/octet-stream", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt batch -> %s, want 400", resp.Status)
	}
	if p.N() != before {
		t.Error("corrupt batch partially ingested")
	}

	// Semantically invalid frames (well-formed encoding, wrong for this
	// pipeline) also reject the batch before anything is folded in: a
	// range report against a server whose pipeline has no range task.
	noRange, err := pipeline.New(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(NewPipelineServer(noRange, nil))
	defer srv2.Close()
	var rangeRep pipeline.Report
	for _, rep := range samplePipelineReports(t, p, 11) {
		if rep.Task == pipeline.TaskRange {
			rangeRep = rep
			break
		}
	}
	meanFrame, err := EncodeEnvelope(mustRandomize(t, noRange, r))
	if err != nil {
		t.Fatal(err)
	}
	rangeFrame, err := EncodeEnvelope(rangeRep)
	if err != nil {
		t.Fatal(err)
	}
	mixed := append(bytes.Clone(meanFrame), rangeFrame...)
	resp, err = srv2.Client().Post(srv2.URL+"/v1/report", "application/octet-stream", bytes.NewReader(mixed))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("semantically invalid batch -> %s, want 400", resp.Status)
	}
	if noRange.N() != 0 {
		t.Errorf("semantically invalid batch partially ingested: N = %d", noRange.N())
	}
}

func mustRandomize(t *testing.T, p *pipeline.Pipeline, r *rng.Rand) pipeline.Report {
	t.Helper()
	rep, err := p.Randomize(randomTuple(p.Schema(), r), r)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestReplayPipeline(t *testing.T) {
	p := newTestPipeline(t)
	r := rng.New(21)
	var frames [][]byte
	for i := 0; i < 200; i++ {
		rep := mustRandomize(t, p, r)
		if err := p.Add(rep); err != nil {
			t.Fatal(err)
		}
		frame, err := EncodeEnvelope(rep)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}

	fresh := newTestPipeline(t)
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
	if n != len(frames) {
		t.Fatalf("replayed %d frames, want %d", n, len(frames))
	}
	a, b := p.Snapshot(), fresh.Snapshot()
	ma, _ := a.Mean("age")
	mb, _ := b.Mean("age")
	// Batch replay partitions reports across shards differently from the
	// original per-report ingest, so the float sums may differ by a few
	// ulps from the different addition order.
	if math.Abs(ma-mb) > 1e-12 {
		t.Errorf("replayed mean %v != original %v", mb, ma)
	}
}
