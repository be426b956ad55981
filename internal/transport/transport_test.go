package transport

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ldp/internal/core"
	"ldp/internal/freq"
	"ldp/internal/mech"
	"ldp/internal/pipeline"
	"ldp/internal/rangequery"
	"ldp/internal/reportlog"
	"ldp/internal/rng"
	"ldp/internal/schema"
	"ldp/internal/telemetry"
)

func pmFactory(eps float64) (mech.Mechanism, error)      { return core.NewPiecewise(eps) }
func oueFactory(eps float64, k int) (freq.Oracle, error) { return freq.NewOUE(eps, k) }
func grrFactory(eps float64, k int) (freq.Oracle, error) { return freq.NewGRR(eps, k) }

func testSchema(t testing.TB) *schema.Schema {
	t.Helper()
	s, err := schema.New(
		schema.Attribute{Name: "age", Kind: schema.Numeric},
		schema.Attribute{Name: "gender", Kind: schema.Categorical, Cardinality: 2},
		schema.Attribute{Name: "region", Kind: schema.Categorical, Cardinality: 70}, // >64 bits
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testTuple(s *schema.Schema, r *rng.Rand) schema.Tuple {
	tup := schema.NewTuple(s)
	tup.Num[0] = rng.Uniform(r, -1, 1)
	tup.Cat[1] = r.IntN(2)
	tup.Cat[2] = r.IntN(70)
	return tup
}

// sampleReports randomizes n tuples through the joint task (Algorithm 4
// over the whole schema) of a pipeline over testSchema.
func sampleReports(t testing.TB, oracle freq.Factory, n int) (*pipeline.Pipeline, []pipeline.Report) {
	t.Helper()
	s := testSchema(t)
	p, err := pipeline.New(s, 8, pipeline.WithMechanism(pmFactory), pipeline.WithOracle(oracle)) // k=3: all attrs sampled
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	reps := make([]pipeline.Report, n)
	for i := range reps {
		rep, err := p.JointTask().Randomize(testTuple(s, r), r)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	return p, reps
}

func TestWireRoundTripOUE(t *testing.T) {
	_, reps := sampleReports(t, oueFactory, 50)
	for i, rep := range reps {
		frame, err := EncodeEnvelope(rep)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeEnvelope(frame)
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		if !pipelineReportsEqual(got, rep) {
			t.Fatalf("report %d: round trip mismatch", i)
		}
	}
}

func TestWireRoundTripGRR(t *testing.T) {
	_, reps := sampleReports(t, grrFactory, 50)
	for i, rep := range reps {
		frame, err := EncodeEnvelope(rep)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeEnvelope(frame)
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		if !pipelineReportsEqual(got, rep) {
			t.Fatalf("report %d: round trip mismatch", i)
		}
	}
}

func TestWireRoundTripSpecialFloats(t *testing.T) {
	rep := pipeline.Report{Task: pipeline.TaskJoint, Entries: []core.Entry{
		{Attr: 0, Kind: core.EntryNumeric, Value: 0},
		{Attr: 1, Kind: core.EntryNumeric, Value: math.Copysign(0, -1)},
		{Attr: 2, Kind: core.EntryNumeric, Value: -17.25},
	}}
	frame, err := EncodeEnvelope(rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEnvelope(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !pipelineReportsEqual(got, rep) || !math.Signbit(got.Entries[1].Value) {
		t.Fatal("round trip mismatch")
	}
}

func TestDecodeRejectsMalformedFrames(t *testing.T) {
	_, reps := sampleReports(t, oueFactory, 1)
	good, err := EncodeEnvelope(reps[0])
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":     {},
		"short":     good[:5],
		"badMagic":  append([]byte("XXXX"), good[4:]...),
		"badVer":    func() []byte { b := bytes.Clone(good); b[4] = 9; return b }(),
		"badLen":    func() []byte { b := bytes.Clone(good); b[5] ^= 0xFF; return b }(),
		"badCRC":    func() []byte { b := bytes.Clone(good); b[len(b)-1] ^= 0xFF; return b }(),
		"bitFlip":   func() []byte { b := bytes.Clone(good); b[12] ^= 0x01; return b }(),
		"truncated": good[:len(good)-4],
	}
	for name, frame := range cases {
		if _, err := DecodeEnvelope(frame); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}
}

func TestDecodeRejectsOversizedFrame(t *testing.T) {
	if _, err := DecodeEnvelope(make([]byte, MaxFrameSize+1)); err == nil {
		t.Error("expected error for oversized frame")
	}
}

// TestServerEndToEnd sends Algorithm-4 joint reports through the HTTP
// server and checks they fold exactly as a local Add would.
func TestServerEndToEnd(t *testing.T) {
	p, reps := sampleReports(t, oueFactory, 500)
	local, err := pipeline.New(p.Schema(), p.Epsilon(), pipeline.WithMechanism(pmFactory), pipeline.WithOracle(oueFactory))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewPipelineServer(p, nil))
	defer srv.Close()

	client := NewPipelineClient(srv.URL+"/", p, WithHTTPClient(srv.Client()))
	for _, rep := range reps {
		if err := client.SendReport(context.Background(), rep); err != nil {
			t.Fatal(err)
		}
		if err := local.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.TaskCounts()[pipeline.TaskJoint]; got != 500 {
		t.Fatalf("server folded %d joint reports, want 500", got)
	}
	remote, want := p.Snapshot(), local.Snapshot()
	rm, _ := remote.Mean("age")
	wm, _ := want.Mean("age")
	rf, _ := remote.Freq("region")
	wf, _ := want.Freq("region")
	if rm != wm || rf[3] != wf[3] {
		t.Errorf("server estimates (mean %v, freq %v) differ from local fold (%v, %v)", rm, rf[3], wm, wf[3])
	}

	for path, code := range map[string]int{
		"/v1/query?kind=mean&attr=age":    http.StatusOK,
		"/v1/query?kind=freq&attr=region": http.StatusOK,
		"/v1/query?kind=freq&attr=nope":   http.StatusBadRequest,
		"/v1/query?kind=freq&attr=age":    http.StatusBadRequest,
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != code {
			t.Errorf("%s -> %d, want %d", path, resp.StatusCode, code)
		}
	}
}

// countingSink counts the frames a server persists.
type countingSink struct {
	mu     sync.Mutex
	frames int
}

func (s *countingSink) Append([]byte) error {
	s.mu.Lock()
	s.frames++
	s.mu.Unlock()
	return nil
}

// TestServerRejectsGarbage: bodies that do not decode — garbage, and the
// retired v1 report and range frames — answer 400, count as bad frames,
// and neither persist nor fold anything.
func TestServerRejectsGarbage(t *testing.T) {
	_, reps := sampleReports(t, oueFactory, 1)
	reg := telemetry.NewRegistry()
	p, err := pipeline.New(testSchema(t), 8, pipeline.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	sink := &countingSink{}
	srv := httptest.NewServer(NewPipelineServer(p, sink, WithServerTelemetry(reg)))
	defer srv.Close()

	bodies := map[string][]byte{
		"garbage":    []byte("garbage"),
		"v1 report":  legacyReportFrame(reps[0].Entries),
		"v1 range":   legacyRangeFrame(rangequery.Report{Kind: rangequery.KindHier, Attr: 0, Depth: 1, Resp: freq.Response{Bits: freq.NewBitset(2)}}),
		"v2 then v1": append(mustEnvelope(t, reps[0]), legacyReportFrame(reps[0].Entries)...),
		"v1 then v2": append(legacyReportFrame(reps[0].Entries), mustEnvelope(t, reps[0])...),
	}
	for name, body := range bodies {
		before := badFrameCount(t, reg)
		resp, err := http.Post(srv.URL+"/v1/report", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if got := badFrameCount(t, reg); got != before+1 {
			t.Errorf("%s: bad_frame count %d -> %d, want +1", name, before, got)
		}
	}
	if sink.frames != 0 || p.N() != 0 {
		t.Errorf("rejected bodies persisted %d frames and folded %d reports", sink.frames, p.N())
	}
}

// badFrameCount scrapes ldp_report_decode_errors_total{reason="bad_frame"}.
func badFrameCount(t *testing.T, reg *telemetry.Registry) int {
	t.Helper()
	var sb strings.Builder
	if _, err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	const prefix = `ldp_report_decode_errors_total{reason="bad_frame"} `
	for _, line := range strings.Split(sb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.Atoi(rest)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("no bad_frame counter in the exposition")
	return 0
}

func TestServerSendTupleConcurrent(t *testing.T) {
	s := testSchema(t)
	p, err := pipeline.New(s, 1, pipeline.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewPipelineServer(p, nil))
	defer srv.Close()

	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := NewPipelineClient(srv.URL, p, WithHTTPClient(srv.Client()))
			r := rng.NewStream(9, uint64(w))
			for i := 0; i < perWorker; i++ {
				if err := client.Send(context.Background(), testTuple(s, r), r); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if p.N() != workers*perWorker {
		t.Errorf("N = %d, want %d", p.N(), workers*perWorker)
	}
}

func TestServerPersistsAndReplays(t *testing.T) {
	p, reps := sampleReports(t, oueFactory, 200)
	dir := t.TempDir()
	w, err := reportlog.Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewPipelineServer(p, w))
	client := NewPipelineClient(srv.URL, p, WithHTTPClient(srv.Client()))
	for _, rep := range reps {
		if err := client.SendReport(context.Background(), rep); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate restart: rebuild a fresh pipeline from the log.
	fresh, err := pipeline.New(p.Schema(), p.Epsilon(), pipeline.WithMechanism(pmFactory), pipeline.WithOracle(oueFactory))
	if err != nil {
		t.Fatal(err)
	}
	n, err := ReplayPipeline(fresh, func(fn func([]byte) error) error {
		_, err := reportlog.Replay(dir, fn)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 || fresh.N() != 200 {
		t.Fatalf("replayed %d reports (pipeline %d), want 200", n, fresh.N())
	}
	m1, err := p.Snapshot().Mean("age")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := fresh.Snapshot().Mean("age")
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Errorf("replayed mean %v != original %v", m2, m1)
	}
}

func TestClientReportsServerRejection(t *testing.T) {
	p, reps := sampleReports(t, oueFactory, 1)
	// A server built over a different schema rejects the client's frames.
	other, err := schema.New(schema.Attribute{Name: "only", Kind: schema.Numeric})
	if err != nil {
		t.Fatal(err)
	}
	otherP, err := pipeline.New(other, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewPipelineServer(otherP, nil))
	defer srv.Close()
	client := NewPipelineClient(srv.URL, p, WithHTTPClient(srv.Client()))
	if err := client.SendReport(context.Background(), reps[0]); err == nil {
		t.Error("expected rejection for out-of-schema report")
	}
}
