package transport

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ldp/internal/core"
	"ldp/internal/pipeline"
	"ldp/internal/rng"
	"ldp/internal/telemetry"
)

// newInstrumentedServer builds a pipeline and server sharing one registry,
// the wiring cmd/ldpserver uses.
func newInstrumentedServer(t testing.TB, opts ...ServerOption) (*PipelineServer, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	p, err := pipeline.New(pipelineSchema(t), 2,
		pipeline.WithShards(2),
		pipeline.WithTelemetry(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	return NewPipelineServer(p, nil, append([]ServerOption{WithServerTelemetry(reg)}, opts...)...), reg
}

// uploadBody builds one batch-upload body of n randomized reports.
func uploadBody(t testing.TB, p *pipeline.Pipeline, seed uint64, n int) []byte {
	t.Helper()
	r := rng.New(seed)
	var body []byte
	for i := 0; i < n; i++ {
		rep, err := p.Randomize(randomTuple(p.Schema(), r), r)
		if err != nil {
			t.Fatal(err)
		}
		body, err = AppendEnvelope(body, rep)
		if err != nil {
			t.Fatal(err)
		}
	}
	return body
}

// TestMetricsEndpoint is the smoke test of the full observability wiring:
// drive every route once, then scrape /metrics and check that the ingest,
// view-cache, transport, and (absent here) trainer families are exposed
// with the right content type and sane values.
func TestMetricsEndpoint(t *testing.T) {
	s, _ := newInstrumentedServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()
	c := srv.Client()

	body := uploadBody(t, s.Pipeline(), 7, 50)
	resp, err := c.Post(srv.URL+"/v1/report", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("report -> %s", resp.Status)
	}
	for _, path := range []string{"/v1/query?kind=mean&attr=age", "/v1/stats"} {
		resp, _ := getWithINM(t, c, srv.URL+path, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s -> %s", path, resp.Status)
		}
	}

	resp, exp := getWithINM(t, c, srv.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics -> %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.PromContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", ct, telemetry.PromContentType)
	}
	for _, line := range []string{
		"ldp_ingest_batches_total 1",
		"ldp_ingest_watermark 50",
		`ldp_http_requests_total{code="2xx",route="/v1/report"} 1`,
		`ldp_http_requests_total{code="2xx",route="/v1/query"} 1`,
		`ldp_http_requests_total{code="2xx",route="/v1/stats"} 1`,
		"ldp_report_frames_total 50",
		fmt.Sprintf(`ldp_http_request_bytes_total{route="/v1/report"} %d`, len(body)),
		"ldp_view_misses_total 1",
	} {
		if !strings.Contains(string(exp), line+"\n") {
			t.Errorf("/metrics missing %q", line)
		}
	}
	// Histogram families expose the cumulative triple.
	for _, frag := range []string{
		`ldp_http_request_duration_ns_bucket{route="/v1/query",le="+Inf"} 1`,
		`ldp_http_request_duration_ns_count{route="/v1/query"} 1`,
		"ldp_ingest_batch_size_count 1",
	} {
		if !strings.Contains(string(exp), frag) {
			t.Errorf("/metrics missing histogram line %q", frag)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", exp)
	}
}

// TestMetricsDisabled pins the default: without WithServerTelemetry,
// /metrics is a 404 and the handlers still serve.
func TestMetricsDisabled(t *testing.T) {
	p := newTestPipeline(t)
	srv := httptest.NewServer(NewPipelineServer(p, nil))
	defer srv.Close()
	resp, _ := getWithINM(t, srv.Client(), srv.URL+"/metrics", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics without telemetry -> %s, want 404", resp.Status)
	}
	resp, _ = getWithINM(t, srv.Client(), srv.URL+"/v1/stats", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats -> %s", resp.Status)
	}
}

// TestRequestMetricsExactCounts drives a known request mix and asserts
// the per-route counters are exact: status classes, 304 short-circuits,
// and the decode-error taxonomy.
func TestRequestMetricsExactCounts(t *testing.T) {
	s, reg := newInstrumentedServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()
	c := srv.Client()

	// 2 good uploads, 1 bad frame, 1 empty body, 1 pipeline reject.
	body := uploadBody(t, s.Pipeline(), 3, 20)
	for i := 0; i < 2; i++ {
		resp, err := c.Post(srv.URL+"/v1/report", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	for _, bad := range [][]byte{
		[]byte("garbage-frame"),
		nil,
		// A well-formed joint report whose attribute is outside the
		// 3-attribute schema: decodes fine, rejected by validation.
		mustEnvelope(t, pipeline.Report{Task: pipeline.TaskJoint, Entries: []core.Entry{{Attr: 9, Kind: core.EntryNumeric, Value: 0.5}}}),
	} {
		resp, err := c.Post(srv.URL+"/v1/report", "application/octet-stream", bytes.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad upload -> %s, want 400", resp.Status)
		}
	}

	// Query: one cold 200, one cached 200, one 304 replay, one 400.
	resp, _ := getWithINM(t, c, srv.URL+"/v1/query?kind=mean&attr=age", "")
	etag := resp.Header.Get("Etag")
	getWithINM(t, c, srv.URL+"/v1/query?kind=mean&attr=age", "")
	resp, _ = getWithINM(t, c, srv.URL+"/v1/query?kind=mean&attr=age", etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("replay -> %s, want 304", resp.Status)
	}
	getWithINM(t, c, srv.URL+"/v1/query?kind=freq", "") // 400: freq needs attr

	var sb strings.Builder
	if _, err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	exp := sb.String()
	for _, line := range []string{
		`ldp_http_requests_total{code="2xx",route="/v1/report"} 2`,
		`ldp_http_requests_total{code="4xx",route="/v1/report"} 3`,
		`ldp_http_requests_total{code="2xx",route="/v1/query"} 2`,
		`ldp_http_requests_total{code="3xx",route="/v1/query"} 1`,
		`ldp_http_requests_total{code="4xx",route="/v1/query"} 1`,
		`ldp_http_not_modified_total{route="/v1/query"} 1`,
		`ldp_report_decode_errors_total{reason="bad_frame"} 1`,
		`ldp_report_decode_errors_total{reason="empty"} 1`,
		`ldp_report_decode_errors_total{reason="reject"} 1`,
		`ldp_report_decode_errors_total{reason="too_large"} 0`,
		"ldp_report_frames_total 40",
	} {
		if !strings.Contains(exp, line+"\n") {
			t.Errorf("exposition missing %q", line)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", exp)
	}
}

// TestStatsETagAdvances checks the stats cache key: quiet ingest serves
// 304s, any folded report (watermark move) mints a fresh ETag and body.
func TestStatsETagAdvances(t *testing.T) {
	s, _ := newInstrumentedServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()
	c := srv.Client()

	resp, body := getWithINM(t, c, srv.URL+"/v1/stats", "")
	etag := resp.Header.Get("Etag")
	if etag == "" {
		t.Fatal("no ETag on /v1/stats")
	}
	resp, _ = getWithINM(t, c, srv.URL+"/v1/stats", etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("quiet stats replay -> %s, want 304", resp.Status)
	}

	ingestPipelineReports(t, s.Pipeline(), 9, 10)
	resp, body2 := getWithINM(t, c, srv.URL+"/v1/stats", etag)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats after ingest -> %s, want 200", resp.Status)
	}
	if got := resp.Header.Get("Etag"); got == etag {
		t.Fatal("stats ETag did not advance after ingest")
	}
	if string(body2) == string(body) {
		t.Fatal("stats body did not change after ingest")
	}
}

// TestRequestLog checks the per-request debug line: emitted with fields
// at debug level, suppressed entirely at info.
func TestRequestLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	p := newTestPipeline(t)
	srv := httptest.NewServer(NewPipelineServer(p, nil, WithRequestLog(logger)))
	defer srv.Close()

	getWithINM(t, srv.Client(), srv.URL+"/v1/stats", "")
	line := buf.String()
	for _, frag := range []string{`"msg":"request"`, `"path":"/v1/stats"`, `"status":200`, `"method":"GET"`} {
		if !strings.Contains(line, frag) {
			t.Errorf("log line %q missing %q", line, frag)
		}
	}

	var quiet bytes.Buffer
	info := slog.New(slog.NewJSONHandler(&quiet, &slog.HandlerOptions{Level: slog.LevelInfo}))
	srv2 := httptest.NewServer(NewPipelineServer(newTestPipeline(t), nil, WithRequestLog(info)))
	defer srv2.Close()
	getWithINM(t, srv2.Client(), srv2.URL+"/v1/stats", "")
	if quiet.Len() != 0 {
		t.Fatalf("info-level logger emitted per-request line: %q", quiet.String())
	}
}

// BenchmarkHandleQueryCachedInstrumented is BenchmarkHandleQueryCached
// with telemetry live: the epilogue (status-class counter, bytes, latency
// histogram) must keep the cached-hit handler at 0 allocs/op — the CI
// allocation guard enforces it.
func BenchmarkHandleQueryCachedInstrumented(b *testing.B) {
	reg := telemetry.NewRegistry()
	p, err := pipeline.New(pipelineSchema(b), 2,
		pipeline.WithShards(2), pipeline.WithTelemetry(reg))
	if err != nil {
		b.Fatal(err)
	}
	ingestPipelineReports(b, p, 3, 1000)
	s := NewPipelineServer(p, nil, WithServerTelemetry(reg))

	req := httptest.NewRequest(http.MethodGet, "/v1/query?kind=freq&attr=gender", nil)
	w := &discardResponseWriter{h: make(http.Header)}
	s.handleQuery(w, req)
	if w.n == 0 {
		b.Fatal("warmup wrote no body")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.handleQuery(w, req)
	}
}

// BenchmarkHandleStatsCached measures the new cached stats path under
// telemetry: pre-encoded bytes while the watermark is quiet.
func BenchmarkHandleStatsCached(b *testing.B) {
	reg := telemetry.NewRegistry()
	p, err := pipeline.New(pipelineSchema(b), 2,
		pipeline.WithShards(2), pipeline.WithTelemetry(reg))
	if err != nil {
		b.Fatal(err)
	}
	ingestPipelineReports(b, p, 3, 1000)
	s := NewPipelineServer(p, nil, WithServerTelemetry(reg))

	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	w := &discardResponseWriter{h: make(http.Header)}
	s.handleStats(w, req)
	if w.n == 0 {
		b.Fatal("warmup wrote no body")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.handleStats(w, req)
	}
}
