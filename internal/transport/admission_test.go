package transport

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ldp/internal/cluster"
	"ldp/internal/erm"
	"ldp/internal/pipeline"
	"ldp/internal/rng"
	"ldp/internal/telemetry"
)

// slotHolder occupies admission slots by POSTing bodies that stall until
// released, so tests can fill the limiter deterministically.
type slotHolder struct {
	wg      sync.WaitGroup
	writers []*io.PipeWriter
}

// hold starts a POST /v1/report whose body never finishes arriving; the
// handler sits in its body read, holding one admission slot.
func (h *slotHolder) hold(s *PipelineServer) {
	pr, pw := io.Pipe()
	h.writers = append(h.writers, pw)
	req := httptest.NewRequest(http.MethodPost, "/v1/report", pr)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s.ServeHTTP(httptest.NewRecorder(), req)
	}()
	// The handler holds its slot once it enters the body read; give the
	// goroutine a moment to get there.
	deadline := time.Now().Add(2 * time.Second)
	for s.adm.InFlight() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

func (h *slotHolder) release() {
	for _, pw := range h.writers {
		pw.CloseWithError(io.ErrUnexpectedEOF)
	}
	h.wg.Wait()
}

func TestAdmissionShedsOverLimit(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewPipelineServer(newTestPipeline(t), nil,
		WithServerTelemetry(reg),
		WithAdmission(AdmissionConfig{MaxInFlight: 1, RetryAfter: 7 * time.Second}),
	)

	var holder slotHolder
	holder.hold(s)

	// Slot taken: the next mutating request is shed before its body is
	// read.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/report", strings.NewReader("junk")))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-limit POST: status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", got)
	}
	// Merge POSTs share the same limiter.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/merge", strings.NewReader("junk")))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-limit merge POST: status %d, want 429", rec.Code)
	}
	// Cheap cached GETs are never shed.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/stats under load: status %d, want 200", rec.Code)
	}

	holder.release()

	// Slot free again: admitted (the bad body 400s, but it got in).
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/report", strings.NewReader("junk")))
	if rec.Code == http.StatusTooManyRequests {
		t.Fatal("request shed after the slot was released")
	}

	var sb strings.Builder
	if _, err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`ldp_http_shed_total{route="/v1/report"} 1`,
		`ldp_http_shed_total{route="/v1/merge"} 1`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// shedWriter is the cheapest possible ResponseWriter: the alloc test
// needs the shed path itself, not recorder bookkeeping, measured.
type shedWriter struct{ h http.Header }

func (w *shedWriter) Header() http.Header         { return w.h }
func (w *shedWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *shedWriter) WriteHeader(int)             {}

func TestAdmissionShedPathZeroAlloc(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewPipelineServer(newTestPipeline(t), nil,
		WithServerTelemetry(reg),
		WithAdmission(AdmissionConfig{MaxInFlight: 1}),
	)
	var holder slotHolder
	holder.hold(s)
	defer holder.release()

	h := s.mux // routing itself must stay allocation-free too
	w := &shedWriter{h: make(http.Header, 4)}
	req := httptest.NewRequest(http.MethodPost, "/v1/report", nil)
	req.Body = http.NoBody
	allocs := testing.AllocsPerRun(200, func() {
		h.ServeHTTP(w, req)
	})
	if allocs != 0 {
		t.Errorf("shed path allocates %.1f/op, want 0", allocs)
	}
}

func TestAdmissionTimeoutSetsDeadline(t *testing.T) {
	s := NewPipelineServer(newTestPipeline(t), nil,
		WithAdmission(AdmissionConfig{MaxInFlight: 4, Timeout: 250 * time.Millisecond}),
	)
	var gotDeadline bool
	h := s.admit(nil, func(w http.ResponseWriter, r *http.Request) {
		_, gotDeadline = r.Context().Deadline()
	})
	h(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/report", nil))
	if !gotDeadline {
		t.Fatal("admitted request carries no deadline")
	}

	// Without a timeout the context is left alone.
	s2 := NewPipelineServer(newTestPipeline(t), nil, WithAdmission(AdmissionConfig{MaxInFlight: 4}))
	h = s2.admit(nil, func(w http.ResponseWriter, r *http.Request) {
		_, gotDeadline = r.Context().Deadline()
	})
	h(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/report", nil))
	if gotDeadline {
		t.Fatal("timeout-less admission added a deadline")
	}
}

func TestClientRetriesThroughShedding(t *testing.T) {
	// A server that sheds the first two uploads with 429 + Retry-After and
	// accepts the third: a client built WithRetry should land the batch.
	p := newTestPipeline(t)
	inner := NewPipelineServer(p, nil)
	var sheds int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && sheds < 2 {
			sheds++
			w.Header().Set("Retry-After", "0")
			http.Error(w, "overloaded", http.StatusTooManyRequests)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := NewPipelineClient(srv.URL, p, WithRetry(cluster.RetryPolicy{
		MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
	}))
	r := rng.NewStream(99, 0)
	if err := c.Send(context.Background(), randomTuple(p.Schema(), r), r); err != nil {
		t.Fatalf("send through shedding: %v", err)
	}
	if sheds != 2 {
		t.Fatalf("sheds = %d, want 2", sheds)
	}
	if got := p.Watermark(); got != 1 {
		t.Fatalf("reports folded = %d, want 1", got)
	}
}

func TestSGDClientRetriesThroughShedding(t *testing.T) {
	// The first gradient upload meets a 503, the second a 429 with
	// Retry-After; the third lands. The trainer must accept each gradient
	// exactly once: neither refused attempt folded anything.
	cfg := pipeline.GradientConfig{Dim: 3, Rounds: 2, GroupSize: 8, Eta: 1}
	p, err := pipeline.New(gradSchema(t), 1, pipeline.WithGradient(cfg))
	if err != nil {
		t.Fatal(err)
	}
	inner := NewPipelineServer(p, nil)
	var posts int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts++
			switch posts {
			case 1:
				http.Error(w, "unavailable", http.StatusServiceUnavailable)
				return
			case 2:
				w.Header().Set("Retry-After", "0")
				http.Error(w, "overloaded", http.StatusTooManyRequests)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	sgd, err := NewSGDClient(srv.URL, p, erm.LogisticRegression, 0, WithRetry(cluster.RetryPolicy{
		MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	state, err := sgd.FetchModel(ctx)
	if err != nil {
		t.Fatal(err)
	}
	grads := [][]float64{{0.5, -0.5, 1}, {-1, 0, 0.25}, {2, -2, 0}}
	if err := sgd.SubmitGradients(ctx, state.Round, grads, rng.NewStream(99, 1)); err != nil {
		t.Fatalf("submit through shedding: %v", err)
	}
	if posts != 3 {
		t.Fatalf("posts = %d, want 3", posts)
	}
	if got := p.Trainer().Accepted(); got != int64(len(grads)) {
		t.Fatalf("trainer accepted %d gradients, want %d", got, len(grads))
	}
}

func TestHealthEndpoints(t *testing.T) {
	var walErr error
	s := NewPipelineServer(newTestPipeline(t), nil,
		WithReadyChecks(ReadyCheck{Name: "wal", Check: func() error { return walErr }}),
	)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}

	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	if rec := get("/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz while healthy: %d", rec.Code)
	}

	// A failing dependency flips readiness, not liveness, and is named.
	walErr = io.ErrClosedPipe
	rec := get("/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with failing check: %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "wal:") {
		t.Fatalf("readyz body does not name the failing check: %q", rec.Body.String())
	}
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz with failing readiness: %d", rec.Code)
	}

	// Draining: readyz 503 even with healthy checks.
	walErr = nil
	s.SetDraining(true)
	rec = get("/readyz")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("readyz while draining: %d %q", rec.Code, rec.Body.String())
	}
	s.SetDraining(false)
	if rec := get("/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz after drain cleared: %d", rec.Code)
	}
}
