package transport

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"ldp/internal/cluster"
	"ldp/internal/pipeline"
	"ldp/internal/rng"
	"ldp/internal/schema"
)

// ClientOption configures the HTTP behavior of the transport clients.
type ClientOption func(*clientConfig)

type clientConfig struct {
	http    *http.Client
	timeout time.Duration
	retry   cluster.RetryPolicy
	retryOn bool
}

// WithRetry retries failed report uploads under the given policy:
// connection errors and 5xx responses back off exponentially with full
// jitter and try again (the server folds nothing on those responses, so
// redelivery cannot double-count); a 429 is retried at the cadence of the
// server's Retry-After hint (an overloaded aggregator shed the batch
// before decoding it, so redelivery is equally safe); other 4xx responses
// never retry. The whole loop is cut off by the policy's MaxElapsed
// wall-clock deadline, which also cancels in-flight requests, so a root
// that trickles bytes cannot stall a client batch indefinitely. The zero
// policy's fields fall back to cluster.DefaultRetryPolicy, so
// WithRetry(cluster.RetryPolicy{}) asks for default bounded retries.
// Without this option requests are single-shot, as before.
func WithRetry(p cluster.RetryPolicy) ClientOption {
	return func(c *clientConfig) { c.retry = p; c.retryOn = true }
}

// WithHTTPClient uses the given http.Client instead of
// http.DefaultClient (connection pools, proxies, TLS configuration).
func WithHTTPClient(h *http.Client) ClientOption {
	return func(c *clientConfig) { c.http = h }
}

// WithTimeout bounds each request (including reading the response). It
// layers on top of WithHTTPClient by shallow-copying the client with the
// timeout set.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *clientConfig) { c.timeout = d }
}

func resolveHTTP(cfg clientConfig) *http.Client {
	h := cfg.http
	if h == nil {
		h = http.DefaultClient
	}
	if cfg.timeout > 0 {
		clone := *h
		clone.Timeout = cfg.timeout
		h = &clone
	}
	return h
}

// PipelineClient runs on the user's side of the unified pipeline: it
// randomizes tuples locally (the true tuple never leaves the process) and
// submits only versioned envelope frames to the aggregator's /v1/report
// route, singly or in batches. It is safe for concurrent use with
// per-goroutine PRNGs.
type PipelineClient struct {
	baseURL string
	p       *pipeline.Pipeline
	http    *http.Client
	retry   cluster.RetryPolicy
	retryOn bool
}

// NewPipelineClient builds a client for the aggregator at baseURL (no
// trailing slash required), randomizing through the given pipeline.
func NewPipelineClient(baseURL string, p *pipeline.Pipeline, opts ...ClientOption) *PipelineClient {
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	var cfg clientConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return &PipelineClient{
		baseURL: baseURL, p: p,
		http:  resolveHTTP(cfg),
		retry: cfg.retry, retryOn: cfg.retryOn,
	}
}

// Send randomizes one tuple and posts the resulting frame.
func (c *PipelineClient) Send(ctx context.Context, t schema.Tuple, r *rng.Rand) error {
	rep, err := c.p.Randomize(t, r)
	if err != nil {
		return fmt.Errorf("transport: randomize: %w", err)
	}
	return c.SendReport(ctx, rep)
}

// SendBatch randomizes a batch of tuples and posts all resulting frames
// in one request. The server validates — and, when persistence is on,
// journals — the whole batch before folding any of it in, so a rejected
// batch (400) or a persistence failure (500) has ingested nothing;
// clients built WithRetry redeliver on 5xx and connection errors without
// risk of double-counting.
func (c *PipelineClient) SendBatch(ctx context.Context, tuples []schema.Tuple, r *rng.Rand) error {
	if len(tuples) == 0 {
		return nil
	}
	reps := make([]pipeline.Report, len(tuples))
	for i, t := range tuples {
		rep, err := c.p.Randomize(t, r)
		if err != nil {
			return fmt.Errorf("transport: randomize tuple %d: %w", i, err)
		}
		reps[i] = rep
	}
	return c.SendReports(ctx, reps)
}

// SendReport posts one already-randomized report.
func (c *PipelineClient) SendReport(ctx context.Context, rep pipeline.Report) error {
	return c.SendReports(ctx, []pipeline.Report{rep})
}

// SendReports posts already-randomized reports as one batch.
func (c *PipelineClient) SendReports(ctx context.Context, reps []pipeline.Report) error {
	if len(reps) == 0 {
		return nil
	}
	var body []byte
	for i, rep := range reps {
		var err error
		body, err = AppendEnvelope(body, rep)
		if err != nil {
			return fmt.Errorf("transport: encode report %d: %w", i, err)
		}
	}
	if len(body) > MaxBatchSize {
		return fmt.Errorf("transport: batch of %d bytes exceeds limit %d", len(body), MaxBatchSize)
	}
	if !c.retryOn {
		_, err := c.post(ctx, body)
		return err
	}
	return c.retry.Do(ctx, func(ctx context.Context) (bool, error) { return c.post(ctx, body) })
}

// post delivers one encoded batch, reporting whether a failure is worth
// retrying: connection errors, 5xx responses, and 429 load shedding are
// (the server folds nothing on those), other 4xx responses are not.
func (c *PipelineClient) post(ctx context.Context, body []byte) (retryable bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+"/v1/report", bytes.NewReader(body))
	if err != nil {
		return false, fmt.Errorf("transport: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.http.Do(req)
	if err != nil {
		return true, fmt.Errorf("transport: post reports: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return respFailure(resp)
	}
	return false, nil
}

// respFailure classifies a non-success report-upload response into
// (retryable, error), folding a 429's Retry-After hint into the error so
// the retry policy can honor it.
func respFailure(resp *http.Response) (retryable bool, err error) {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	err = fmt.Errorf("transport: aggregator rejected batch: %s: %s", resp.Status, bytes.TrimSpace(msg))
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return true, &cluster.RetryAfterError{
			Err:   err,
			After: cluster.ParseRetryAfter(resp.Header.Get("Retry-After")),
		}
	case resp.StatusCode >= 500:
		return true, err
	default:
		return false, err
	}
}
