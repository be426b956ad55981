package transport

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"ldp/internal/dataset"
	"ldp/internal/erm"
	"ldp/internal/pipeline"
	"ldp/internal/rng"
)

// SGDClient runs on the user's side of the federated LDP-SGD protocol:
// it polls the aggregator's published model, computes the local loss
// gradient on the user's own example, and submits only the clipped,
// randomized gradient through the gradient task. Raw features, labels,
// and exact gradients never leave the process. Uploads go through a
// PipelineClient built from the same options, so gradient reports share
// its route, size cap and retry policy. It is safe for concurrent use
// with per-goroutine PRNGs.
type SGDClient struct {
	pc     *PipelineClient
	grad   *pipeline.GradientTask
	task   erm.Task
	lambda float64
}

// NewSGDClient builds a client for the aggregator at baseURL. The
// pipeline must be built with the same WithGradient configuration as the
// server's (it supplies the randomizer); task and lambda select the loss
// the population trains.
func NewSGDClient(baseURL string, p *pipeline.Pipeline, task erm.Task, lambda float64, opts ...ClientOption) (*SGDClient, error) {
	if p == nil || p.GradientTask() == nil {
		return nil, fmt.Errorf("transport: SGDClient needs a pipeline built with WithGradient")
	}
	if lambda < 0 {
		return nil, fmt.Errorf("transport: negative lambda %v", lambda)
	}
	return &SGDClient{
		pc:     NewPipelineClient(baseURL, p, opts...),
		grad:   p.GradientTask(),
		task:   task,
		lambda: lambda,
	}, nil
}

// FetchModel retrieves the current model state from GET /v1/model.
func (c *SGDClient) FetchModel(ctx context.Context) (ModelState, error) {
	var state ModelState
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.pc.baseURL+"/v1/model", nil)
	if err != nil {
		return state, fmt.Errorf("transport: build request: %w", err)
	}
	resp, err := c.pc.http.Do(req)
	if err != nil {
		return state, fmt.Errorf("transport: fetch model: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return state, fmt.Errorf("transport: model endpoint: %s: %s", resp.Status, msg)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<24)).Decode(&state); err != nil {
		return state, fmt.Errorf("transport: decode model: %w", err)
	}
	if len(state.Beta) != c.grad.Dim() {
		return state, fmt.Errorf("transport: model has %d coordinates, client built for %d", len(state.Beta), c.grad.Dim())
	}
	return state, nil
}

// SubmitGradient clips and randomizes one raw local gradient for the
// given round and posts the resulting frame to /v1/report.
func (c *SGDClient) SubmitGradient(ctx context.Context, round int, grad []float64, r *rng.Rand) error {
	return c.SubmitGradients(ctx, round, [][]float64{grad}, r)
}

// SubmitGradients randomizes a group of raw local gradients for the same
// round and posts all frames in one request — the batch path a
// coordinator simulating many users should prefer. Clients built
// WithRetry redeliver on connection errors, 5xx and 429 load shedding:
// the server folds nothing on those responses, so redelivery cannot
// double-count a gradient.
func (c *SGDClient) SubmitGradients(ctx context.Context, round int, grads [][]float64, r *rng.Rand) error {
	reps := make([]pipeline.Report, len(grads))
	for i, g := range grads {
		rep, err := c.grad.RandomizeGradient(round, g, r)
		if err != nil {
			return fmt.Errorf("transport: randomize gradient %d: %w", i, err)
		}
		reps[i] = rep
	}
	return c.pc.SendReports(ctx, reps)
}

// SubmitExamples computes each example's loss gradient at the given
// model state and submits all their clipped randomizations for its round
// in one batched upload: the coordinator-style driver for simulating a
// whole group of users (each example still yields exactly one report).
func (c *SGDClient) SubmitExamples(ctx context.Context, state ModelState, examples []dataset.ERMExample, r *rng.Rand) error {
	if state.Done {
		return fmt.Errorf("transport: training already finished at round %d", state.Round)
	}
	grads := make([][]float64, 0, len(examples))
	for i, ex := range examples {
		if len(ex.X) != c.grad.Dim() {
			return fmt.Errorf("transport: example %d has %d features, model has %d", i, len(ex.X), c.grad.Dim())
		}
		y := ex.YCls
		if c.task == erm.LinearRegression {
			y = ex.YReg
		}
		grads = append(grads, erm.Gradient(c.task, state.Beta, ex.X, y, c.lambda, make([]float64, len(ex.X))))
	}
	return c.SubmitGradients(ctx, state.Round, grads, r)
}

// Contribute performs one user's whole protocol step: fetch the current
// model, compute the local gradient of the configured loss at (x, y),
// and submit its clipped randomization tagged with the model's round. It
// returns the round contributed to, or ok=false (and no error) when
// training has already finished. Each user should call it exactly once —
// the paper's one-user-one-iteration rule.
func (c *SGDClient) Contribute(ctx context.Context, x []float64, y float64, r *rng.Rand) (round int, ok bool, err error) {
	state, err := c.FetchModel(ctx)
	if err != nil {
		return 0, false, err
	}
	if state.Done {
		return state.Round, false, nil
	}
	if len(x) != c.grad.Dim() {
		return 0, false, fmt.Errorf("transport: example has %d features, model has %d", len(x), c.grad.Dim())
	}
	grad := erm.Gradient(c.task, state.Beta, x, y, c.lambda, make([]float64, len(x)))
	if err := c.SubmitGradient(ctx, state.Round, grad, r); err != nil {
		return 0, false, err
	}
	return state.Round, true, nil
}
