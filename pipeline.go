package ldp

import (
	"log/slog"
	"time"

	"ldp/internal/cluster"
	"ldp/internal/pipeline"
	"ldp/internal/telemetry"
	"ldp/internal/transport"
)

// The unified task-based pipeline. A Pipeline is the system of the paper's
// Section II as one object: users are routed to one of the registered
// tasks (mean, frequency, range), randomize their tuple locally under the
// full budget eps, and the aggregator folds every task's reports into one
// sharded state that answers every query kind.
//
//	sch, _ := ldp.NewSchema(
//	    ldp.Attribute{Name: "age", Kind: ldp.Numeric},
//	    ldp.Attribute{Name: "gender", Kind: ldp.Categorical, Cardinality: 2},
//	)
//	p, _ := ldp.New(sch, 1.0, ldp.WithMechanism(ldp.HM), ldp.WithOracle(ldp.OUE),
//	    ldp.WithRange(ldp.RangeConfig{}), ldp.WithShards(8))
//
//	rep, _ := p.Randomize(tuple, r) // on the user's device
//	_ = p.Add(rep)                  // at the aggregator
//
//	res := p.View() // epoch-cached; p.Snapshot() forces a rebuild
//	mean, _ := res.Mean("age")
//	freqs, _ := res.Freq("gender")
//	mass, _ := res.Range(ldp.RangeQuery{Attr: "age", Lo: -0.4, Hi: -0.2})
type (
	// Pipeline is the unified collector/aggregator.
	Pipeline = pipeline.Pipeline
	// PipelineOption configures a Pipeline under construction.
	PipelineOption = pipeline.Option
	// Task is one randomization sub-task of a Pipeline (MeanTask,
	// FreqTask, RangeTask, or JointTask).
	Task = pipeline.Task
	// TaskKind tags a task and its reports.
	TaskKind = pipeline.TaskKind
	// MeanTask estimates numeric means (Algorithm 4 over numeric attrs).
	MeanTask = pipeline.MeanTask
	// FreqTask estimates categorical frequencies.
	FreqTask = pipeline.FreqTask
	// RangeTask answers 1-D/2-D range queries.
	RangeTask = pipeline.RangeTask
	// JointTask is the paper's Algorithm 4 over the whole schema: it
	// samples k of all d attributes, numeric and categorical, at eps/k
	// each (Pipeline.JointTask; never routed).
	JointTask = pipeline.JointTask
	// GradientTask randomizes clipped user gradients for federated
	// LDP-SGD (registered with WithGradient).
	GradientTask = pipeline.GradientTask
	// GradientConfig parameterizes the federated SGD task.
	GradientConfig = pipeline.GradientConfig
	// Trainer is the server-side federated SGD coordinator: it fills
	// rounds with gradient reports and advances the published model.
	Trainer = pipeline.Trainer
	// Model is an immutable published model snapshot (Trainer.Model).
	Model = pipeline.Model
	// Report is one user's randomized submission: exactly one task's
	// payload under a task tag.
	Report = pipeline.Report
	// Result is an immutable snapshot of a Pipeline's aggregate state
	// with Mean/Freq/Range queries.
	Result = pipeline.Result
	// RangeQuery describes a 1-D or conjunctive 2-D range query against
	// a Result.
	RangeQuery = pipeline.RangeQuery
	// ReportBatch is a reusable columnar batch of reports: the unit of
	// work of the ingest hot path (Pipeline.AddBatch folds one whole
	// batch under a single lock acquisition per shard).
	ReportBatch = pipeline.ReportBatch
)

// Task kinds.
const (
	// TaskMean tags mean-task reports.
	TaskMean = pipeline.TaskMean
	// TaskFreq tags freq-task reports.
	TaskFreq = pipeline.TaskFreq
	// TaskRange tags range-task reports.
	TaskRange = pipeline.TaskRange
	// TaskJoint tags Algorithm-4 mixed reports (made by JointTask).
	TaskJoint = pipeline.TaskJoint
	// TaskGradient tags federated SGD gradient reports.
	TaskGradient = pipeline.TaskGradient
)

// New builds the unified pipeline for schema s at total per-user budget
// eps. Tasks are derived from the schema: a mean task when s has numeric
// attributes, a freq task when it has categorical attributes, and a range
// task when WithRange is given.
func New(s *Schema, eps float64, opts ...PipelineOption) (*Pipeline, error) {
	return pipeline.New(s, eps, opts...)
}

// WithMechanism selects the numeric 1-D mechanism factory (default HM).
func WithMechanism(f MechanismFactory) PipelineOption { return pipeline.WithMechanism(f) }

// WithOracle selects the frequency-oracle factory (default OUE).
func WithOracle(f OracleFactory) PipelineOption { return pipeline.WithOracle(f) }

// WithRange registers the range-query task (the zero RangeConfig selects
// B=256 hierarchy buckets, 8x8 grids, and the pipeline's oracle).
func WithRange(cfg RangeConfig) PipelineOption { return pipeline.WithRange(cfg) }

// WithShards sets the number of aggregation shards (default 1; servers
// should set it near GOMAXPROCS).
func WithShards(n int) PipelineOption { return pipeline.WithShards(n) }

// WithTaskWeight sets the routing weight of a registered task (default 1
// each; weights are normalized, 0 disables routing to the task).
func WithTaskWeight(kind TaskKind, w float64) PipelineOption {
	return pipeline.WithTaskWeight(kind, w)
}

// WithQueryStaleness bounds how stale the epoch-cached query view
// (Pipeline.View) may get before a query rebuilds it: the cached Result
// is served while it trails the ingest watermark by at most `reports`
// reports and is younger than maxAge (0 disables the age bound). The
// default bound of 0 reports serves the cache only while no new report
// has arrived, so queries are always exact; servers answering heavy
// dashboard traffic under full-rate ingest should set a real bound.
// Result.Epoch, Result.Watermark, and Result.BuiltAt identify a cached
// view; Result.FreqView and Result.RangeView answer from it, allocating
// only on the first read of each attribute, hierarchy level or grid.
func WithQueryStaleness(reports int64, maxAge time.Duration) PipelineOption {
	return pipeline.WithQueryStaleness(reports, maxAge)
}

// TelemetryRegistry collects the system's metrics: zero-allocation
// counters, gauges, and latency histograms with Prometheus text
// exposition (Handler/WriteProm) and an expvar bridge (Expvar). One
// registry is shared across the pipeline and its HTTP server.
type TelemetryRegistry = telemetry.Registry

// NewTelemetryRegistry returns an empty metrics registry; pass it to
// WithTelemetry and WithServerTelemetry to instrument a deployment.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// WithTelemetry registers the pipeline's ingest, view-cache, and trainer
// metrics on reg. The fold loops gain no atomics: hot counters are
// per-batch, and aggregate counts are read from existing state at scrape
// time, so the instrumented ingest path stays allocation-free and within
// measurement noise of the plain one.
func WithTelemetry(reg *TelemetryRegistry) PipelineOption { return pipeline.WithTelemetry(reg) }

// WithGradient registers the federated LDP-SGD task: the pipeline grows a
// Trainer that fills rounds with clipped, randomized gradient reports and
// advances the published model one SGD step per round. Clients randomize
// with GradientTask.RandomizeGradient (or SGDClient over HTTP); tuples
// are never routed to this task.
func WithGradient(cfg GradientConfig) PipelineOption { return pipeline.WithGradient(cfg) }

// NewReportBatch returns an empty report batch. Continuous ingest should
// prefer GetBatch/PutBatch, which recycle grown buffers through a pool.
func NewReportBatch() *ReportBatch { return pipeline.NewReportBatch() }

// GetBatch returns an empty report batch from the package pool; return it
// with PutBatch to keep the steady-state ingest path allocation-free.
func GetBatch() *ReportBatch { return pipeline.GetBatch() }

// PutBatch resets a batch and returns it to the package pool.
func PutBatch(b *ReportBatch) { pipeline.PutBatch(b) }

// EncodeReport serializes a unified report into the versioned,
// task-multiplexed binary wire envelope.
func EncodeReport(rep Report) ([]byte, error) { return transport.EncodeEnvelope(rep) }

// AppendReport appends a report's wire envelope to dst and returns the
// extended buffer; with a reused buffer it allocates nothing, so a whole
// batch upload can be assembled without per-report allocation.
func AppendReport(dst []byte, rep Report) ([]byte, error) { return transport.AppendEnvelope(dst, rep) }

// DecodeReportBatch decodes a buffer of concatenated report frames into a
// columnar batch, ready for Pipeline.AddBatch, and returns the number of
// frames decoded.
func DecodeReportBatch(body []byte, b *ReportBatch) (int, error) {
	return transport.DecodeBatch(body, b)
}

// DecodeReport parses one report's wire envelope. Frames in the retired
// version-1 formats fail with an unsupported-version or bad-magic error.
func DecodeReport(frame []byte) (Report, error) { return transport.DecodeEnvelope(frame) }

// The unified HTTP pipeline.
type (
	// PipelineServer serves ingest and queries for a Pipeline on a
	// single route pair (POST /v1/report, GET /v1/query).
	PipelineServer = transport.PipelineServer
	// PipelineClient randomizes locally and submits envelope frames,
	// singly or in batches, with context support.
	PipelineClient = transport.PipelineClient
	// ClientOption configures the HTTP behavior of transport clients.
	ClientOption = transport.ClientOption
	// SGDClient runs the user's side of federated LDP-SGD over HTTP:
	// poll the model, compute the local gradient, submit its clipped
	// randomization.
	SGDClient = transport.SGDClient
	// ModelState is the JSON body of GET /v1/model.
	ModelState = transport.ModelState
	// ServerOption configures a PipelineServer under construction.
	ServerOption = transport.ServerOption
)

// NewPipelineServer wraps a pipeline (and optional persistence sink; nil
// disables persistence) in an HTTP handler.
func NewPipelineServer(p *Pipeline, sink transport.Sink, opts ...ServerOption) *PipelineServer {
	return transport.NewPipelineServer(p, sink, opts...)
}

// WithServerTelemetry registers the server's per-route HTTP metrics
// (requests by status class, latency, bytes, 304s, decode-error taxonomy)
// on reg and serves the whole registry on GET /metrics.
func WithServerTelemetry(reg *TelemetryRegistry) ServerOption {
	return transport.WithServerTelemetry(reg)
}

// WithRequestLog emits one structured debug-level log line per request
// through log; at higher levels the request path pays only an Enabled
// check.
func WithRequestLog(log *slog.Logger) ServerOption { return transport.WithRequestLog(log) }

// NewPipelineClient builds an HTTP client for the aggregator at baseURL,
// randomizing through the given pipeline.
func NewPipelineClient(baseURL string, p *Pipeline, opts ...ClientOption) *PipelineClient {
	return transport.NewPipelineClient(baseURL, p, opts...)
}

// NewSGDClient builds a federated SGD client for the aggregator at
// baseURL; the pipeline must be built with the server's WithGradient
// configuration, and task/lambda select the trained loss.
var NewSGDClient = transport.NewSGDClient

// EncodeGradientReport serializes a gradient report into the versioned
// wire envelope (AppendReport/EncodeReport also accept gradient reports).
var EncodeGradientReport = transport.EncodeGradientReport

// WithHTTPClient uses a custom *http.Client for a transport client.
var WithHTTPClient = transport.WithHTTPClient

// WithTimeout bounds each transport-client request.
var WithTimeout = transport.WithTimeout

// RetryPolicy bounds retries of transient transport failures with
// exponential backoff and full jitter.
type RetryPolicy = cluster.RetryPolicy

// DefaultRetryPolicy is the policy WithRetry and the cluster forwarder
// use when fields are left zero.
var DefaultRetryPolicy = cluster.DefaultRetryPolicy

// WithRetry makes a transport client retry batch uploads on connection
// errors and 5xx responses. Safe because the server persists and folds
// a batch only after fully validating it: a failed request ingested
// nothing, so a retry cannot double-count.
var WithRetry = transport.WithRetry

// Forwarder pushes an edge pipeline's aggregate state to a root
// aggregator's POST /v1/merge as exactly-once snapshot deltas; run one
// per edge process (see cmd/ldpserver -mode edge).
type Forwarder = cluster.Forwarder

// ForwarderConfig configures a Forwarder.
type ForwarderConfig = cluster.ForwarderConfig

// NewForwarder builds a fan-in forwarder for an edge pipeline.
var NewForwarder = cluster.NewForwarder

// BreakerConfig tunes the forwarder's push circuit breaker (failure
// threshold, cooldown, cooldown cap). Zero fields pick defaults.
type BreakerConfig = cluster.BreakerConfig

// ErrBreakerOpen reports a push skipped because the forwarder's circuit
// breaker is open: the root failed repeatedly and the cooldown has not
// elapsed, so the cycle fails fast instead of doing snapshot + network
// work that cannot succeed.
var ErrBreakerOpen = cluster.ErrBreakerOpen

// RetryAfterError wraps a retryable failure with the server's
// Retry-After hint; retry policies use the hint as a backoff floor.
type RetryAfterError = cluster.RetryAfterError

// AdmissionConfig bounds the mutating work a PipelineServer accepts:
// requests beyond MaxInFlight are shed with 429 + Retry-After before
// their body is read.
type AdmissionConfig = transport.AdmissionConfig

// WithAdmission enables admission control on a PipelineServer's
// mutating routes.
func WithAdmission(cfg AdmissionConfig) ServerOption { return transport.WithAdmission(cfg) }

// ReadyCheck is one named readiness probe evaluated by GET /readyz.
type ReadyCheck = transport.ReadyCheck

// WithReadyChecks adds readiness probes to a PipelineServer (e.g. WAL
// health, an edge's push breaker).
func WithReadyChecks(checks ...ReadyCheck) ServerOption {
	return transport.WithReadyChecks(checks...)
}

// ReplayPipeline rebuilds pipeline state from persisted report frames,
// e.g. at startup with reportlog.Replay. Frames decode and validate on
// GOMAXPROCS workers and fold in log order, so the state is bit-identical
// to a serial replay's.
func ReplayPipeline(p *Pipeline, frames func(fn func(payload []byte) error) error) (int, error) {
	return transport.ReplayPipeline(p, frames)
}
