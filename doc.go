// Package ldp is a Go implementation of "Collecting and Analyzing
// Multidimensional Data with Local Differential Privacy" (Wang et al.,
// ICDE 2019), grown into a unified analytics pipeline: the Piecewise
// Mechanism (PM) and Hybrid Mechanism (HM) for numeric data, the
// attribute-sampling collector for multidimensional records (Algorithm 4),
// frequency oracles (OUE, SUE, GRR), 1-D/2-D range queries over
// hierarchical intervals and grids, and an LDP-compliant stochastic
// gradient descent.
//
// The API is the task-based Pipeline: one object routes each user to a
// mean, frequency, or range task, randomizes their record locally under
// the full per-user budget eps, and aggregates every task's reports into
// one sharded, concurrently-ingestible state that answers every query
// kind. The paper's mixed-attribute collector (Algorithm 4 with Section
// IV-C's categorical extension) is the pipeline's JointTask: it samples k
// of all d attributes at eps/k each, and its reports fold into the same
// state. The mean and frequency tasks run the same sampling step over the
// numeric and the categorical attributes alone, the gradient task over a
// gradient's coordinates, and NumericCollector over an all-numeric tuple:
// one implementation of Algorithm 4 fixes k, the d/k scale and the order
// in which a user's randomness is drawn for all of them.
//
//	sch, _ := ldp.NewSchema(
//	    ldp.Attribute{Name: "age", Kind: ldp.Numeric},
//	    ldp.Attribute{Name: "gender", Kind: ldp.Categorical, Cardinality: 2},
//	)
//	p, _ := ldp.New(sch, 1.0, ldp.WithRange(ldp.RangeConfig{}), ldp.WithShards(8))
//
//	rep, _ := p.Randomize(tuple, ldp.NewRand(1)) // on the user's device
//	_ = p.Add(rep)                               // at the aggregator
//
//	res := p.View() // epoch-cached; p.Snapshot() forces a rebuild
//	mean, _ := res.Mean("age")
//	freqs, _ := res.Freq("gender")
//	mass, _ := res.Range(ldp.RangeQuery{Attr: "age", Lo: -0.4, Hi: -0.2})
//
// Reports travel as one versioned, task-multiplexed wire envelope
// (EncodeReport/DecodeReport). Over HTTP, NewPipelineServer serves ingest
// and queries on a single /v1/report + /v1/query route pair and
// NewPipelineClient submits batches with context support.
//
// The ingest hot path is batch-first: a buffer of concatenated frames
// decodes into a pooled columnar ReportBatch (DecodeReportBatch, with
// GetBatch/PutBatch recycling buffers) and Pipeline.AddBatch validates
// the whole batch up front, then folds one contiguous span per shard
// under a single lock acquisition — zero allocations per report in the
// steady state. A shard's state is flat numeric sums and frequency-oracle
// count columns (one per categorical attribute, range hierarchy level and
// 2-D grid); nothing is debiased until a query reads it. Per-report Add is AddBatch on a one-report batch, so
// every report passes the same single validator and the same fold
// however it arrives; AppendReport assembles batch uploads client-side
// without per-report allocation.
//
// The query hot path is epoch-cached: every fold advances a per-shard
// atomic epoch, and Pipeline.View serves one immutable memoized Result
// behind an atomic pointer for as long as the summed ingest watermark
// stays within the staleness bound (WithQueryStaleness; the default bound
// of 0 reports keeps queries exact). A cached hit is lock-free and
// allocation-free; a stale view is rebuilt single-flight, so a query
// stampede triggers at most one snapshot — and every rebuild is
// incremental: every fold marks the count columns it touched dirty under
// its shard lock (per-attribute freq and joint columns, hierarchy levels,
// grids), and the builder folds only the dirty columns' deltas into one
// running sum, skipping clean shards without taking their locks. The new
// view copies the changed columns, hierarchy levels and grids out of that
// sum and carries every clean one over from the previous view; only a
// pipeline's first build copies every column. The result is
// bit-identical to Snapshot at the same watermark — incremental
// maintenance changes the cost of a rebuild (delta-proportional instead
// of domain-proportional), never its answers. Inside a Result, frequency
// estimates debias lazily per queried attribute from raw pooled support
// counts, and each hierarchy level and 2-D grid is derived (debiased
// interval estimates, a Norm-Sub-consistent grid) on its first read in
// the view and shared after, so the first Range read of a changed slot
// allocates and every later Mean/FreqView/Range read is a pure lookup.
// The HTTP layer keys pre-encoded JSON bodies and ETags on
// Result.Epoch: dashboards polling /v1/query (and SGD participants
// polling /v1/model) with If-None-Match get 304 Not Modified until the
// state actually changes.
//
// Federated LDP-SGD (the paper's Section V) is the pipeline's fourth
// task. A pipeline built with WithGradient grows a Trainer: the server
// publishes the current model (GET /v1/model when served over HTTP), each
// participating user computes the gradient of the loss on their own
// example, clips it per-coordinate to [-1, 1], and submits only its
// Algorithm-4 randomization — k of the d coordinates, each perturbed at
// eps/k and scaled by d/k — tagged with the training round. When a
// round's group fills, the Trainer averages the unbiased noisy gradients,
// takes one SGD step (beta <- beta - eta/sqrt(t) * avg), and publishes a
// fresh immutable model through an atomic pointer, so model reads never
// block ingest. Each user participates in exactly one round (the paper
// shows budget-splitting across rounds is strictly worse).
//
//	cfg := ldp.GradientConfig{Dim: d, Rounds: 20, GroupSize: 512, Eta: 1, Lambda: 1e-4}
//	p, _ := ldp.New(sch, eps, ldp.WithGradient(cfg))     // both sides
//	// server: ldp.NewPipelineServer(p, nil) serves /v1/model + /v1/report
//	// client:
//	sgd, _ := ldp.NewSGDClient(url, p, ldp.LogisticRegression, 1e-4)
//	round, ok, _ := sgd.Contribute(ctx, x, y, r)         // one user, one round
//
// The statistical guarantees are enforced by internal/stattest rather
// than eyeballed tolerances: mechanisms and estimators must be unbiased
// within 5 standard errors over seeded many-trial runs, empirical
// variances must match the paper's closed forms within a stated factor,
// and the federated path must reach within a fixed accuracy margin of
// the non-private SGD baseline (see the acceptance tests in
// internal/transport).
//
// The privacy claims themselves are audited black-box: internal/audit
// samples each randomizer on pairs of inputs, bins the outputs, and
// bounds every binned likelihood ratio with exact one-sided
// Clopper-Pearson confidence intervals — an empirical lower bound on
// the true eps that refutes an overclaimed budget without reading any
// mechanism internals. Auditors cover the mean mechanisms, frequency
// oracles, both range-report encodings, the gradient mechanism, and
// the full client wire path (Randomize -> envelope -> DecodeBatch),
// and the CI slow job pairs each with a deliberately broken variant
// that must be caught. Audit (the facade entry point) checks one
// numeric mechanism; `ldpbench -exp audit` plots eps_emp against the
// claimed eps across the sweep.
//
// Beyond one machine, deployments run as an edge→root tier: edge
// aggregators face users and periodically push versioned, checksummed
// snapshot deltas of their additive state to a root's POST /v1/merge
// (internal/cluster; cmd/ldpserver -mode edge|root). The protocol is
// exactly-once — per-edge monotone sequence numbers scoped by a root
// boot ID make retries idempotent, and edges resynchronize after a
// restart — so the root's estimates are bit-identical to a single node
// that ingested every report itself: fan-in multiplies ingest capacity
// without touching accuracy or the privacy analysis. Each accepted
// report can also be WAL-persisted before it folds (internal/reportlog,
// with group-commit fsync batching), and the forwarder syncs the log
// before every push, so an edge crash never loses a report the root has
// counted.
//
// The service degrades predictably under overload and partial failure.
// Mutating routes sit behind a bounded in-flight admission limiter
// (WithAdmission): excess requests are shed with 429 + Retry-After
// before their body is read, on an allocation-free path, and the
// shipped clients treat 429 as retryable with the hint as a backoff
// floor and a wall-clock cap (RetryPolicy.MaxElapsed). An edge whose
// root stops answering trips a circuit breaker (BreakerConfig) and
// degrades to cheap jittered probes instead of full snapshot pushes.
// GET /healthz and GET /readyz expose liveness and readiness
// (WithReadyChecks: draining, WAL health, breaker state), and
// cmd/ldpserver shuts down in order on SIGINT/SIGTERM — flip readiness,
// drain requests, final edge push, WAL commit last — so a clean restart
// never loses an acknowledged report. internal/chaos verifies all of it
// with seeded, deterministic fault injection: under injected drops,
// blackholed responses, 5xx storms, latency, and truncated bodies, the
// root's estimates must stay bit-identical to a no-fault run.
//
// Deployments observe themselves through a shared metrics registry
// (NewTelemetryRegistry): WithTelemetry instruments the pipeline's
// ingest, view-cache, and trainer state, WithServerTelemetry adds
// per-route HTTP metrics and a Prometheus GET /metrics route, and
// WithRequestLog emits structured per-request log lines. Telemetry
// follows the hot-path discipline of the rest of the system — per-batch
// counters, scrape-time reads of existing aggregator state, and no
// allocations on the instrumented ingest or cached-query paths (the
// instrumented benchmarks are pinned at 0 allocs/op in CI).
//
// The pre-pipeline API (NewCollector, NewAggregator, NewServer,
// NewRangeCollector, ...) and its version-1 wire frames are retired; the
// MIGRATION section of the README maps each removed symbol and route to
// its replacement.
//
// See the examples/ directory for runnable end-to-end programs and
// cmd/ldpbench for the harness that regenerates every table and figure of
// the paper's evaluation.
package ldp
