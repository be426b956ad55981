package pipeline

import (
	"strconv"

	"ldp/internal/telemetry"
)

// pipelineMetrics holds the pipeline's hot-path metric handles. When the
// pipeline is built without WithTelemetry every handle is nil, and every
// handle method is a nil-safe no-op, so the instrumentation sites read
// identically whether or not a registry is wired in.
//
// The split between handle-backed and func-backed series is deliberate:
// only signals that cannot be recovered from existing program state get a
// hot-path handle (batch count, batch size, rejects, view cache traffic,
// rebuild latency), and each of those sits on a once-per-batch or
// once-per-query edge — never inside the per-report fold loops. Per-task
// report counts, shard fills, the watermark, and the trainer's round
// state are already maintained by the fold paths, so they are exposed as
// scrape-time funcs and cost the ingest hot path nothing.
type pipelineMetrics struct {
	batches       *telemetry.Counter   // batches folded by AddBatch
	batchSize     *telemetry.Histogram // reports per folded batch
	rejectBatches *telemetry.Counter   // batches rejected by validation
	rejectReports *telemetry.Counter   // single reports rejected by validation

	viewHits   *telemetry.Counter   // queries served from the cached view
	viewMisses *telemetry.Counter   // view rebuilds (snapshots)
	viewLosers *telemetry.Counter   // stale serves while a rebuild was in flight
	rebuild    *telemetry.Histogram // rebuild latency, ns

	rebuildInc  *telemetry.Counter   // delta-proportional (incremental) rebuilds
	rebuildFull *telemetry.Counter   // first builds, which copy every column
	dirtyShards *telemetry.Histogram // shards with any dirty component per incremental rebuild
	dirtyComps  *telemetry.Histogram // dirty components (attrs + levels + grids) per incremental rebuild
}

// initTelemetry registers the pipeline's metric families on reg and
// captures the hot-path handles. Called once from New, after the shards
// and trainer exist, so the func-backed series close over live state. A
// nil registry registers nothing and leaves every handle nil.
func (p *Pipeline) initTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	m := &p.met
	m.batches = reg.Counter("ldp_ingest_batches_total",
		"Report batches folded by AddBatch.")
	m.batchSize = reg.Histogram("ldp_ingest_batch_size",
		"Reports per folded batch (power-of-two buckets).")
	const rejectsHelp = "Ingest submissions rejected by validation, by path (batch or single report)."
	m.rejectBatches = reg.Counter("ldp_ingest_rejects_total", rejectsHelp, telemetry.L("path", "batch"))
	m.rejectReports = reg.Counter("ldp_ingest_rejects_total", rejectsHelp, telemetry.L("path", "report"))

	const reportsHelp = "Reports folded into the aggregate state, by task."
	kinds := []TaskKind{TaskJoint} // every pipeline has a joint task
	if p.mean != nil {
		kinds = append(kinds, TaskMean)
	}
	if p.freq != nil {
		kinds = append(kinds, TaskFreq)
	}
	if p.rangeT != nil {
		kinds = append(kinds, TaskRange)
	}
	for _, kind := range kinds {
		reg.CounterFunc("ldp_ingest_reports_total", reportsHelp,
			func() float64 { return float64(p.TaskCounts()[kind]) },
			telemetry.L("task", kind.String()))
	}
	if p.trainer != nil {
		reg.CounterFunc("ldp_ingest_reports_total", reportsHelp,
			func() float64 { return float64(p.trainer.Accepted()) },
			telemetry.L("task", TaskGradient.String()))
	}
	for i, sh := range p.shards {
		reg.GaugeFunc("ldp_ingest_shard_reports",
			"Reports folded per aggregation shard.",
			func() float64 { return float64(sh.epoch.Load()) },
			telemetry.L("shard", strconv.Itoa(i)))
	}
	reg.GaugeFunc("ldp_ingest_watermark",
		"Total reports folded into shard state (the query-view freshness signal).",
		func() float64 { return float64(p.Watermark()) })

	m.viewHits = reg.Counter("ldp_view_hits_total",
		"Queries served from the cached view without a rebuild.")
	m.viewMisses = reg.Counter("ldp_view_misses_total",
		"Cached-view rebuilds (snapshots over all shards).")
	m.viewLosers = reg.Counter("ldp_view_losers_total",
		"Queries that served the previous view while a rebuild was in flight.")
	m.rebuild = reg.Histogram("ldp_view_rebuild_duration_ns",
		"Latency of cached-view rebuilds in nanoseconds (power-of-two buckets).")
	const rebuildKindHelp = "Cached-view rebuilds by kind: incremental (delta-proportional) or full (a pipeline's first build, which has no previous view)."
	m.rebuildInc = reg.Counter("ldp_view_rebuilds_total", rebuildKindHelp, telemetry.L("kind", "incremental"))
	m.rebuildFull = reg.Counter("ldp_view_rebuilds_total", rebuildKindHelp, telemetry.L("kind", "full"))
	m.dirtyShards = reg.Histogram("ldp_view_dirty_shards",
		"Shards carrying any dirty component per incremental rebuild (power-of-two buckets).")
	m.dirtyComps = reg.Histogram("ldp_view_dirty_components",
		"Dirty components (attributes, hierarchy levels, grids) synced per incremental rebuild (power-of-two buckets).")
	reg.GaugeFunc("ldp_view_epoch",
		"Build counter of the cached query view.",
		func() float64 { return float64(p.view.seq.Load()) })

	if tr := p.trainer; tr != nil {
		reg.GaugeFunc("ldp_trainer_round",
			"Federated SGD round currently collecting gradients.",
			func() float64 { return float64(tr.Model().Round) })
		reg.GaugeFunc("ldp_trainer_done",
			"1 once every SGD round has advanced, else 0.",
			func() float64 {
				if tr.Model().Done {
					return 1
				}
				return 0
			})
		reg.CounterFunc("ldp_trainer_accepted_total",
			"Gradient reports folded into a round.",
			func() float64 { return float64(tr.Accepted()) })
		reg.CounterFunc("ldp_trainer_stale_total",
			"Gradient reports dropped for a non-current round tag.",
			func() float64 { return float64(tr.Stale()) })
		reg.GaugeFunc("ldp_trainer_group_fill",
			"Gradient reports accumulated toward the current round's group.",
			func() float64 { return float64(tr.Fill()) })
	}
}
