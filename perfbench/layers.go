package main

import (
	"math"
	"slices"
	"strings"
	"time"
)

// perLayer lists the per-layer metrics with their units, in the order
// README.md documents them. in names the workloads whose ops run the
// layer ("" = every workload); a traced run prints the metrics that apply
// to its workload. The JSON result (and BENCHMARK.json's per_layer) holds
// the json ones: measured on every workload and varying from run to run,
// unlike counts that read exactly 1 or 0 per op by construction.
var perLayer = []struct {
	name, unit, in string
	json           bool
}{
	{"pipeline.randomize_us", "us", "ingest", false}, // per report
	{"mech.randomize_us", "us", "ingest", false},
	{"freq.randomize_us", "us", "ingest", false},
	{"rangequery.randomize_us", "us", "ingest", false},
	{"transport.encode_us", "us", "ingest", false}, // per report
	{"transport.wire_bytes_per_report", "B", "", true},
	{"transport.report_rtt_us", "us", "", true}, // per upload
	{"transport.report_handler_us", "us", "", true},
	{"transport.report_wait_us", "us", "", true},
	{"transport.decode_us", "us", "", true}, // per report, on the twin
	{"pipeline.validate_us", "us", "", true},
	{"pipeline.fold_us", "us", "", true},
	{"reportlog.append_us", "us", "", true}, // per record
	{"reportlog.bytes_per_report", "B", "", true},
	{"reportlog.replay_read_s", "s", "", true}, // per restart
	{"transport.replay_decode_fold_s", "s", "", true},
	{"pipeline.view_rebuild_us", "us", "dashboard fanin", false}, // per rebuild
	{"pipeline.view_rebuilds_incremental", "1/op", "dashboard fanin", false},
	{"pipeline.view_rebuilds_full", "1/op", "dashboard fanin", false},
	{"pipeline.view_dirty_components", "1/op", "dashboard fanin", false},
	{"pipeline.ingest_batches", "1/op", "", false},
	{"transport.query_rtt_us", "us", "dashboard fanin", false}, // per query
	{"transport.query_handler_us", "us", "dashboard fanin", false},
	{"transport.query_bytes", "B", "dashboard fanin", false},
	{"cluster.push_us", "us", "fanin", false},   // per op
	{"reportlog.sync_us", "us", "fanin", false}, // per push
	{"cluster.snapshot_us", "us", "fanin", false},
	{"cluster.encode_us", "us", "fanin", false},
	{"cluster.decode_us", "us", "fanin", false},
	{"cluster.snapshot_bytes", "B", "fanin", false},
	{"transport.merge_handler_us", "us", "fanin", false},
	{"pipeline.merge_state_us", "us", "fanin", false},
	{"cluster.merges_applied", "1/op", "fanin", false},
	{"cluster.merges_duplicate", "1/op", "fanin", false},
	{"cluster.pushes_applied", "1/op", "fanin", false},
	{"cluster.pushes_duplicate", "1/op", "fanin", false},
	{"cluster.pushed_bytes", "B/op", "fanin", false},
	{"transport.shed", "1/kop", "", false},
	{"transport.decode_errors", "1/kop", "", false},
	{"cluster.push_failed", "1/kop", "fanin", false},
	{"runtime.allocs_per_op", "1/op", "", true},
	{"runtime.alloc_kb_per_op", "KiB/op", "", true},
	{"runtime.gc_per_kop", "1/kop", "", true},
	{"runtime.sched_wait_p90_us", "us", "", true},
	{"trace.op_coverage", "1", "", true},
	{"trace.overhead", "1", "", true},
	{"op_p99_ms", "ms", "", true},
	{"op_p999_ms", "ms", "", true},
}

// appliesTo reports whether a perLayer entry's layer runs in workload w.
func appliesTo(in, w string) bool {
	return in == "" || slices.Contains(strings.Fields(in), w)
}

// runtimeMetrics are the allocation, GC and scheduler figures per op
// over the windows the timing metrics used.
func runtimeMetrics(u []usage, ws windowStats) map[string]float64 {
	var allocs, bytes, gcs uint64
	var sched []uint64
	var buckets []float64
	ops := ws.ops
	for _, k := range ws.kept {
		if k+1 >= len(u) {
			continue
		}
		a, b := u[k], u[k+1]
		allocs += b.allocs - a.allocs
		bytes += b.bytes - a.bytes
		gcs += b.gcs - a.gcs
		if sched == nil {
			sched = make([]uint64, len(b.sched.Counts))
			buckets = b.sched.Buckets
		}
		for i := range sched {
			sched[i] += b.sched.Counts[i] - a.sched.Counts[i]
		}
	}
	out := map[string]float64{}
	if ops == 0 {
		return out
	}
	out["runtime.allocs_per_op"] = float64(allocs) / float64(ops)
	out["runtime.alloc_kb_per_op"] = float64(bytes) / 1024 / float64(ops)
	out["runtime.gc_per_kop"] = float64(gcs) * 1000 / float64(ops)
	out["runtime.sched_wait_p90_us"] = histP90(sched, buckets)
	return out
}

// histP90 is the 90th percentile of a runtime/metrics histogram in
// microseconds, interpolated linearly inside the bucket that holds it.
func histP90(counts []uint64, buckets []float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := 0.9 * float64(total)
	var c float64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if c+float64(n) >= want {
			lo, hi := buckets[i], buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				return lo * 1e6
			}
			return (lo + (hi-lo)*(want-c)/float64(n)) * 1e6
		}
		c += float64(n)
	}
	return 0
}

// layerMetrics assembles the traced run's per-layer figures: span means
// from the traced windows, program counts over the timed phase, and
// runtime figures and latency tails from the untraced windows.
func (b *bench) layerMetrics(loops []*loop, win time.Duration, timed phaseResult, untraced windowStats, counts map[string]float64) map[string]metric {
	t := b.tr
	v := map[string]float64{}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var randN float64
	for _, key := range mechKeys {
		n := t.sum("rand." + key + ".n")
		randN += n
		v[key+".randomize_us"] = div(t.sum("rand."+key+".ns")/1e3, n)
	}
	busy := t.busyTotal
	v["pipeline.randomize_us"] = div(busy(lRandomize), randN)
	v["transport.encode_us"] = div(busy(lEncode), randN)
	v["transport.wire_bytes_per_report"] = div(t.sum("upload.bytes"), t.sum("upload.reports"))
	v["transport.report_rtt_us"] = t.busyPer(lReportRTT)
	v["transport.report_handler_us"] = t.busyPer(lReportHandler)
	v["transport.report_wait_us"] = t.selfPer(lReportRTT)
	twin := t.sum("twin.reports")
	v["transport.decode_us"] = div(busy(lDecode), twin)
	v["pipeline.validate_us"] = div(busy(lValidate), twin)
	v["pipeline.fold_us"] = div(busy(lFold), twin)
	t.pmu.Lock()
	v["reportlog.append_us"] = div(float64(t.appendNs)/1e3, float64(t.appendRecords))
	v["reportlog.bytes_per_report"] = div(float64(t.appendBytes), float64(t.appendRecords))
	t.pmu.Unlock()
	var reads, folds []float64
	for _, r := range t.setupReplays() {
		reads = append(reads, r.read.Seconds())
		folds = append(folds, r.decodeFold.Seconds())
	}
	v["reportlog.replay_read_s"] = median(reads)
	v["transport.replay_decode_fold_s"] = median(folds)
	v["pipeline.view_rebuild_us"] = t.busyPer(lViewRebuild)
	v["transport.query_rtt_us"] = t.busyPer(lQueryRTT)
	v["transport.query_handler_us"] = t.busyPer(lQueryHandler)
	v["transport.query_bytes"] = div(t.sum("query.bytes"), float64(t.count(lQueryRTT)))
	v["cluster.push_us"] = t.busyPer(lPush)
	v["reportlog.sync_us"] = t.busyPer(lSync)
	v["cluster.snapshot_us"] = t.busyPer(lSnapshot)
	v["cluster.encode_us"] = t.busyPer(lSnapEncode)
	v["cluster.decode_us"] = t.busyPer(lSnapDecode)
	v["cluster.snapshot_bytes"] = div(t.sum("snapshot.bytes"), float64(t.count(lSnapDecode)))
	v["transport.merge_handler_us"] = t.busyPer(lMergeHandler)
	v["pipeline.merge_state_us"] = t.busyPer(lMergeState)
	for k, x := range counts {
		v[k] = x
	}
	for k, x := range runtimeMetrics(timed.usage, untraced) {
		v[k] = x
	}
	var cover []float64
	for _, l := range loops {
		cover = append(cover, l.cover...)
	}
	v["trace.op_coverage"] = median(cover)
	traced := summarize(loops, win, timed.usage, func(k int) bool { return !untracedWindow(k) })
	v["trace.overhead"] = div(traced.p50, untraced.p50)
	v["op_p99_ms"] = quantile(untraced.lat, 0.99)
	v["op_p999_ms"] = quantile(untraced.lat, 0.999)
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		if !appliesTo(m.in, b.w.name) {
			continue
		}
		x := v[m.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[m.name] = metric{Value: x, Unit: m.unit}
	}
	return out
}

// untracedWindow selects the untraced windows of a traced run.
func untracedWindow(k int) bool { return k%2 == 0 }

// setupReplays sums each restart's log replays (fanin replays one log per
// edge) into one split per restart.
func (t *tracer) setupReplays() []replaySplit {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []replaySplit
	for _, g := range t.setupMarks {
		var s replaySplit
		for _, r := range t.replays[g[0]:g[1]] {
			s.read += r.read
			s.decodeFold += r.decodeFold
		}
		out = append(out, s)
	}
	return out
}
