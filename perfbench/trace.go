package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ldp/internal/pipeline"
	"ldp/internal/reportlog"
	"ldp/internal/transport"
)

// layer names one span boundary. Spans are recorded from the benchmark's
// own code around calls into the program's public functions — wrappers
// around the Sink, the http.Handler, the forwarder's Sync and HTTP
// client, plus direct calls — so nothing inside the program is traced.
type layer uint8

const (
	lOp layer = iota
	lRandomize
	lEncode
	lReportRTT
	lReportHandler
	lAppend
	lViewRebuild
	lQueryRTT
	lQueryHandler
	lPush
	lSync
	lMergeHandler
	// Twin measurements run after the op's timer stops, on copies of the
	// op's inputs, so they are root spans and never inflate the op.
	lDecode
	lValidate
	lFold
	lSnapshot
	lSnapEncode
	lSnapDecode
	lMergeState
	nLayers
)

const noLayer layer = 255

var layerNames = [nLayers]string{
	"op", "pipeline.randomize", "transport.encode", "transport.report_rtt",
	"transport.report_handler", "reportlog.append", "pipeline.view_rebuild",
	"transport.query_rtt", "transport.query_handler", "cluster.push",
	"reportlog.sync", "transport.merge_handler", "transport.decode",
	"pipeline.validate", "pipeline.fold", "cluster.snapshot", "cluster.encode",
	"cluster.decode", "pipeline.merge_state",
}

// parentOf is the static span tree: a span's parent is the span of this
// layer with the same op id and index.
var parentOf = [nLayers]layer{
	lOp: noLayer, lRandomize: lOp, lEncode: lOp, lReportRTT: lOp,
	lReportHandler: lReportRTT, lAppend: lReportHandler, lViewRebuild: lOp,
	lQueryRTT: lOp, lQueryHandler: lQueryRTT, lPush: lOp, lSync: lPush,
	lMergeHandler: lPush, lDecode: noLayer, lValidate: noLayer, lFold: noLayer,
	lSnapshot: noLayer, lSnapEncode: noLayer, lSnapDecode: noLayer, lMergeState: noLayer,
}

type span struct {
	op         int64
	layer      layer
	idx        uint8
	start, end int64 // ns since the tracer's epoch
}

type layerAcc struct {
	count       int64
	busy, child int64 // ns
}

// maxSpans caps the in-memory span log; layer totals cover every span.
const maxSpans = 1 << 18

// opHeader carries "op.idx" from the traced client to the handler
// wrapper.
const opHeader = "Bench-Op"

// tracer keeps spans in memory and per-layer totals. Counters measured at
// the same boundaries (per-mechanism randomize time, bytes) sit beside
// them.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	acc   [nLayers]layerAcc
	sums  map[string]float64

	// The Sink wrapper sees only frames. The server appends one request's
	// frames back to back under its sink lock, and every upload of a run
	// holds perOp frames, so each perOp consecutive appends are one
	// request. pending maps the hash of each upload body in flight to its
	// op id (+1; negative: untraced op); the wrapper hashes a request's
	// frames and looks the op up once the last frame is in.
	pmu     sync.Mutex
	perOp   int
	seed    maphash.Seed
	pending map[uint64]int64
	req     struct {
		n     int // frames of the current request so far
		h     maphash.Hash
		start int64
	}
	appendNs, appendRecords, appendBytes int64 // every Append call
	// requests matched to no pending upload, and uploads registered while
	// an identical body was still pending (either may misattribute a span)
	unmatched, ambiguous int64

	// push is the op whose Forwarder.Push is running (-1: untraced), and
	// pushFrame the snapshot frame that push delivered.
	push      atomic.Int64
	pushFrame []byte

	replays    []replaySplit
	setupMarks [][2]int // replays[from:to] of each restart
}

type replaySplit struct{ read, decodeFold time.Duration }

// newTracer returns a tracer for a workload whose uploads hold perOp
// reports.
func newTracer(perOp int) *tracer {
	t := &tracer{epoch: time.Now(), sums: map[string]float64{}, perOp: perOp,
		seed: maphash.MakeSeed(), pending: map[uint64]int64{}}
	t.req.h.SetSeed(t.seed)
	t.push.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record adds one finished span.
func (t *tracer) record(op int64, l layer, idx uint8, start, end int64) {
	d := end - start
	t.mu.Lock()
	a := &t.acc[l]
	a.count++
	a.busy += d
	if p := parentOf[l]; p != noLayer {
		t.acc[p].child += d
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{op: op, layer: l, idx: idx, start: start, end: end})
	}
	t.mu.Unlock()
}

func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.sums[name] += v
	t.mu.Unlock()
}

func (t *tracer) sum(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sums[name]
}

// busyPer returns a layer's mean span duration in microseconds.
func (t *tracer) busyPer(l layer) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.acc[l].count == 0 {
		return 0
	}
	return float64(t.acc[l].busy) / float64(t.acc[l].count) / 1e3
}

// busyTotal returns a layer's total span time in microseconds.
func (t *tracer) busyTotal(l layer) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.acc[l].busy) / 1e3
}

// selfPer returns a layer's mean self time (span minus its children) in
// microseconds.
func (t *tracer) selfPer(l layer) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.acc[l]
	if a.count == 0 {
		return 0
	}
	return float64(a.busy-a.child) / float64(a.count) / 1e3
}

func (t *tracer) count(l layer) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.acc[l].count
}

// expect registers an upload body about to be sent.
func (t *tracer) expect(body []byte, op int64, traced bool) {
	v := op + 1
	if !traced {
		v = -v
	}
	k := maphash.Bytes(t.seed, body)
	t.pmu.Lock()
	if _, dup := t.pending[k]; dup {
		t.ambiguous++
	}
	t.pending[k] = v
	t.pmu.Unlock()
}

// replay is transport.ReplayPipeline over reportlog.Replay, as ldpserver
// runs it. Traced, it also splits the time spent reading the log from
// the time spent inside ReplayPipeline's frame callback (decode + fold).
func (t *tracer) replay(p *pipeline.Pipeline, dir string) (int, error) {
	if t == nil {
		return transport.ReplayPipeline(p, func(fn func([]byte) error) error {
			_, err := reportlog.Replay(dir, fn)
			return err
		})
	}
	var inner time.Duration
	start := time.Now()
	n, err := transport.ReplayPipeline(p, func(fn func([]byte) error) error {
		_, err := reportlog.Replay(dir, func(b []byte) error {
			t0 := time.Now()
			err := fn(b)
			inner += time.Since(t0)
			return err
		})
		return err
	})
	total := time.Since(start)
	t.mu.Lock()
	t.replays = append(t.replays, replaySplit{read: total - inner, decodeFold: inner})
	t.mu.Unlock()
	return n, err
}

// beginSetup and endSetup bracket one restart's replays.
func (t *tracer) beginSetup() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.replays)
}

func (t *tracer) endSetup(from int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.setupMarks = append(t.setupMarks, [2]int{from, len(t.replays)})
	t.mu.Unlock()
}

// traceSink wraps the report log's Append.
type traceSink struct {
	t *tracer
	w transport.Sink
}

func (t *tracer) sink(w transport.Sink) transport.Sink { return &traceSink{t: t, w: w} }

// Append times every call; reportlog.append_us is their total over the
// records, whichever op they belong to. A request's append span runs from
// its first frame's start to its last frame's end.
func (s *traceSink) Append(frame []byte) error {
	t := s.t
	start := t.now()
	err := s.w.Append(frame)
	end := t.now()
	t.pmu.Lock()
	defer t.pmu.Unlock()
	t.appendNs += end - start
	t.appendRecords++
	t.appendBytes += int64(len(frame) + 8) // + the record header
	r := &t.req
	if r.n == 0 {
		r.start = start
		r.h.Reset()
	}
	r.h.Write(frame)
	if r.n++; r.n < t.perOp {
		return err
	}
	r.n = 0
	k := r.h.Sum64()
	v, ok := t.pending[k]
	delete(t.pending, k)
	switch {
	case !ok:
		t.unmatched++
	case v > 0:
		t.record(v-1, lAppend, 0, r.start, end)
	}
	return err
}

// handler wraps a server's http.Handler, timing requests that carry the
// op header.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hv := r.Header.Get(opHeader)
		if hv == "" {
			h.ServeHTTP(w, r)
			return
		}
		op, idx := parseOpHeader(hv)
		var l layer
		switch r.URL.Path {
		case "/v1/report":
			l = lReportHandler
		case "/v1/query":
			l = lQueryHandler
		case "/v1/merge":
			l = lMergeHandler
		default:
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.record(op, l, idx, start, t.now())
	})
}

func opHeaderValue(op int64, idx int) string {
	return strconv.FormatInt(op, 10) + "." + strconv.Itoa(idx)
}

func parseOpHeader(v string) (int64, uint8) {
	a, b, _ := strings.Cut(v, ".")
	op, _ := strconv.ParseInt(a, 10, 64)
	idx, _ := strconv.Atoi(b)
	return op, uint8(idx)
}

// syncFunc wraps the forwarder's pre-push WAL sync.
func (t *tracer) syncFunc(f func() error) func() error {
	return func() error {
		op := t.push.Load()
		if op < 0 {
			return f()
		}
		start := t.now()
		err := f()
		t.record(op, lSync, 0, start, t.now())
		return err
	}
}

// pushTransport is the forwarder's HTTP transport: it tags traced merge
// pushes with the op header and keeps a copy of the pushed frame for the
// twin snapshot measurements.
func (t *tracer) pushTransport() http.RoundTripper {
	base := http.DefaultTransport.(*http.Transport).Clone()
	return roundTripper(func(r *http.Request) (*http.Response, error) {
		op := t.push.Load()
		if op < 0 || r.Method != http.MethodPost || r.GetBody == nil {
			return base.RoundTrip(r)
		}
		body, err := r.GetBody()
		if err != nil {
			return nil, err
		}
		frame, err := io.ReadAll(body)
		if err != nil {
			return nil, err
		}
		t.mu.Lock()
		t.pushFrame = frame
		t.mu.Unlock()
		r = r.Clone(r.Context())
		r.Header.Set(opHeader, opHeaderValue(op, 0))
		return base.RoundTrip(r)
	})
}

type roundTripper func(*http.Request) (*http.Response, error)

func (f roundTripper) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func (t *tracer) takePushFrame() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := t.pushFrame
	t.pushFrame = nil
	return f
}

// writeSpans writes the span log as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		parent := "null"
		if p := parentOf[s.layer]; p != noLayer {
			parent = fmt.Sprintf("%q", spanID(s.op, p, s.idx))
		}
		fmt.Fprintf(bw, `{"id":%q,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%s}`+"\n",
			spanID(s.op, s.layer, s.idx), layerNames[s.layer], s.start, s.end, parent)
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func spanID(op int64, l layer, idx uint8) string {
	return fmt.Sprintf("%d/%s/%d", op, layerNames[l], idx)
}

// summary renders each layer's count, busy and self time.
func (t *tracer) summary() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%-26s %10s %12s %12s %12s\n", "layer", "count", "busy_ms", "self_ms", "mean_us")
	t.mu.Lock()
	for l := layer(0); l < nLayers; l++ {
		a := t.acc[l]
		if a.count == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-26s %10d %12.3f %12.3f %12.3f\n", layerNames[l], a.count,
			float64(a.busy)/1e6, float64(a.busy-a.child)/1e6, float64(a.busy)/float64(a.count)/1e3)
	}
	t.mu.Unlock()
	t.pmu.Lock() // never while holding mu: Append takes pmu, then mu
	fmt.Fprintf(&b, "appends %d records, %d requests matched no upload, %d uploads sent while an identical body was pending\n",
		t.appendRecords, t.unmatched, t.ambiguous)
	t.pmu.Unlock()
	return b.String()
}

// tailSummary compares the traced ops at or over their p90 latency with
// every traced op: the mean time per op spent in each layer of the op's
// span tree, and its share of the op. It covers the ops whose spans fit
// in the in-memory log.
func (t *tracer) tailSummary() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	perOp := map[int64]*[nLayers]int64{}
	for _, s := range t.spans {
		if s.layer != lOp && parentOf[s.layer] == noLayer {
			continue // twin measurements, outside the op
		}
		d := perOp[s.op]
		if d == nil {
			d = new([nLayers]int64)
			perOp[s.op] = d
		}
		d[s.layer] += s.end - s.start
	}
	var lats []float64
	for _, d := range perOp {
		if d[lOp] > 0 { // ops cut off by the span cap have no op span
			lats = append(lats, float64(d[lOp]))
		}
	}
	if len(lats) == 0 {
		return ""
	}
	slices.Sort(lats)
	p90 := quantile(lats, 0.9)
	var all, tail [nLayers]float64
	var nTail float64
	for _, d := range perOp {
		if d[lOp] == 0 {
			continue
		}
		slow := float64(d[lOp]) >= p90
		if slow {
			nTail++
		}
		for l, x := range d {
			all[l] += float64(x)
			if slow {
				tail[l] += float64(x)
			}
		}
	}
	nAll := float64(len(lats))
	var b bytes.Buffer
	fmt.Fprintf(&b, "tail: %d of %d traced ops at or over their p90 of %.1f us; mean us per op and share of the op\n",
		int(nTail), len(lats), p90/1e3)
	fmt.Fprintf(&b, "%-26s %12s %8s %12s %8s\n", "layer", "all_us", "share", "tail_us", "share")
	for l := layer(0); l < nLayers; l++ {
		if all[l] == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-26s %12.1f %8.3f %12.1f %8.3f\n", layerNames[l],
			all[l]/nAll/1e3, all[l]/all[lOp], tail[l]/nTail/1e3, tail[l]/tail[lOp])
	}
	return b.String()
}
