package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"ldp/internal/cluster"
	"ldp/internal/pipeline"
	"ldp/internal/rng"
	"ldp/internal/schema"
	"ldp/internal/transport"
)

// workload is one traffic mix. Every workload restarts its aggregators
// from a pre-written report log, warms up for a fixed number of ops, then
// runs closed loops for the timed phase.
type workload struct {
	name    string
	dom     domain
	loops   int   // closed loops; 0 = one per CPU
	perOp   int   // reports per upload
	edges   int   // fanin: edges behind one root; 0 = a single aggregator
	preload int   // distinct randomized reports in the preload logs
	warmup  int64 // ops
	bodies  int   // pre-randomized uploads cycled by the one-loop workloads
}

var workloads = map[string]workload{
	// ingest: the device-fleet write path. Clients randomize and encode
	// inline; no queries run.
	"ingest": {name: "ingest", perOp: 64, preload: 3 << 20, warmup: 512},
	// dashboard: upload then an exact-staleness analyst refresh over a
	// large range domain; every op forces one incremental view rebuild
	// and four cold query encodes.
	"dashboard": {name: "dashboard", dom: domain{4096, 32}, loops: 1, perOp: 16, preload: 2 << 20, warmup: 256, bodies: 2048},
	// fanin: upload to an edge, push it to the root, read the root.
	"fanin": {name: "fanin", loops: 1, perOp: 64, edges: 4, preload: 3 << 20, warmup: 128, bodies: 1024},
}

// Seed streams: each input family draws from its own stream space.
const (
	streamPreload = 0x9e11
	streamTuples  = 0x7a11
	streamBodies  = 0xb0d1
	streamIngest  = 0x1a6e
)

// loopState is one loop's scratch: its HTTP client, buffers and what it
// has had acknowledged.
type loopState struct {
	client *http.Client
	buf    []byte
	rbuf   bytes.Buffer
	reps   []pipeline.Report
	// acknowledged uploads: per body (or tuple block), and per edge
	uses, perEdge []int64
	epoch         uint64 // dashboard: ETag epoch of the previous refresh
	lastErr       error
	// per-mechanism randomize time of the current traced op
	kindNs, kindN [3]int64
	batch         *pipeline.ReportBatch
	snapBuf       []byte
}

// bench is one run of one workload.
type bench struct {
	cfg config
	w   workload
	tr  *tracer

	client *pipeline.Pipeline // the device side: Randomize only
	// ingest inputs: tuple blocks of perOp users
	tuples     []schema.Tuple
	blockTruth []truth
	// one-loop inputs: pre-randomized uploads
	bodies    [][]byte
	bodyTruth []truth

	masters []string // preload log per aggregator with a log
	preload []int64  // reports in each master
	preTr   truth

	root  *node   // the node queried (the single aggregator, or the root)
	edges []*node // fanin

	twin, twinRoot *pipeline.Pipeline
	expectN        int64 // fanin: root count the next op must observe
}

// genInputs builds every input of the run from the seed, before timing.
func (b *bench) genInputs() error {
	var err error
	if b.client, err = newPipeline(b.w.dom, nil); err != nil {
		return err
	}
	workers := runtime.NumCPU()
	nodes := max(b.w.edges, 1)
	per := b.w.preload / nodes
	b.masters = make([]string, nodes)
	b.preload = make([]int64, nodes)
	for e := 0; e < nodes; e++ {
		dir := filepath.Join(b.cfg.work, "wal-"+strconv.Itoa(e))
		b.masters[e] = dir
		tr, err := writePreload(dir, preload{dom: b.w.dom, seed: b.cfg.seed ^ streamPreload<<8 ^ uint64(e), count: per}, workers)
		if err != nil {
			return fmt.Errorf("write preload log: %w", err)
		}
		b.preload[e] = int64(per)
		b.preTr.merge(&tr)
	}
	if b.w.bodies == 0 {
		const blocks = 256
		b.tuples = make([]schema.Tuple, blocks*b.w.perOp)
		b.blockTruth = make([]truth, blocks)
		for i := range b.tuples {
			r := rng.NewStream(b.cfg.seed^streamTuples, uint64(i))
			b.tuples[i] = census.Tuple(r)
			b.blockTruth[i/b.w.perOp].add(b.client, b.tuples[i], 1)
		}
		return nil
	}
	b.bodies = make([][]byte, b.w.bodies)
	b.bodyTruth = make([]truth, b.w.bodies)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < len(b.bodies); k += workers {
				var buf []byte
				for j := 0; j < b.w.perOp; j++ {
					r := rng.NewStream(b.cfg.seed^streamBodies, uint64(k*b.w.perOp+j))
					t := census.Tuple(r)
					b.bodyTruth[k].add(b.client, t, 1)
					rep, err := b.client.Randomize(t, r)
					if err == nil {
						buf, err = transport.AppendEnvelope(buf, rep)
					}
					if err != nil {
						errs[g] = err
						return
					}
				}
				b.bodies[k] = buf
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setup restarts the workload's aggregators from the preload logs and
// returns the restart-to-ready time: from the first recover until the
// first query is answered. fanin starts an empty root, then each edge
// recovers its log and pushes once.
func (b *bench) setup(c *http.Client) (time.Duration, error) {
	start := time.Now()
	mark := b.tr.beginSetup()
	defer b.tr.endSetup(mark)
	var err error
	if b.w.edges == 0 {
		if b.root, err = startNode(nodeSpec{dom: b.w.dom, dir: b.masters[0], tr: b.tr}); err != nil {
			return 0, err
		}
	} else {
		if b.root, err = startNode(nodeSpec{dom: b.w.dom, tr: b.tr}); err != nil {
			return 0, err
		}
		b.edges = make([]*node, b.w.edges)
		for e := range b.edges {
			n, err := startNode(nodeSpec{dom: b.w.dom, dir: b.masters[e], rootURL: b.root.url, edgeID: "edge-" + strconv.Itoa(e), tr: b.tr})
			if err != nil {
				return 0, err
			}
			b.edges[e] = n
			if err := n.fw.Push(context.Background()); err != nil {
				return 0, fmt.Errorf("initial push of edge %d: %w", e, err)
			}
		}
	}
	resp, err := c.Get(b.root.url + "/v1/query?kind=mean")
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("first query: %s", resp.Status)
	}
	return time.Since(start), nil
}

func (b *bench) nodes() []*node { return append([]*node{b.root}, b.edges...) }

func (b *bench) closeNodes() error {
	var first error
	for _, n := range b.nodes() {
		if n == nil {
			continue
		}
		if err := n.close(); err != nil && first == nil {
			first = err
		}
	}
	b.root, b.edges = nil, nil
	return first
}

func (b *bench) totalPreload() int64 {
	var n int64
	for _, p := range b.preload {
		n += p
	}
	return n
}

// request sends one HTTP request and reads the whole answer into rbuf.
func (st *loopState) request(method, url string, body []byte, opHdr string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if opHdr != "" {
		req.Header.Set(opHeader, opHdr)
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return nil, err
	}
	st.rbuf.Reset()
	_, err = st.rbuf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, err
}

func hdr(traced bool, op int64, idx int) string {
	if !traced {
		return ""
	}
	return opHeaderValue(op, idx)
}

// upload POSTs one batch and checks the 204.
func (b *bench) upload(l *loop, url string, body []byte, i int64, traced bool) error {
	if b.tr != nil {
		b.tr.expect(body, i, traced)
	}
	var s int64
	if traced {
		s = b.tr.now()
	}
	resp, err := l.st.request(http.MethodPost, url+"/v1/report", body, hdr(traced, i, 0))
	if traced {
		l.ot.span(lReportRTT, 0, s, b.tr.now())
		b.tr.add("upload.bytes", float64(len(body)))
		b.tr.add("upload.reports", float64(b.w.perOp))
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("upload: %s", resp.Status)
	}
	l.st.uses[int(i%int64(len(l.st.uses)))]++
	l.st.perEdge[int(i%int64(len(l.st.perEdge)))]++
	return nil
}

// query GETs one query and returns its status-checked response.
func (b *bench) query(l *loop, url, q string, i int64, idx int, traced bool) (*http.Response, error) {
	var s int64
	if traced {
		s = b.tr.now()
	}
	resp, err := l.st.request(http.MethodGet, url+"/v1/query?"+q, nil, hdr(traced, i, idx))
	if traced {
		l.ot.span(lQueryRTT, idx, s, b.tr.now())
		b.tr.add("query.bytes", float64(l.st.rbuf.Len()))
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("query %s: %s", q, resp.Status)
	}
	return resp, nil
}

var mechKeys = [3]string{"mech", "freq", "rangequery"}

// ingestOp: randomize perOp tuples, encode them, POST, wait for the 204.
func (b *bench) ingestOp(l *loop, i int64, traced bool) error {
	st := l.st
	blk := int(i % int64(len(b.blockTruth)))
	r := rng.NewStream(b.cfg.seed^streamIngest, uint64(i))
	var s int64
	if traced {
		s = b.tr.now()
	}
	for j, t := range b.tuples[blk*b.w.perOp : (blk+1)*b.w.perOp] {
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		rep, err := b.client.Randomize(t, r)
		if err != nil {
			return err
		}
		if traced {
			k := int(rep.Task - pipeline.TaskMean) // mean, freq, range
			st.kindNs[k] += int64(time.Since(t0))
			st.kindN[k]++
		}
		st.reps[j] = rep
	}
	if traced {
		e := b.tr.now()
		l.ot.span(lRandomize, 0, s, e)
		s = e
	}
	st.buf = st.buf[:0]
	for _, rep := range st.reps {
		var err error
		if st.buf, err = transport.AppendEnvelope(st.buf, rep); err != nil {
			return err
		}
	}
	if traced {
		l.ot.span(lEncode, 0, s, b.tr.now())
	}
	return b.upload(l, b.root.url, st.buf, i, traced)
}

// ingestAfter times decode, validate and fold of the op's body on a twin
// pipeline, after the op's timer has stopped.
func (b *bench) ingestAfter(l *loop, i int64) error {
	st := l.st
	for k := range st.kindN {
		b.tr.add("rand."+mechKeys[k]+".ns", float64(st.kindNs[k]))
		b.tr.add("rand."+mechKeys[k]+".n", float64(st.kindN[k]))
		st.kindNs[k], st.kindN[k] = 0, 0
	}
	return b.twinFold(st, i, st.buf)
}

func (b *bench) twinFold(st *loopState, i int64, body []byte) error {
	st.batch.Reset()
	s := b.tr.now()
	if _, err := transport.DecodeBatch(body, st.batch); err != nil {
		return err
	}
	e := b.tr.now()
	b.tr.record(i, lDecode, 0, s, e)
	err := b.twin.ValidateBatch(st.batch)
	s, e = e, b.tr.now()
	b.tr.record(i, lValidate, 0, s, e)
	if err != nil {
		return err
	}
	b.twin.AddBatchValidated(st.batch)
	b.tr.record(i, lFold, 0, e, b.tr.now())
	b.tr.add("twin.reports", float64(st.batch.Len()))
	return nil
}

// dashboardOp: POST a 16-report upload, then one analyst refresh at
// exact staleness; the refresh must carry a newer view epoch.
func (b *bench) dashboardOp(l *loop, i int64, traced bool) error {
	k := int(i % int64(len(b.bodies)))
	if err := b.upload(l, b.root.url, b.bodies[k], i, traced); err != nil {
		return err
	}
	if traced {
		s := b.tr.now()
		b.root.p.View()
		l.ot.span(lViewRebuild, 0, s, b.tr.now())
	}
	var epoch uint64
	for q, query := range refreshQueries {
		resp, err := b.query(l, b.root.url, query, i, q, traced)
		if err != nil {
			return err
		}
		ep, err := parseEpoch(resp.Header.Get("Etag"))
		if err != nil {
			return err
		}
		if q == 0 {
			epoch = ep
		} else if ep != epoch {
			return fmt.Errorf("refresh answered from epochs %d and %d", epoch, ep)
		}
	}
	if epoch <= l.st.epoch {
		return fmt.Errorf("refresh epoch %d not after the previous op's %d", epoch, l.st.epoch)
	}
	l.st.epoch = epoch
	return nil
}

func (b *bench) dashboardAfter(l *loop, i int64) error {
	return b.twinFold(l.st, i, b.bodies[int(i%int64(len(b.bodies)))])
}

func parseEpoch(etag string) (uint64, error) {
	s := strings.Trim(etag, `"`)
	if !strings.HasPrefix(s, "q") {
		return 0, fmt.Errorf("unexpected query ETag %q", etag)
	}
	return strconv.ParseUint(s[1:], 10, 64)
}

// faninOp: POST a 64-report upload to edge i mod edges, push that edge
// (no timer), then read the root: a mean refresh and the stats count,
// which must cover every report acknowledged so far.
func (b *bench) faninOp(l *loop, i int64, traced bool) error {
	e := b.edges[int(i%int64(len(b.edges)))]
	k := int(i % int64(len(b.bodies)))
	if err := b.upload(l, e.url, b.bodies[k], i, traced); err != nil {
		return err
	}
	b.expectN += int64(b.w.perOp)
	var s int64
	if traced {
		b.tr.push.Store(i)
		s = b.tr.now()
	}
	err := e.fw.Push(context.Background())
	if traced {
		l.ot.span(lPush, 0, s, b.tr.now())
		b.tr.push.Store(-1)
	}
	if err != nil {
		return fmt.Errorf("push: %w", err)
	}
	if traced {
		s := b.tr.now()
		b.root.p.View()
		l.ot.span(lViewRebuild, 0, s, b.tr.now())
	}
	if _, err := b.query(l, b.root.url, "kind=mean", i, 0, traced); err != nil {
		return err
	}
	if _, err := b.query(l, b.root.url, "kind=stats", i, 1, traced); err != nil {
		return err
	}
	n, err := statsN(l.st.rbuf.Bytes())
	if err != nil {
		return err
	}
	if n != b.expectN {
		return fmt.Errorf("root counts %d reports, want %d", n, b.expectN)
	}
	return nil
}

// faninAfter times the edge-side decode, validate and fold of the upload
// on the twin, and the snapshot codec and the root-side merge on the
// pushed delta, after the op's timer has stopped.
func (b *bench) faninAfter(l *loop, i int64) error {
	if err := b.twinFold(l.st, i, b.bodies[int(i%int64(len(b.bodies)))]); err != nil {
		return err
	}
	frame := b.tr.takePushFrame()
	if frame == nil {
		return fmt.Errorf("traced push delivered no frame")
	}
	e := b.edges[int(i%int64(len(b.edges)))]
	s := b.tr.now()
	e.p.StateSnapshot()
	t := b.tr.now()
	b.tr.record(i, lSnapshot, 0, s, t)
	snap, err := cluster.DecodeSnapshot(frame)
	s, t = t, b.tr.now()
	b.tr.record(i, lSnapDecode, 0, s, t)
	if err != nil {
		return err
	}
	if l.st.snapBuf, err = cluster.AppendSnapshot(l.st.snapBuf[:0], snap); err != nil {
		return err
	}
	s, t = t, b.tr.now()
	b.tr.record(i, lSnapEncode, 0, s, t)
	err = b.twinRoot.MergeState(snap.State)
	b.tr.record(i, lMergeState, 0, t, b.tr.now())
	b.tr.add("snapshot.bytes", float64(len(frame)))
	return err
}

func statsN(body []byte) (int64, error) {
	var st struct {
		N int64 `json:"n"`
	}
	err := json.Unmarshal(body, &st)
	return st.N, err
}
