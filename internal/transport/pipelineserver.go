package transport

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ldp/internal/pipeline"
	"ldp/internal/schema"
	"ldp/internal/telemetry"
)

// MaxBatchSize bounds the body of one batched report upload (defensive
// limit; a batch holds many MaxFrameSize-bounded frames).
const MaxBatchSize = 16 << 20

// maxCachedQueries bounds the number of distinct pre-encoded query
// responses kept per view epoch, maxCachedQueryKey bounds the raw query
// string an entry may be keyed by, and maxCachedQueryBytes bounds the
// total keys+bodies retained — together they keep an adversarial sweep
// of distinct (or padded) query strings from pinning memory. When a new
// fitting entry would push the cache past the count or byte bound, the
// oldest entries are evicted (insertion-order FIFO — hits are lock-free
// reads of an immutable state, so there is no recency to track) rather
// than the newcomer dropped, so a long-lived epoch keeps serving its
// current working set instead of freezing the first thousand queries.
const (
	maxCachedQueries    = 1024
	maxCachedQueryKey   = 1 << 10
	maxCachedQueryBytes = 8 << 20
)

// Sink receives the raw frame of every accepted report; reportlog.Writer
// satisfies it (wrapped with a mutex by the server). A nil sink disables
// persistence.
type Sink interface {
	Append(payload []byte) error
}

// jsonContentType is the Content-Type header value of every JSON
// response, preallocated so the cached-hit path assigns it without
// allocating.
var jsonContentType = []string{"application/json"}

// PipelineServer is the unified aggregator front end: every task's
// reports arrive on one route and every query kind is answered on one
// route.
//
//	POST /v1/report   one or more concatenated envelope frames of any
//	                  task, gradient frames included -> 204; a body with
//	                  any frame that does not decode (the retired v1
//	                  report and range frames among them) -> 400
//	GET  /v1/query    ?kind=stats
//	                  ?kind=mean[&attr=name]
//	                  ?kind=freq&attr=name
//	                  ?kind=range&attr=name&lo=&hi=[&attr2=&lo2=&hi2=]
//	GET  /v1/stats    aggregate report counts (same body as ?kind=stats)
//	GET  /v1/model    federated SGD model state (pipelines built with
//	                  WithGradient; 404 otherwise)
//	GET  /metrics     Prometheus text exposition (servers built with
//	                  WithServerTelemetry; 404 otherwise)
//	POST /v1/merge    cluster fan-in: fold an edge's snapshot delta into
//	                  this pipeline (see merge.go for the protocol)
//	GET  /v1/merge    ?edge=ID resynchronization snapshot for that edge
//	GET  /healthz     liveness: 200 while the process serves
//	GET  /readyz      readiness: 200 when accepting new work, 503 while
//	                  draining or a WithReadyChecks dependency fails
//
// Servers built WithAdmission bound the mutating routes (/v1/report and
// /v1/merge POSTs) to a fixed number of in-flight requests; excess
// requests are shed with 429 + Retry-After before their body is read, on
// an allocation-free path, so refusing work under overload stays cheaper
// than doing it.
//
// Queries are answered from the pipeline's epoch-cached view
// (Pipeline.View): the JSON encoding of each answered (kind, attr, range)
// is pre-encoded once per view epoch and served as raw bytes afterwards,
// tagged with an epoch-keyed ETag. Clients that replay the ETag in
// If-None-Match get 304 Not Modified while the view is unchanged, so a
// hot dashboard costs one header compare; /v1/model gets the same
// treatment keyed on the trainer state, and /v1/stats (with ?kind=stats)
// keyed on the ingest watermark and trainer acceptance count.
type PipelineServer struct {
	p   *pipeline.Pipeline
	mux *http.ServeMux

	mu   sync.Mutex
	sink Sink

	// reg/log/met are the observability hooks (see ServerOption): nil
	// registry and logger by default, with nil-safe no-op metric handles,
	// so the uninstrumented server pays nothing.
	reg *telemetry.Registry
	log *slog.Logger
	met serverMetrics

	// qcache holds the current view epoch's pre-encoded query responses
	// behind an atomic pointer: hits are lock-free map reads of an
	// immutable state, misses clone-and-swap under qmu (copy-on-write).
	qmu    sync.Mutex
	qcache atomic.Pointer[queryCacheState]

	// mcache is the single-entry analogue for /v1/model, scache the one
	// for /v1/stats.
	mcache atomic.Pointer[modelCacheState]
	scache atomic.Pointer[statsCacheState]

	// merge is the root side of the cluster fan-in protocol (see merge.go).
	merge mergeState

	// adm is the admission limiter (nil without WithAdmission: every
	// request admitted), ready the configured /readyz dependencies, and
	// draining the shutdown flag /readyz reports (see health.go).
	adm      *admission
	ready    []ReadyCheck
	draining atomic.Bool
}

// queryCacheState is one view epoch's immutable set of pre-encoded query
// responses, keyed by the request's raw query string. States are
// replaced, never mutated, so readers need no lock. bytes tracks the
// retained keys+bodies against maxCachedQueryBytes, and order remembers
// the keys oldest-first so the bound evicts FIFO.
type queryCacheState struct {
	epoch   uint64
	etag    string
	etagHdr []string
	body    map[string][]byte
	order   []string
	bytes   int
}

// modelCacheState is the pre-encoded /v1/model response for one exact
// trainer state (round, done, accepted, stale).
type modelCacheState struct {
	round    int
	done     bool
	accepted int64
	stale    int64
	etag     string
	etagHdr  []string
	body     []byte
}

// statsCacheState is the pre-encoded stats response for one exact
// aggregate state: the ingest watermark plus the trainer's acceptance
// count (gradient reports never move the watermark but do appear in the
// stats body). Replaced, never mutated.
type statsCacheState struct {
	wm      int64
	acc     int64
	etag    string
	etagHdr []string
	body    []byte
}

// ServerOption configures a PipelineServer under construction.
type ServerOption func(*PipelineServer)

// WithServerTelemetry registers the transport metric families — request
// counts by route and status class, latency histograms, request/response
// bytes, 304 short-circuits, and the report decode-error taxonomy — on
// reg and serves reg's Prometheus exposition on GET /metrics. Pass the
// same registry the pipeline was built with (pipeline.WithTelemetry) so
// one scrape covers both layers. A nil registry disables both (the
// default): /metrics serves 404 and the handlers skip the epilogue.
func WithServerTelemetry(reg *telemetry.Registry) ServerOption {
	return func(s *PipelineServer) { s.reg = reg }
}

// WithRequestLog emits one structured debug-level line per request
// (method, path, status, bytes, elapsed) on log. The line is built only
// past the logger's Enabled gate, so running an info-level logger costs
// the request path one branch.
func WithRequestLog(log *slog.Logger) ServerOption {
	return func(s *PipelineServer) { s.log = log }
}

// NewPipelineServer wraps a pipeline (and optional persistence sink,
// which receives every accepted raw frame) in an HTTP handler.
func NewPipelineServer(p *pipeline.Pipeline, sink Sink, opts ...ServerOption) *PipelineServer {
	s := &PipelineServer{p: p, sink: sink, mux: http.NewServeMux()}
	for _, opt := range opts {
		opt(s)
	}
	s.met = newServerMetrics(s.reg)
	s.mux.HandleFunc("POST /v1/report", s.admit(s.met.shedReport, s.handleReport))
	s.mux.HandleFunc("GET /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/model", s.handleModel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.Handle("GET /metrics", s.reg.Handler()) // nil registry: 404
	s.reg.GaugeFunc("ldp_draining",
		"1 while the server is draining for shutdown (readyz answers 503), else 0.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	s.initMerge()
	return s
}

// ServeHTTP implements http.Handler.
func (s *PipelineServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Pipeline exposes the underlying pipeline (for replay after restart).
func (s *PipelineServer) Pipeline() *pipeline.Pipeline { return s.p }

// fail writes an error response and returns its status code, so error
// exits read `status = s.fail(...)` and the telemetry epilogue sees the
// real status.
func (s *PipelineServer) fail(w http.ResponseWriter, msg string, code int) int {
	http.Error(w, msg, code)
	return code
}

func (s *PipelineServer) handleReport(w http.ResponseWriter, r *http.Request) {
	status, wrote := 0, 0
	if s.observing() {
		start := time.Now()
		defer func() { s.finish(&s.met.report, r, status, wrote, start) }()
	}
	body, tooLarge, err := readCapped(r, MaxBatchSize)
	if err != nil {
		s.met.decRead.Inc()
		status = s.fail(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if tooLarge {
		s.met.decTooLarge.Inc()
		status = s.fail(w, "batch too large", http.StatusRequestEntityTooLarge)
		return
	}
	s.met.bytesIn.Add(uint64(len(body)))
	// The whole body decodes into one pooled columnar batch, is validated
	// up front (a bad frame or invalid report rejects the batch atomically
	// before any side effect), then persists and folds — WAL first. If the
	// sink fails, the pipeline has not changed and the 500 tells the
	// client the batch was not accepted, so a retry cannot double-count;
	// folding before persisting would leave the 500'd-but-folded batch
	// counted twice after a client retry.
	b := pipeline.GetBatch()
	defer pipeline.PutBatch(b)
	frames, err := DecodeBatch(body, b)
	if err != nil {
		s.met.decBadFrame.Inc()
		status = s.fail(w, err.Error(), http.StatusBadRequest)
		return
	}
	if b.Len() == 0 {
		s.met.decEmpty.Inc()
		status = s.fail(w, "empty report body", http.StatusBadRequest)
		return
	}
	if err := s.p.ValidateBatch(b); err != nil {
		s.met.decReject.Inc()
		status = s.fail(w, err.Error(), http.StatusBadRequest)
		return
	}
	if s.sink != nil {
		// Persist the validated raw frames, re-slicing the body by frame
		// length (DecodeBatch already proved every header well-formed).
		s.mu.Lock()
		for off := 0; off < len(body); {
			n, err := FrameLen(body[off:])
			if err != nil {
				break
			}
			if err := s.sink.Append(body[off : off+n]); err != nil {
				s.mu.Unlock()
				status = s.fail(w, "persist: "+err.Error(), http.StatusInternalServerError)
				return
			}
			off += n
		}
		s.mu.Unlock()
	}
	s.p.AddBatchValidated(b)
	s.met.frames.Add(uint64(frames))
	w.WriteHeader(http.StatusNoContent)
	status = http.StatusNoContent
}

// ModelState is the JSON body of GET /v1/model: the published model plus
// the training-protocol parameters a client needs to participate.
type ModelState struct {
	Round     int       `json:"round"`
	Done      bool      `json:"done"`
	Beta      []float64 `json:"beta"`
	GroupSize int       `json:"group_size"`
	Rounds    int       `json:"rounds"`
	Dim       int       `json:"dim"`
	Eta       float64   `json:"eta"`
	Lambda    float64   `json:"lambda"`
	Accepted  int64     `json:"accepted"`
	Stale     int64     `json:"stale"`
}

func (s *PipelineServer) handleModel(w http.ResponseWriter, r *http.Request) {
	status, wrote := 0, 0
	if s.observing() {
		start := time.Now()
		defer func() { s.finish(&s.met.model, r, status, wrote, start) }()
	}
	tr := s.p.Trainer()
	if tr == nil {
		status = s.fail(w, "no gradient task is registered", http.StatusNotFound)
		return
	}
	m := tr.Model()
	acc, stale := tr.Accepted(), tr.Stale()
	st := s.mcache.Load()
	if st == nil || st.round != m.Round || st.done != m.Done || st.accepted != acc || st.stale != stale {
		body, err := json.Marshal(ModelState{
			Round:     m.Round,
			Done:      m.Done,
			Beta:      m.Beta,
			GroupSize: tr.GroupSize(),
			Rounds:    tr.Rounds(),
			Dim:       tr.Dim(),
			Eta:       tr.Eta(),
			Lambda:    tr.Lambda(),
			Accepted:  acc,
			Stale:     stale,
		})
		if err != nil {
			status = s.fail(w, err.Error(), http.StatusInternalServerError)
			return
		}
		done := 0
		if m.Done {
			done = 1
		}
		etag := fmt.Sprintf("\"m%d-%d-%d-%d\"", m.Round, done, acc, stale)
		st = &modelCacheState{
			round: m.Round, done: m.Done, accepted: acc, stale: stale,
			etag: etag, etagHdr: []string{etag}, body: append(body, '\n'),
		}
		// A racing poller may store a state for a neighbouring trainer
		// snapshot; the next mismatch rebuilds, so last-write-wins is fine.
		s.mcache.Store(st)
	}
	h := w.Header()
	h["Etag"] = st.etagHdr
	if inm := r.Header.Get("If-None-Match"); inm != "" && inm == st.etag {
		w.WriteHeader(http.StatusNotModified)
		status = http.StatusNotModified
		return
	}
	h["Content-Type"] = jsonContentType
	_, _ = w.Write(st.body)
	status, wrote = http.StatusOK, len(st.body)
}

func (s *PipelineServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.RawQuery
	// Stats read only the shard counters and change with every report
	// (including gradient reports, which never advance the view epoch),
	// so they bypass the view cache and ride the watermark-keyed stats
	// cache instead, counted under the /v1/stats route.
	if strings.Contains(raw, "kind=stats") && r.URL.Query().Get("kind") == "stats" {
		s.handleStats(w, r)
		return
	}

	status, wrote := 0, 0
	if s.observing() {
		start := time.Now()
		defer func() { s.finish(&s.met.query, r, status, wrote, start) }()
	}

	v := s.p.View()
	if st := s.qcache.Load(); st != nil && st.epoch == v.Epoch() {
		if body, ok := st.body[raw]; ok {
			h := w.Header()
			h["Etag"] = st.etagHdr
			if inm := r.Header.Get("If-None-Match"); inm != "" && inm == st.etag {
				w.WriteHeader(http.StatusNotModified)
				status = http.StatusNotModified
				return
			}
			h["Content-Type"] = jsonContentType
			_, _ = w.Write(body)
			status, wrote = http.StatusOK, len(body)
			return
		}
	}

	// Cold path: parse the query, answer it from the same view, and
	// remember the encoded bytes for the rest of this epoch.
	body, cacheable, err := s.queryJSON(v, r.URL.Query())
	if err != nil {
		status = s.fail(w, err.Error(), http.StatusBadRequest)
		return
	}
	var etagHdr []string
	if cacheable {
		etagHdr = s.storeQuery(v.Epoch(), raw, body)
	}
	h := w.Header()
	if etagHdr != nil {
		h["Etag"] = etagHdr
	}
	h["Content-Type"] = jsonContentType
	_, _ = w.Write(body)
	status, wrote = http.StatusOK, len(body)
}

// handleStats serves GET /v1/stats (and /v1/query?kind=stats) from the
// cached stats snapshot: while no report of any task has been folded,
// repeat pollers get the pre-encoded bytes — or a 304 via the
// watermark-keyed ETag — instead of a per-hit counter sweep and
// re-encode.
func (s *PipelineServer) handleStats(w http.ResponseWriter, r *http.Request) {
	status, wrote := 0, 0
	if s.observing() {
		start := time.Now()
		defer func() { s.finish(&s.met.stats, r, status, wrote, start) }()
	}
	st := s.statsState()
	if st == nil {
		status = s.fail(w, "encode stats", http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h["Etag"] = st.etagHdr
	if inm := r.Header.Get("If-None-Match"); inm != "" && inm == st.etag {
		w.WriteHeader(http.StatusNotModified)
		status = http.StatusNotModified
		return
	}
	h["Content-Type"] = jsonContentType
	_, _ = w.Write(st.body)
	status, wrote = http.StatusOK, len(st.body)
}

// statsState returns the pre-encoded stats response for the current
// aggregate state, rebuilding it only when the ingest watermark or the
// trainer's acceptance count has moved. The key is read before the body
// is built, so a racing ingest can pair a fresh body with an older key —
// the next key change rebuilds, and last-write-wins on the store is fine
// (the same benign race the model cache runs). Returns nil only if
// encoding fails, which no reachable payload does.
func (s *PipelineServer) statsState() *statsCacheState {
	wm := s.p.Watermark()
	var acc int64
	if tr := s.p.Trainer(); tr != nil {
		acc = tr.Accepted()
	}
	st := s.scache.Load()
	if st != nil && st.wm == wm && st.acc == acc {
		return st
	}
	body, err := json.Marshal(s.statsPayload())
	if err != nil {
		return nil
	}
	etag := "\"s" + strconv.FormatInt(wm, 10) + "-" + strconv.FormatInt(acc, 10) + "\""
	st = &statsCacheState{
		wm: wm, acc: acc,
		etag: etag, etagHdr: []string{etag}, body: append(body, '\n'),
	}
	s.scache.Store(st)
	return st
}

// statsPayload is the kind=stats response body, shared by the fast path
// and queryJSON so the two cannot drift.
func (s *PipelineServer) statsPayload() map[string]any {
	counts := s.p.TaskCounts()
	var n int64
	tasks := make(map[string]int64, len(counts))
	for k, c := range counts {
		n += c
		tasks[k.String()] = c
	}
	return map[string]any{
		"n":     n,
		"dim":   s.p.Schema().Dim(),
		"tasks": tasks,
	}
}

// queryJSON answers one query against an immutable view and returns the
// encoded response body. cacheable is false for kinds whose answer is not
// a pure function of the view.
func (s *PipelineServer) queryJSON(v *pipeline.Result, q url.Values) (body []byte, cacheable bool, err error) {
	var payload any
	switch kind := q.Get("kind"); kind {
	case "stats":
		// Reachable only with an encoding of kind=stats the fast path's
		// substring probe missed; serve the cached stats body without
		// entering the view-epoch query cache.
		if st := s.statsState(); st != nil {
			return st.body, false, nil
		}
		return nil, false, fmt.Errorf("encode stats")
	case "mean":
		if name := q.Get("attr"); name != "" {
			m, err := v.Mean(name)
			if err != nil {
				return nil, false, err
			}
			payload = map[string]any{"attr": name, "mean": m}
		} else {
			payload = v.Means()
		}
	case "freq":
		name := q.Get("attr")
		if name == "" {
			return nil, false, fmt.Errorf("freq queries need attr=")
		}
		freqs, err := v.FreqView(name)
		if err != nil {
			return nil, false, err
		}
		payload = map[string]any{"attr": name, "freqs": freqs}
	case "range":
		rq, err := parseRangeQuery(q.Get, s.p.Schema())
		if err != nil {
			return nil, false, err
		}
		mass, err := v.Range(rq)
		if err != nil {
			return nil, false, err
		}
		// JSON has no ±Inf: echo an infinite endpoint as the domain edge
		// the view clamped it to.
		for _, x := range []*float64{&rq.Lo, &rq.Hi, &rq.Lo2, &rq.Hi2} {
			if math.IsInf(*x, 0) {
				*x = math.Copysign(1, *x)
			}
		}
		payload = map[string]any{"query": rq, "mass": mass}
	default:
		return nil, false, fmt.Errorf("unknown query kind %q (want stats, mean, freq, or range)", kind)
	}
	body, err = json.Marshal(payload)
	if err != nil {
		return nil, false, err
	}
	return append(body, '\n'), true, nil
}

// storeQuery remembers a pre-encoded response for the rest of its view
// epoch (copy-on-write, so the lock-free readers never observe a map
// write) and returns the epoch's preallocated ETag header value. An
// entry whose key or cost exceeds its individual bound is served but not
// retained; one that fits is always inserted, evicting the epoch's
// oldest entries (FIFO) as needed to stay inside the count and
// total-byte bounds.
func (s *PipelineServer) storeQuery(epoch uint64, raw string, body []byte) []string {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	st := s.qcache.Load()
	cost := len(raw) + len(body)
	fits := len(raw) <= maxCachedQueryKey && cost <= maxCachedQueryBytes
	switch {
	case st == nil || st.epoch < epoch:
		etag := "\"q" + strconv.FormatUint(epoch, 10) + "\""
		next := &queryCacheState{
			epoch:   epoch,
			etag:    etag,
			etagHdr: []string{etag},
			body:    map[string][]byte{},
		}
		if fits {
			next.body[raw] = body
			next.order = []string{raw}
			next.bytes = cost
		}
		s.qcache.Store(next)
		return next.etagHdr
	case st.epoch == epoch:
		if _, ok := st.body[raw]; !ok && fits {
			nb := make(map[string][]byte, len(st.body)+1)
			for k, b := range st.body {
				nb[k] = b
			}
			no := make([]string, len(st.order), len(st.order)+1)
			copy(no, st.order)
			nb[raw] = body
			no = append(no, raw)
			nbytes := st.bytes + cost
			evicted := 0
			for len(nb) > maxCachedQueries || nbytes > maxCachedQueryBytes {
				old := no[0]
				nbytes -= len(old) + len(nb[old])
				delete(nb, old)
				no = no[1:]
				evicted++
			}
			s.met.queryEvict.Add(uint64(evicted))
			s.qcache.Store(&queryCacheState{
				epoch: st.epoch, etag: st.etag, etagHdr: st.etagHdr,
				body: nb, order: no, bytes: nbytes,
			})
		}
		return st.etagHdr
	default:
		// The cache has moved to a newer epoch while this response was
		// being computed; tag the response with its own epoch and leave
		// the cache alone.
		etag := "\"q" + strconv.FormatUint(epoch, 10) + "\""
		return []string{etag}
	}
}

func attrIndex(s *schema.Schema, name string) (int, error) {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown attribute %q", name)
}

// parseRangeQuery builds a RangeQuery from URL parameters, validating
// attribute names against the schema early for clearer errors.
func parseRangeQuery(get func(string) string, sch *schema.Schema) (pipeline.RangeQuery, error) {
	var rq pipeline.RangeQuery
	rq.Attr = get("attr")
	if rq.Attr == "" {
		return rq, fmt.Errorf("range queries need attr=")
	}
	if _, err := attrIndex(sch, rq.Attr); err != nil {
		return rq, err
	}
	var err1, err2 error
	rq.Lo, err1 = strconv.ParseFloat(get("lo"), 64)
	rq.Hi, err2 = strconv.ParseFloat(get("hi"), 64)
	if err1 != nil || err2 != nil {
		return rq, fmt.Errorf("lo and hi must be numbers in [-1,1]")
	}
	if rq.Attr2 = get("attr2"); rq.Attr2 != "" {
		if _, err := attrIndex(sch, rq.Attr2); err != nil {
			return rq, err
		}
		rq.Lo2, err1 = strconv.ParseFloat(get("lo2"), 64)
		rq.Hi2, err2 = strconv.ParseFloat(get("hi2"), 64)
		if err1 != nil || err2 != nil {
			return rq, fmt.Errorf("lo2 and hi2 must be numbers in [-1,1]")
		}
	}
	return rq, nil
}
