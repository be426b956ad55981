// Command ldpserver runs the unified aggregator service: it accepts
// randomized reports for every task (mean, frequency, range, joint) on one
// route, optionally persists them to a crash-recoverable report log, and
// answers every query kind on one route.
//
// Usage:
//
//	ldpserver -addr :8080 -dataset br -eps 1 -shards 8 -range -logdir /var/lib/ldp
//	ldpserver -addr :8080 -dataset br -eps 2 -sgd -sgdrounds 20 -sgdgroup 512
//	ldpserver -addr :8080 -dataset br -debug-addr 127.0.0.1:6060 -log-format json
//	ldpserver -addr :8081 -dataset br -mode edge -push-to http://root:8080 -push-interval 5s
//
// Clustering: -mode root (the default) additionally accepts cluster
// fan-in on POST /v1/merge; -mode edge starts a cluster.Forwarder that
// periodically ships the local pipeline's aggregate delta to the root at
// -push-to, identified by -edge-id (exactly-once, survives both edge and
// root restarts; the edge keeps answering its own /v1/query locally).
// Every server runs the same report/query routes regardless of mode.
// With -logdir, -log-sync switches the report log to group commit: one
// fsync per interval (or per -log-sync-bytes buffered bytes) instead of
// unsynced per-record writes.
//
// The schema (and the privacy budget, which fixes the randomizer debiasing
// parameters) must match what the clients use. On startup, any existing
// report log is recovered and replayed so estimates survive restarts.
//
// With -sgd the server additionally coordinates federated LDP-SGD over
// the dataset's ERM feature encoding: it publishes the model on
// GET /v1/model, accepts gradient reports on the shared /v1/report
// route, and advances the model whenever a round's group fills.
//
//	POST /v1/report   one or more v2 envelope report frames
//	GET  /v1/query    ?kind=stats | mean[&attr=] | freq&attr= | range&attr=&lo=&hi=[&attr2=&lo2=&hi2=]
//	GET  /v1/stats    aggregate report counts, ETag-cached on the watermark
//	GET  /v1/model    federated SGD model state (-sgd only)
//	GET  /healthz     liveness: 200 while the process runs
//	GET  /readyz      readiness: 503 while draining, the WAL is failing, or an edge's push breaker is open
//	GET  /metrics     Prometheus text exposition of every subsystem
//
// Operational resilience: mutating routes run behind an admission
// limiter (-max-inflight, -request-timeout) that sheds excess load with
// 429 + Retry-After before reading a byte of body. SIGINT/SIGTERM
// triggers a graceful shutdown: readiness flips to 503, in-flight
// requests drain for up to -drain, an edge makes one final best-effort
// push to its root, and the report log commits and closes last — so a
// clean restart never loses an acknowledged report, even under
// -log-sync group commit. A second signal during the drain kills the
// process immediately. -push-chaos injects deterministic faults into the
// edge push path for resilience testing (see internal/chaos).
//
// Queries are answered from an epoch-cached snapshot with pre-encoded
// JSON bodies and epoch-keyed ETags (If-None-Match gets 304 while the
// view is unchanged); -query-staleness and -query-maxage bound how far
// the cached view may trail ingest before a query rebuilds it.
//
// Observability: the server always registers its telemetry (the hot paths
// stay allocation-free either way) and serves it on /metrics. Logs are
// structured (log/slog); -log-level debug adds one line per request and
// -log-format json switches to JSON lines. -debug-addr starts a second,
// operator-only listener serving net/http/pprof under /debug/pprof/,
// expvar under /debug/vars (the registry is published as the "ldp" var),
// and a /metrics alias — keep it bound to localhost; nothing on it is
// meant for report-submitting clients.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"ldp/internal/chaos"
	"ldp/internal/cluster"
	"ldp/internal/dataset"
	"ldp/internal/pipeline"
	"ldp/internal/rangequery"
	"ldp/internal/reportlog"
	"ldp/internal/telemetry"
	"ldp/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ldpserver:", err)
		os.Exit(1)
	}
}

// publishExpvar guards the process-global expvar name: run is re-entered
// by tests, and expvar.Publish panics on duplicates.
var publishExpvar sync.Once

// newLogger builds the process logger from the -log-level/-log-format
// flags.
func newLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

// debugMux assembles the operator-only debug handler: pprof, expvar, and
// the metrics exposition on one explicit mux (the point of -debug-addr is
// precisely not to hang these off the public DefaultServeMux).
func debugMux(reg *telemetry.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", reg.Handler())
	return mux
}

func run(args []string) error {
	fs := flag.NewFlagSet("ldpserver", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address")
		name      = fs.String("dataset", "br", "schema to serve: br or mx")
		eps       = fs.Float64("eps", 1, "privacy budget the clients use")
		shards    = fs.Int("shards", runtime.GOMAXPROCS(0), "aggregation shards (ingest concurrency)")
		rangeOn   = fs.Bool("range", false, "register the range-query task")
		buckets   = fs.Int("buckets", 0, "range hierarchy buckets (power of two; 0 = 256)")
		gridCell  = fs.Int("gridcells", 0, "range 2-D grid resolution per axis (0 = 8)")
		logdir    = fs.String("logdir", "", "report log directory (empty = no persistence)")
		qStale    = fs.Int64("query-staleness", 0, "serve cached query views trailing ingest by up to this many reports (0 = exact)")
		qMaxAge   = fs.Duration("query-maxage", 0, "rebuild cached query views older than this (0 = no age bound)")
		incFrac   = fs.Float64("incremental", 0.25, "incremental view rebuild crossover: fold only ingest deltas when they are at most this fraction of the watermark (0 = always full snapshots)")
		sgdOn     = fs.Bool("sgd", false, "register the federated LDP-SGD gradient task")
		sgdRnds   = fs.Int("sgdrounds", 20, "federated SGD rounds")
		sgdGroup  = fs.Int("sgdgroup", 512, "gradient reports per SGD round")
		sgdEta    = fs.Float64("sgdeta", 1.0, "SGD learning-rate scale (gamma_t = eta/sqrt(t))")
		sgdLam    = fs.Float64("sgdlambda", 1e-4, "L2 regularization weight clients train with")
		debugAddr = fs.String("debug-addr", "", "operator debug listener (pprof, expvar, metrics); empty = off")
		logLevel  = fs.String("log-level", "info", "log level: debug, info, warn, or error (debug logs every request)")
		logFormat = fs.String("log-format", "text", "log format: text or json")
		mode      = fs.String("mode", "root", "cluster role: root (accepts /v1/merge pushes) or edge (forwards to -push-to)")
		pushTo    = fs.String("push-to", "", "edge mode: root aggregator base URL (e.g. http://root:8080)")
		pushIvl   = fs.Duration("push-interval", 5*time.Second, "edge mode: fan-in push cadence")
		edgeID    = fs.String("edge-id", "", "edge mode: stable edge identifier (default: the listen address)")
		logSync   = fs.Duration("log-sync", 0, "group-commit the report log: fsync on this interval instead of buffering unsynced (0 = legacy unbuffered writes)")
		logSyncB  = fs.Int("log-sync-bytes", 256<<10, "group-commit byte threshold: commit early once this many buffered bytes accumulate")
		drain     = fs.Duration("drain", 10*time.Second, "graceful shutdown: how long SIGINT/SIGTERM waits for in-flight requests before closing connections")
		maxInFl   = fs.Int("max-inflight", 256, "admission control: mutating requests decoded concurrently; beyond it requests are shed with 429 (0 = default 256, negative = no limiter)")
		reqTmo    = fs.Duration("request-timeout", 30*time.Second, "admission control: per-request deadline for admitted mutating requests (0 = unbounded)")
		pushChaos = fs.String("push-chaos", "", "edge mode: deterministic fault-injection plan for the push path, e.g. seed=7,drop=0.2,blackhole=0.1 (testing only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		return err
	}
	switch *mode {
	case "root":
		if *pushTo != "" {
			return fmt.Errorf("-push-to only makes sense with -mode edge")
		}
		if *pushChaos != "" {
			return fmt.Errorf("-push-chaos only makes sense with -mode edge")
		}
	case "edge":
		if *pushTo == "" {
			return fmt.Errorf("-mode edge requires -push-to URL")
		}
		if *sgdOn {
			return fmt.Errorf("-sgd cannot run on an edge: federated training state does not fan in")
		}
	default:
		return fmt.Errorf("unknown -mode %q (want root or edge)", *mode)
	}
	var c *dataset.Census
	switch *name {
	case "br":
		c = dataset.NewBR()
	case "mx":
		c = dataset.NewMX()
	default:
		return fmt.Errorf("unknown dataset %q (want br or mx)", *name)
	}

	reg := telemetry.NewRegistry()
	opts := []pipeline.Option{
		pipeline.WithShards(*shards),
		pipeline.WithQueryStaleness(*qStale, *qMaxAge),
		pipeline.WithIncrementalView(*incFrac),
		pipeline.WithTelemetry(reg),
	}
	if *rangeOn {
		opts = append(opts, pipeline.WithRange(rangequery.Config{Buckets: *buckets, GridCells: *gridCell}))
	}
	if *sgdOn {
		opts = append(opts, pipeline.WithGradient(pipeline.GradientConfig{
			Dim:       c.ERMDim(),
			Rounds:    *sgdRnds,
			GroupSize: *sgdGroup,
			Eta:       *sgdEta,
			Lambda:    *sgdLam,
		}))
	}
	p, err := pipeline.New(c.Schema(), *eps, opts...)
	if err != nil {
		return err
	}

	var sink transport.Sink
	var wal *reportlog.Writer
	var walClose func() error
	if *logdir != "" {
		start := time.Now()
		stats, err := reportlog.Recover(*logdir)
		if err != nil {
			return fmt.Errorf("recover report log: %w", err)
		}
		recovered := time.Since(start)
		var replayed time.Duration
		n := 0
		if stats.Records > 0 {
			start = time.Now()
			n, err = transport.ReplayPipeline(p, func(fn func([]byte) error) error {
				_, err := reportlog.Replay(*logdir, fn)
				return err
			})
			if err != nil {
				return fmt.Errorf("replay report log: %w", err)
			}
			replayed = time.Since(start)
		}
		rate := 0.0
		if replayed > 0 {
			rate = float64(n) / replayed.Seconds()
		}
		logger.Info("replayed report log", "reports", n, "dir", *logdir, "torn_tail", stats.Truncated,
			"recover", recovered, "replay", replayed, "reports_per_s", int64(rate))
		reg.Gauge("ldp_wal_recover_duration_ns", "Duration of the boot-time report log recovery scan in nanoseconds.").Set(recovered.Nanoseconds())
		reg.Gauge("ldp_wal_replay_duration_ns", "Duration of the boot-time report log replay in nanoseconds.").Set(replayed.Nanoseconds())
		reg.Gauge("ldp_wal_replayed_reports", "Reports replayed from the report log at boot.").Set(int64(n))
		var logOpts []reportlog.Option
		if *logSync > 0 {
			logOpts = append(logOpts, reportlog.WithGroupCommit(*logSync, *logSyncB))
		}
		w, err := reportlog.Open(*logdir, 64<<20, logOpts...)
		if err != nil {
			return err
		}
		// walClose runs at most once: either explicitly at the end of the
		// shutdown sequence (where its error is checked — the final commit
		// is what makes a clean restart lossless) or via the deferred
		// cleanup on early error returns.
		walClosed := false
		walClose = func() error {
			if walClosed {
				return nil
			}
			walClosed = true
			return w.Close()
		}
		defer func() { _ = walClose() }()
		sink, wal = w, w
	}

	publishExpvar.Do(func() { expvar.Publish("ldp", reg.Expvar()) })
	var dbg *http.Server
	if *debugAddr != "" {
		dbg = &http.Server{
			Addr:              *debugAddr,
			Handler:           debugMux(reg),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			logger.Info("debug listener up", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("debug listener failed", "err", err)
			}
		}()
	}

	// The forwarder is built before the server so its breaker can feed the
	// readiness probe: an edge whose root is unreachable keeps serving
	// local queries but reports not-ready for new fan-in-dependent work.
	var fw *cluster.Forwarder
	if *mode == "edge" {
		id := *edgeID
		if id == "" {
			id = *addr
		}
		cfg := cluster.ForwarderConfig{
			RootURL:  *pushTo,
			EdgeID:   id,
			Interval: *pushIvl,
			Logger:   logger,
			Registry: reg,
		}
		if wal != nil {
			// Fsync the report log before every push: everything the root
			// acknowledges is then locally durable, so an edge crash can
			// only replay a superset of the acked baseline — never less.
			cfg.Sync = wal.Sync
		}
		if *pushChaos != "" {
			plan, err := chaos.ParsePlan(*pushChaos)
			if err != nil {
				return err
			}
			cfg.HTTPClient = plan.Client(30 * time.Second)
			logger.Warn("push chaos enabled (testing only)", "plan", *pushChaos)
		}
		fw, err = cluster.NewForwarder(p, cfg)
		if err != nil {
			return err
		}
	}

	var ready []transport.ReadyCheck
	if wal != nil {
		ready = append(ready, transport.ReadyCheck{Name: "wal", Check: wal.Healthy})
	}
	if fw != nil {
		ready = append(ready, transport.ReadyCheck{Name: "fanin-breaker", Check: func() error {
			if fw.Breaker().State() == cluster.BreakerOpen {
				return errors.New("push breaker open (root unreachable)")
			}
			return nil
		}})
	}
	srvOpts := []transport.ServerOption{
		transport.WithServerTelemetry(reg),
		transport.WithRequestLog(logger),
		transport.WithReadyChecks(ready...),
	}
	if *maxInFl >= 0 {
		srvOpts = append(srvOpts, transport.WithAdmission(transport.AdmissionConfig{
			MaxInFlight: *maxInFl,
			Timeout:     *reqTmo,
		}))
	}
	ps := transport.NewPipelineServer(p, sink, srvOpts...)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           ps,
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Lifecycle: run the listener (and the forwarder loop) in the
	// background and block on the first of "listener died" or "signal
	// received". A second signal during the drain kills the process the
	// default way — stop() restores default handling before draining.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fwCtx, fwCancel := context.WithCancel(context.Background())
	defer fwCancel()
	var fwDone chan struct{}
	if fw != nil {
		fwDone = make(chan struct{})
		go func() {
			defer close(fwDone)
			fw.Run(fwCtx)
		}()
		logger.Info("fan-in forwarder started", "root", *pushTo, "interval", *pushIvl)
	}

	tasks := ""
	for _, t := range p.Tasks() {
		if tasks != "" {
			tasks += ","
		}
		tasks += t.Name()
	}
	logger.Info("unified aggregator listening",
		"addr", *addr, "mode", *mode, "dataset", *name, "dim", c.Schema().Dim(),
		"eps", *eps, "tasks", tasks, "shards", p.Shards())

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutdown signal received", "drain", *drain)

	// Shutdown order matters: flip readiness first (load balancers stop
	// routing), drain the listener, stop the push loop, make one final
	// best-effort push, and only then commit and close the report log —
	// the WAL must outlive everything that appends to it.
	ps.SetDraining(true)
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drain)
	defer cancelDrain()
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Warn("drain deadline exceeded; closing remaining connections", "err", err)
		srv.Close()
	}
	if dbg != nil {
		dbg.Close()
	}
	if fw != nil {
		fwCancel()
		<-fwDone
		pushCtx, cancelPush := context.WithTimeout(context.Background(), *drain)
		if err := fw.Push(pushCtx); err != nil && !errors.Is(err, cluster.ErrBreakerOpen) {
			logger.Warn("final fan-in push failed; reports remain locally durable", "err", err)
		}
		cancelPush()
	}
	if walClose != nil {
		if err := walClose(); err != nil {
			return fmt.Errorf("close report log: %w", err)
		}
	}
	logger.Info("shutdown complete")
	return nil
}
