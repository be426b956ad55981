package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"ldp/internal/cluster"
	"ldp/internal/dataset"
	"ldp/internal/pipeline"
	"ldp/internal/rangequery"
	"ldp/internal/reportlog"
	"ldp/internal/rng"
	"ldp/internal/telemetry"
	"ldp/internal/transport"
)

// The aggregator is wired the way cmd/ldpserver wires it for
//
//	ldpserver -dataset br -eps 1 -range -logdir DIR -log-sync 100ms [-mode edge -push-to ROOT]
//
// with every other flag at its default: shards = GOMAXPROCS, exact query
// staleness, incremental views at the 0.25 crossover, telemetry on, the
// request logger at info level, and admission control at 256 in flight
// with a 30 s request deadline.
const (
	eps            = 1.0
	segmentSize    = 64 << 20
	groupCommit    = 100 * time.Millisecond
	groupBytes     = 256 << 10
	maxInFlight    = 256
	requestTimeout = 30 * time.Second
	incrementalMax = 0.25
)

var census = dataset.NewBR()

// domain is a range-task configuration; the zero value is the default
// domain (256 buckets, 8x8 grids).
type domain struct{ buckets, gridCells int }

func newPipeline(d domain, reg *telemetry.Registry) (*pipeline.Pipeline, error) {
	opts := []pipeline.Option{
		pipeline.WithShards(runtime.GOMAXPROCS(0)),
		pipeline.WithQueryStaleness(0, 0),
		pipeline.WithIncrementalView(incrementalMax),
		pipeline.WithRange(rangequery.Config{Buckets: d.buckets, GridCells: d.gridCells}),
	}
	if reg != nil {
		opts = append(opts, pipeline.WithTelemetry(reg))
	}
	return pipeline.New(census.Schema(), eps, opts...)
}

// node is one in-process aggregator serving HTTP on a loopback port.
type node struct {
	p    *pipeline.Pipeline
	reg  *telemetry.Registry
	wal  *reportlog.Writer
	fw   *cluster.Forwarder
	srv  *http.Server
	url  string
	done chan struct{}
}

// nodeSpec says how to start a node. dir is its report log (empty: no
// log, as a root runs); rootURL makes it an edge forwarding there.
type nodeSpec struct {
	dom     domain
	dir     string
	rootURL string
	edgeID  string
	tr      *tracer // nil: untraced wiring, exactly as ldpserver runs
}

var quietLog = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))

// startNode restarts an aggregator the way ldpserver does: recover and
// replay the report log, reopen it in group commit, build the server and
// start listening. It returns once the listener accepts connections.
func startNode(spec nodeSpec) (*node, error) {
	n := &node{reg: telemetry.NewRegistry()}
	p, err := newPipeline(spec.dom, n.reg)
	if err != nil {
		return nil, err
	}
	n.p = p
	var sink transport.Sink
	if spec.dir != "" {
		stats, err := reportlog.Recover(spec.dir)
		if err != nil {
			return nil, fmt.Errorf("recover report log: %w", err)
		}
		if stats.Records > 0 {
			if _, err := spec.tr.replay(p, spec.dir); err != nil {
				return nil, fmt.Errorf("replay report log: %w", err)
			}
		}
		w, err := reportlog.Open(spec.dir, segmentSize, reportlog.WithGroupCommit(groupCommit, groupBytes))
		if err != nil {
			return nil, err
		}
		n.wal = w
		sink = w
		if spec.tr != nil {
			sink = spec.tr.sink(w)
		}
	}
	var ready []transport.ReadyCheck
	if n.wal != nil {
		ready = append(ready, transport.ReadyCheck{Name: "wal", Check: n.wal.Healthy})
	}
	if spec.rootURL != "" {
		cfg := cluster.ForwarderConfig{
			RootURL:  spec.rootURL,
			EdgeID:   spec.edgeID,
			Logger:   quietLog,
			Registry: n.reg,
		}
		if n.wal != nil {
			cfg.Sync = n.wal.Sync
		}
		if spec.tr != nil {
			cfg.Sync = spec.tr.syncFunc(cfg.Sync)
			cfg.HTTPClient = &http.Client{Timeout: 10 * time.Second, Transport: spec.tr.pushTransport()}
		}
		if n.fw, err = cluster.NewForwarder(p, cfg); err != nil {
			n.closeWAL()
			return nil, err
		}
		ready = append(ready, transport.ReadyCheck{Name: "fanin-breaker", Check: func() error {
			if n.fw.Breaker().State() == cluster.BreakerOpen {
				return errors.New("push breaker open")
			}
			return nil
		}})
	}
	ps := transport.NewPipelineServer(p, sink,
		transport.WithServerTelemetry(n.reg),
		transport.WithRequestLog(quietLog),
		transport.WithReadyChecks(ready...),
		transport.WithAdmission(transport.AdmissionConfig{MaxInFlight: maxInFlight, Timeout: requestTimeout}),
	)
	var h http.Handler = ps
	if spec.tr != nil {
		h = spec.tr.handler(ps)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.closeWAL()
		return nil, err
	}
	n.url = "http://" + ln.Addr().String()
	n.srv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	n.done = make(chan struct{})
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return n, nil
}

func (n *node) closeWAL() error {
	if n.wal == nil {
		return nil
	}
	err := n.wal.Close()
	n.wal = nil
	return err
}

// close stops the listener, waits for the serve goroutine, and commits
// and closes the report log last, as ldpserver's shutdown does.
func (n *node) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		n.srv.Close()
	}
	<-n.done
	return n.closeWAL()
}

// preload describes one pre-written report log: count distinct reports
// whose tuples and randomness come from seed.
type preload struct {
	dom   domain
	seed  uint64
	count int
}

// genChunk is the unit of parallel input generation.
const genChunk = 4096

// writePreload writes a report log of randomized BR reports into dir and
// returns their tuple statistics. Chunks are randomized in parallel but
// appended in index order, so one seed always gives byte-identical logs;
// the writer holds only a few chunks at a time.
func writePreload(dir string, pl preload, workers int) (truth, error) {
	client, err := newPipeline(pl.dom, nil)
	if err != nil {
		return truth{}, err
	}
	w, err := reportlog.Open(dir, segmentSize, reportlog.WithGroupCommit(time.Hour, 16<<20))
	if err != nil {
		return truth{}, err
	}
	chunks := (pl.count + genChunk - 1) / genChunk
	bufs := make([][]byte, workers)
	lens := make([][]int, workers)
	parts := make([]truth, workers)
	errs := make([]error, workers)
	var tot truth
	for base := 0; base < chunks; base += workers {
		var wg sync.WaitGroup
		for g := 0; g < workers && base+g < chunks; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				c := base + g
				bufs[g], lens[g], parts[g] = bufs[g][:0], lens[g][:0], truth{}
				for i := c * genChunk; i < min((c+1)*genChunk, pl.count); i++ {
					r := rng.NewStream(pl.seed, uint64(i))
					t := census.Tuple(r)
					parts[g].add(client, t, 1)
					rep, err := client.Randomize(t, r)
					start := len(bufs[g])
					if err == nil {
						bufs[g], err = transport.AppendEnvelope(bufs[g], rep)
					}
					if err != nil {
						errs[g] = err
						return
					}
					lens[g] = append(lens[g], len(bufs[g])-start)
				}
			}(g)
		}
		wg.Wait()
		for g := 0; g < workers && base+g < chunks; g++ {
			if errs[g] != nil {
				w.Close()
				return truth{}, errs[g]
			}
			off := 0
			for _, l := range lens[g] {
				if err := w.Append(bufs[g][off : off+l]); err != nil {
					w.Close()
					return truth{}, err
				}
				off += l
			}
			tot.merge(&parts[g])
		}
	}
	return tot, w.Close()
}
