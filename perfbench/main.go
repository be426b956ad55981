// Command perfbench is the repository's end-to-end benchmark. It runs the
// real aggregator in-process on loopback, restarted from a pre-written
// report log, drives one named workload through closed loops, checks the
// answers, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload ingest|dashboard|fanin --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer breakdown. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"ldp/internal/pipeline"
)

type config struct {
	root     string // checkout root; scratch files live under root/.bench_build
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	setups   int     // restarts per run; setup_s is their median
	scale    float64 // preload size factor (the benchmark's own test shrinks it)
	work     string  // this run's scratch directory
	spans    bool    // write the traced run's span log
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := config{root: ".", setups: 5, scale: 1, spans: true}
	fs.StringVar(&cfg.workload, "workload", "", "workload: ingest, dashboard or fanin")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = *trace == 1
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects everything a run prints.
type report struct {
	metrics map[string]metric
	samples map[string]int64
	checks  []string
	failed  int64
}

func (r *report) set(name string, v float64, unit string, n int64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = -1 // never reached on a correct run; keeps the JSON valid
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

func (r *report) check(name string, err error) {
	if err != nil {
		r.failed++
		r.checks = append(r.checks, fmt.Sprintf("check %-12s FAIL %v", name, err))
		return
	}
	r.checks = append(r.checks, fmt.Sprintf("check %-12s ok", name))
}

func run(cfg config, out io.Writer) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want ingest, dashboard or fanin)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	w.preload = max(int(float64(w.preload)*cfg.scale), genChunk)
	cfg.work = filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.work)
	steal0 := stealTicks()
	b := &bench{cfg: cfg, w: w}
	if cfg.trace {
		b.tr = newTracer(w.perOp)
	}
	// wall records how long each stage of the run took (for the stamp).
	wall := map[string]float64{}
	stage := time.Now()
	lap := func(name string) {
		wall[name] = time.Since(stage).Seconds()
		stage = time.Now()
	}
	if err := b.genInputs(); err != nil {
		return nil, err
	}
	lap("inputs")
	nloops := w.loops
	if nloops == 0 {
		nloops = runtime.NumCPU()
	}
	transport := &http.Transport{MaxIdleConnsPerHost: 64, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: time.Minute}

	// Restart the aggregators several times; the last restart serves.
	var setups []float64
	for s := 0; s < cfg.setups; s++ {
		if s > 0 {
			if err := b.closeNodes(); err != nil {
				return nil, err
			}
		}
		d, err := b.setup(client)
		if err != nil {
			b.closeNodes()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	lap("setups")
	defer b.closeNodes()
	b.expectN = b.totalPreload()
	if cfg.trace {
		var err error
		if b.twin, err = newPipeline(w.dom, nil); err != nil {
			return nil, err
		}
		if b.twinRoot, err = newPipeline(w.dom, nil); err != nil {
			return nil, err
		}
	}

	loops := make([]*loop, nloops)
	for i := range loops {
		loops[i] = &loop{id: i, st: &loopState{
			client:  client,
			reps:    make([]pipeline.Report, w.perOp),
			batch:   pipeline.NewReportBatch(),
			uses:    make([]int64, max(len(b.bodies), len(b.blockTruth))),
			perEdge: make([]int64, max(w.edges, 1)),
		}}
	}
	var op opFunc
	var after afterFunc
	switch w.name {
	case "ingest":
		op, after = b.ingestOp, b.ingestAfter
	case "dashboard":
		op, after = b.dashboardOp, b.dashboardAfter
	case "fanin":
		op, after = b.faninOp, b.faninAfter
	}
	if !cfg.trace {
		after = nil
	}

	rep := &report{metrics: map[string]metric{}, samples: map[string]int64{}}
	var next atomic.Int64
	scr0, err := scrape(client, b.nodes())
	if err != nil {
		return nil, err
	}
	warm := phase{next: &next, limit: w.warmup}.run(loops, op, nil)
	next.Store(w.warmup) // each loop drew one index past the limit
	scr1, err := scrape(client, b.nodes())
	if err != nil {
		return nil, err
	}
	win := time.Second
	if cfg.seconds < 8 {
		win = time.Duration(cfg.seconds / 4 * float64(time.Second))
	}
	nwin := int(math.Round(cfg.seconds * float64(time.Second) / float64(win)))
	timed := phase{next: &next, win: win, nwin: nwin, tr: b.tr}.run(loops, op, after)
	scr2, err := scrape(client, b.nodes())
	if err != nil {
		return nil, err
	}
	timedOps := next.Load() - w.warmup
	attempted := next.Load()
	failedOps := warm.failed + timed.failed

	// Checks, against the quiescent servers.
	for _, l := range loops {
		if l.st.lastErr != nil {
			fmt.Fprintf(out, "loop %d: last failed op: %v\n", l.id, l.st.lastErr)
		}
	}
	lap("phases")
	b.checks(client, rep, loops)
	lap("checks")
	rep.failed += failedOps
	attempted += int64(len(rep.checks))

	// End-to-end metrics: untraced ops only.
	keep := func(int) bool { return true }
	if cfg.trace {
		keep = untracedWindow
	}
	ws := summarize(loops, win, timed.usage, keep)
	rep.set("ops_per_s", ws.opsPerS, "1/s", ws.ops)
	rep.set("op_p50_ms", ws.p50, "ms", ws.ops)
	rep.set("op_p90_ms", ws.p90, "ms", ws.ops)
	rep.set("cpu_us_per_op", ws.cpuPerOp, "us", ws.ops)
	rep.set("setup_s", median(setups), "s", int64(len(setups)))
	rep.set("rss_mb", ws.rss, "MiB", int64(len(timed.usage)-1))
	rep.set("fail_frac", float64(rep.failed)/float64(attempted), "1", attempted)

	counts := countsPerOp(scr1, scr2, timedOps)
	window := countsPerOp(scr0, scr1, w.warmup)
	var layers map[string]metric
	if cfg.trace {
		layers = b.layerMetrics(loops, win, timed, ws, counts)
	} else {
		for k, v := range runtimeMetrics(timed.usage, ws) {
			counts[k] = v
		}
	}
	steal := stealTicks() - steal0

	// Human-readable report, then the JSON line.
	fmt.Fprintf(out, "workload %s seed %d trace %v\n", w.name, cfg.seed, cfg.trace)
	stamp := map[string]any{
		"go": goInfo(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"cpu": cpuModel(), "commit": commit(cfg.root), "seed": cfg.seed, "workload": w.name,
		"wal_medium": medium(cfg.work), "timed_s": timed.elapsed.Seconds(), "window_s": win.Seconds(),
		"loops": nloops, "preload_reports": b.totalPreload(), "setups": len(setups),
		"steal_ticks": steal, "samples": rep.samples, "count_window_ops": w.warmup,
		"count_window": window, "setup_each_s": setups, "stage_s": wall,
	}
	sj, _ := json.Marshal(stamp) // a map of plain values always encodes
	fmt.Fprintf(out, "stamp %s\n", sj)
	for _, c := range rep.checks {
		fmt.Fprintln(out, c)
	}
	printMetrics(out, "metric", rep.metrics, rep.samples)
	for _, d := range ws.detail {
		fmt.Fprintf(out, "window %2d steal %3.0f ops %6d p50_ms %.4f p90_ms %.4f rss_mb %.1f\n",
			d.k, d.steal, d.ops, d.p50, d.p90, timed.usage[d.k+1].rss)
	}
	cm := map[string]metric{}
	for _, m := range perLayer {
		if v, ok := counts[m.name]; ok && appliesTo(m.in, w.name) {
			cm[m.name] = metric{Value: v, Unit: m.unit}
		}
	}
	printMetrics(out, "count", cm, nil)
	if cfg.trace {
		printMetrics(out, "layer", layers, nil)
		fmt.Fprint(out, b.tr.summary())
		fmt.Fprint(out, b.tr.tailSummary())
		if cfg.spans {
			path := filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
			if err := b.tr.writeSpans(path); err != nil {
				return nil, err
			}
			fmt.Fprintf(out, "spans %s\n", path)
		}
	}

	res := &result{Correct: rep.failed == 0, Attempted: attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	if cfg.trace {
		for _, m := range perLayer {
			if m.json {
				res.Metrics[m.name] = layers[m.name]
			}
		}
	} else {
		for _, name := range endToEnd {
			res.Metrics[name] = rep.metrics[name]
		}
	}
	return res, nil
}

// endToEnd are the metrics an untraced run reports (fail_frac is printed
// but carried by the attempted and failed fields instead: it is 0 on
// every correct run).
var endToEnd = []string{"ops_per_s", "op_p50_ms", "op_p90_ms", "cpu_us_per_op", "setup_s", "rss_mb"}

func printMetrics(out io.Writer, tag string, m map[string]metric, samples map[string]int64) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		line := fmt.Sprintf("%s %-36s %14.6g %s", tag, k, m[k].Value, m[k].Unit)
		if samples != nil {
			line += fmt.Sprintf("  n=%d", samples[k])
		}
		fmt.Fprintln(out, strings.TrimRight(line, " "))
	}
}

// checks runs the end-of-run output checks against the quiescent
// servers, then closes them and replays their logs into a reference.
func (b *bench) checks(c *http.Client, rep *report, loops []*loop) {
	got, err := fetchAnswers(c, b.root.url)
	if err != nil {
		rep.check("answers", err)
		return
	}
	// Watermarks: the preload plus every acknowledged report, exactly.
	perEdge := make([]int64, max(len(b.edges), 1))
	uses := make([]int64, max(len(b.bodies), len(b.blockTruth)))
	var acked int64
	for _, l := range loops {
		for e, n := range l.st.perEdge {
			perEdge[e] += n
			acked += n
		}
		for k, n := range l.st.uses {
			uses[k] += n
		}
	}
	total := b.totalPreload() + acked*int64(b.w.perOp)
	var werr error
	if wm := b.root.p.Watermark(); wm != total {
		werr = fmt.Errorf("watermark %d, want %d", wm, total)
	}
	for e, n := range b.edges {
		if wm, want := n.p.Watermark(), b.preload[e]+perEdge[e]*int64(b.w.perOp); wm != want {
			werr = fmt.Errorf("edge %d watermark %d, want %d", e, wm, want)
		}
	}
	rep.check("watermark", werr)

	// Means against the population truth.
	tr := b.preTr
	for k, n := range uses {
		if n == 0 {
			continue
		}
		if b.bodies != nil {
			tr.mergeN(&b.bodyTruth[k], float64(n), true)
		} else {
			tr.mergeN(&b.blockTruth[k], float64(n), false)
		}
	}
	rep.check("means", checkMeans(&tr, got.means, got.tasks["mean"], got.n))

	// The refresh against a reference replayed from the logs.
	if err := b.closeNodes(); err != nil {
		rep.check("reference", err)
		return
	}
	want, err := referenceAnswers(b.w.dom, b.masters)
	if err == nil {
		err = compareAnswers(got, want)
	}
	rep.check("reference", err)
}
