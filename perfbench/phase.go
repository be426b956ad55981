package main

import (
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opFunc runs op i on one closed loop. It returns the op's own verdict;
// an error or failed check makes the op count as failed.
type opFunc func(l *loop, i int64, traced bool) error

// afterFunc runs after a traced op's timer has stopped.
type afterFunc func(l *loop, i int64) error

// loop is one closed-loop caller: it sends its next op only after the
// previous one completes.
//
// A timed phase keeps, per window, the latency of every op that started
// in it (ms; +Inf for a failed op), and for traced ops the share of the
// op its direct child spans cover. float32 keeps this bookkeeping from
// growing the resident set the benchmark reports.
type loop struct {
	id    int
	lat   [][]float32
	cover []float64
	st    *loopState // workload scratch
	ot    opTrace
}

// phase drives every loop until limit ops have started (count-bounded,
// used for the warm-up) or for nwin windows of length win (the timed
// phase), sampling process usage at every window boundary. Op indices
// continue across phases through next, so inputs never repeat between
// them. With a tracer, ops that start in odd windows are traced: the
// traced run interleaves traced and untraced windows so the tracing
// overhead is measured against the same minutes. after, when set, runs
// after a traced op's timer has stopped.
type phase struct {
	next  *atomic.Int64
	limit int64
	win   time.Duration
	nwin  int
	tr    *tracer
}

type phaseResult struct {
	elapsed time.Duration
	failed  int64
	usage   []usage // at each window boundary (timed phases)
}

func (ph phase) run(loops []*loop, op opFunc, after afterFunc) phaseResult {
	var wg sync.WaitGroup
	var fails atomic.Int64
	var res phaseResult
	t0 := time.Now()
	deadline := t0.Add(time.Duration(ph.nwin) * ph.win)
	if ph.limit == 0 {
		res.usage = make([]usage, 0, ph.nwin+1)
		res.usage = append(res.usage, sampleUsage())
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k <= ph.nwin; k++ {
				time.Sleep(time.Until(t0.Add(time.Duration(k) * ph.win)))
				res.usage = append(res.usage, sampleUsage())
			}
		}()
	}
	for _, l := range loops {
		l.lat = make([][]float32, ph.nwin)
		wg.Add(1)
		go func(l *loop) {
			defer wg.Done()
			for {
				start := time.Now()
				if ph.limit == 0 && !start.Before(deadline) {
					return
				}
				i := ph.next.Add(1) - 1
				if ph.limit > 0 && i >= ph.limit {
					return
				}
				k := -1 // the warm-up records nothing
				if ph.limit == 0 {
					k = int(start.Sub(t0) / ph.win)
				}
				traced := ph.tr != nil && k%2 == 1
				if traced {
					l.ot.begin(ph.tr, i)
				}
				err := op(l, i, traced)
				end := time.Now()
				ms := float32(end.Sub(start).Seconds() * 1e3)
				if traced {
					l.cover = append(l.cover, l.ot.end(start, end))
					if err == nil && after != nil {
						err = after(l, i)
					}
				}
				if err != nil {
					fails.Add(1)
					l.st.lastErr = err
					ms = float32(math.Inf(1))
				}
				if k >= 0 {
					l.lat[k] = append(l.lat[k], ms)
				}
			}
		}(l)
	}
	wg.Wait()
	res.elapsed = time.Since(t0)
	res.failed = fails.Load()
	return res
}

// opTrace collects one traced op's direct child spans on its loop.
type opTrace struct {
	t     *tracer
	op    int64
	child int64 // ns covered by direct child spans
}

func (o *opTrace) begin(t *tracer, op int64) { o.t, o.op, o.child = t, op, 0 }

// span records a direct child of the op.
func (o *opTrace) span(l layer, idx int, start, end int64) {
	o.t.record(o.op, l, uint8(idx), start, end)
	o.child += end - start
}

func (o *opTrace) end(start, end time.Time) float64 {
	s, e := int64(start.Sub(o.t.epoch)), int64(end.Sub(o.t.epoch))
	o.t.record(o.op, lOp, 0, s, e)
	if e <= s {
		return 1
	}
	return float64(o.child) / float64(e-s)
}

// usage is a process resource sample.
type usage struct {
	cpu    time.Duration // user + system
	allocs uint64
	bytes  uint64
	gcs    uint64
	sched  *metrics.Float64Histogram
	rss    float64 // resident set, MiB
	steal  int64   // host steal ticks so far (/proc/stat)
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/latencies:seconds"},
}

func sampleUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := slices.Clone(usageSamples)
	metrics.Read(s)
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: s[0].Value.Uint64(),
		bytes:  s[1].Value.Uint64(),
		gcs:    s[2].Value.Uint64(),
		sched:  s[3].Value.Float64Histogram(),
		rss:    residentMiB(),
		steal:  stealTicks(),
	}
}

// residentMiB is the process's current resident set from
// /proc/self/statm (0 where it cannot be read).
func residentMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// windowStats pools the windows of a timed phase that keep selects: the
// traced run keeps its untraced windows for the end-to-end metrics, and
// an untraced run keeps every window, so its figures cover the whole
// timed phase. ops_per_s is the pooled ops over the pooled seconds, p50
// and p90 are quantiles of every pooled latency, and cpu_us_per_op is the
// pooled process CPU over the pooled ops.
type windowStats struct {
	windows  int   // windows pooled
	kept     []int // their indices
	ops      int64 // ops started inside them
	opsPerS  float64
	p50, p90 float64 // ms
	cpuPerOp float64 // us
	rss      float64 // MiB, peak over the samples at the window ends
	lat      []float64
	detail   []windowDetail // every pooled window, in time order
}

// windowDetail is one window's figures, printed so a disturbed window or
// run can be told apart.
type windowDetail struct {
	k        int
	steal    float64 // host steal ticks (/proc/stat)
	ops      int
	p50, p90 float64
}

// summarize pools the windows keep selects. u holds the process usage at
// each window boundary.
func summarize(loops []*loop, win time.Duration, u []usage, keep func(k int) bool) windowStats {
	var ws windowStats
	var cpu time.Duration
	for k := range loops[0].lat {
		if !keep(k) {
			continue
		}
		var lats []float64
		for _, l := range loops {
			for _, x := range l.lat[k] {
				lats = append(lats, float64(x))
			}
		}
		slices.Sort(lats)
		d := windowDetail{k: k, ops: len(lats), p50: quantile(lats, 0.5), p90: quantile(lats, 0.9)}
		if k+1 < len(u) {
			d.steal = float64(u[k+1].steal - u[k].steal)
			cpu += u[k+1].cpu - u[k].cpu
		}
		ws.detail = append(ws.detail, d)
		ws.windows++
		ws.kept = append(ws.kept, k)
		ws.ops += int64(len(lats))
		ws.lat = append(ws.lat, lats...)
	}
	slices.Sort(ws.lat)
	ws.opsPerS = float64(ws.ops) / (float64(ws.windows) * win.Seconds())
	ws.p50 = quantile(ws.lat, 0.5)
	ws.p90 = quantile(ws.lat, 0.9)
	ws.cpuPerOp = float64(cpu) / 1e3 / float64(ws.ops)
	// The sample taken as the phase starts can still hold memory that
	// set-up freed but the runtime has not yet returned; it is left out.
	for _, x := range u[1:] {
		ws.rss = max(ws.rss, x.rss)
	}
	return ws
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
