package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"ldp/internal/pipeline"
	"ldp/internal/reportlog"
	"ldp/internal/schema"
	"ldp/internal/transport"
)

// numAttrs is the number of numeric BR attributes (schema indices 0..5).
const numAttrs = 6

// truth accumulates the population side of the mean check: weighted sums
// of every numeric attribute over the users whose reports the server
// holds, plus the weighted per-report noise variance of the mean task's
// estimator (internal/mech closed forms). A weight is how often one
// user's report reached the server.
type truth struct {
	w1, w2  float64 // sum of weights, sum of squared weights
	t1, t2  [numAttrs]float64
	vw2     [numAttrs]float64 // sum of w^2 * per-report variance
	reports int64
}

// add records one user with weight w (a fresh randomization per use: the
// uses are independent reports).
func (tr *truth) add(p *pipeline.Pipeline, t schema.Tuple, w float64) {
	m := p.MeanTask()
	scale := float64(numAttrs) / float64(m.K())
	tr.w1 += w
	tr.w2 += w
	tr.reports++
	for j := 0; j < numAttrs; j++ {
		x := t.Num[j]
		tr.t1[j] += w * x
		tr.t2[j] += w * x * x
		// A mean-task report carries scale*PM(x) for attribute j with
		// probability 1/scale and 0 otherwise.
		tr.vw2[j] += w * (scale*(m.Mechanism().Variance(x)+x*x) - x*x)
	}
}

// merge adds o as m copies. With same=true every copy is the identical
// report (a re-sent upload), so its variance enters with weight m^2;
// otherwise each copy was randomized afresh.
func (tr *truth) merge(o *truth) { tr.mergeN(o, 1, false) }

func (tr *truth) mergeN(o *truth, m float64, same bool) {
	vm := m
	if same {
		vm = m * m
	}
	tr.w1 += m * o.w1
	tr.w2 += vm * o.w2
	tr.reports += int64(m) * o.reports
	for j := 0; j < numAttrs; j++ {
		tr.t1[j] += m * o.t1[j]
		tr.t2[j] += m * o.t2[j]
		tr.vw2[j] += vm * o.vw2[j]
	}
}

// meanZ is the acceptance threshold in standard errors (as internal/stattest).
const meanZ = 5

// checkMeans compares the server's numeric means against the population
// truth. nMean/nTotal is the share of reports routed to the mean task;
// the standard error covers both the mechanism noise and the routing
// sample, and grows with repeated uploads through the squared weights.
func checkMeans(tr *truth, means map[string]float64, nMean, nTotal int64) error {
	if nMean == 0 || nTotal == 0 {
		return fmt.Errorf("no mean-task reports")
	}
	share := float64(nMean) / float64(nTotal)
	for j := 0; j < numAttrs; j++ {
		name := census.Schema().Attrs[j].Name
		est, ok := means[name]
		if !ok {
			return fmt.Errorf("mean of %s missing from the answer", name)
		}
		mu := tr.t1[j] / tr.w1
		sigma2 := math.Max(tr.t2[j]/tr.w1-mu*mu, 0)
		se := math.Sqrt((tr.vw2[j] + sigma2*tr.w2) / (share * tr.w1 * tr.w1))
		if d := math.Abs(est - mu); d > meanZ*se {
			return fmt.Errorf("mean of %s = %.6f, truth %.6f: off by %.1f standard errors (se %.2g)", name, est, mu, d/se, se)
		}
	}
	return nil
}

// refreshQueries is the analyst refresh: one query of each kind.
var refreshQueries = []string{
	"kind=mean",
	"kind=freq&attr=region",
	"kind=range&attr=age&lo=-0.5&hi=0.25",
	"kind=range&attr=age&lo=-0.5&hi=0.5&attr2=income&lo2=-1&hi2=0",
}

// answers is a server's decoded refresh plus its stats.
type answers struct {
	means map[string]float64
	freqs []float64
	r1d   float64
	r2d   float64
	n     int64
	tasks map[string]int64
}

func fetchAnswers(c *http.Client, base string) (*answers, error) {
	var a answers
	if err := getJSON(c, base+"/v1/query?"+refreshQueries[0], &a.means); err != nil {
		return nil, err
	}
	var f struct {
		Freqs []float64 `json:"freqs"`
	}
	if err := getJSON(c, base+"/v1/query?"+refreshQueries[1], &f); err != nil {
		return nil, err
	}
	a.freqs = f.Freqs
	var r struct {
		Mass float64 `json:"mass"`
	}
	if err := getJSON(c, base+"/v1/query?"+refreshQueries[2], &r); err != nil {
		return nil, err
	}
	a.r1d = r.Mass
	if err := getJSON(c, base+"/v1/query?"+refreshQueries[3], &r); err != nil {
		return nil, err
	}
	a.r2d = r.Mass
	var st struct {
		N     int64            `json:"n"`
		Tasks map[string]int64 `json:"tasks"`
	}
	if err := getJSON(c, base+"/v1/query?kind=stats", &st); err != nil {
		return nil, err
	}
	a.n, a.tasks = st.N, st.Tasks
	return &a, nil
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// referenceAnswers replays report logs into a fresh pipeline, the
// reference model the server's answers must match.
func referenceAnswers(d domain, dirs []string) (*answers, error) {
	ref, err := newPipeline(d, nil)
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		if _, err := transport.ReplayPipeline(ref, func(fn func([]byte) error) error {
			_, err := reportlog.Replay(dir, fn)
			return err
		}); err != nil {
			return nil, err
		}
	}
	v := ref.View()
	a := answers{means: v.Means(), tasks: map[string]int64{}}
	if a.freqs, err = v.FreqView("region"); err != nil {
		return nil, err
	}
	if a.r1d, err = v.Range(pipeline.RangeQuery{Attr: "age", Lo: -0.5, Hi: 0.25}); err != nil {
		return nil, err
	}
	if a.r2d, err = v.Range(pipeline.RangeQuery{Attr: "age", Lo: -0.5, Hi: 0.5, Attr2: "income", Lo2: -1, Hi2: 0}); err != nil {
		return nil, err
	}
	for k, c := range ref.TaskCounts() {
		a.tasks[k.String()] = c
		a.n += c
	}
	return &a, nil
}

// refTol is the allowed difference between a served value and the
// reference: the two fold the same reports in different shard orders,
// so float sums may differ in the last bits.
const refTol = 1e-9

func compareAnswers(got, want *answers) error {
	var diffs []string
	near := func(what string, g, w float64) {
		if math.Abs(g-w) > refTol || math.IsNaN(g) != math.IsNaN(w) {
			diffs = append(diffs, fmt.Sprintf("%s %v != %v", what, g, w))
		}
	}
	if got.n != want.n {
		diffs = append(diffs, fmt.Sprintf("n %d != %d", got.n, want.n))
	}
	for k, w := range want.tasks {
		if got.tasks[k] != w {
			diffs = append(diffs, fmt.Sprintf("tasks[%s] %d != %d", k, got.tasks[k], w))
		}
	}
	if len(got.tasks) != len(want.tasks) {
		diffs = append(diffs, fmt.Sprintf("%d task kinds != %d", len(got.tasks), len(want.tasks)))
	}
	for k, w := range want.means {
		near("mean["+k+"]", got.means[k], w)
	}
	if len(got.means) != len(want.means) {
		diffs = append(diffs, fmt.Sprintf("%d means != %d", len(got.means), len(want.means)))
	}
	if len(got.freqs) != len(want.freqs) {
		diffs = append(diffs, fmt.Sprintf("%d freqs != %d", len(got.freqs), len(want.freqs)))
	} else {
		for i := range want.freqs {
			near("freq["+strconv.Itoa(i)+"]", got.freqs[i], want.freqs[i])
		}
	}
	near("range1d", got.r1d, want.r1d)
	near("range2d", got.r2d, want.r2d)
	if len(diffs) > 0 {
		return fmt.Errorf("answers differ from the reference: %s", strings.Join(diffs, "; "))
	}
	return nil
}
