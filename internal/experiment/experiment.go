// Package experiment regenerates every table and figure of the paper's
// evaluation (Section VI) plus design-choice ablations (the ablation-*
// entries of the registry). Each experiment is a named Runner producing
// one or more Tables; cmd/ldpbench and the repository's benchmark suite
// are thin wrappers around this package.
//
// Experiments are deterministic for a fixed Options.Seed: user i of run r
// always draws from the same PRNG stream regardless of parallelism.
package experiment

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"ldp/internal/core"
	"ldp/internal/freq"
	"ldp/internal/mech"
	"ldp/internal/noise"
)

// Options control experiment scale. The defaults reproduce the paper's
// comparisons at laptop scale: every mean and frequency estimator here is
// unbiased with variance proportional to 1/N, so a smaller N scales all of
// a figure's MSEs alike and keeps the comparisons; raise N, Runs and
// ERMUsers toward the paper's 4M/100-run configuration when more time is
// available.
type Options struct {
	// N is the population size for mean/frequency estimation experiments.
	N int
	// Runs is the number of independent repetitions averaged per point.
	Runs int
	// Seed is the base PRNG seed.
	Seed uint64
	// Workers bounds the number of concurrently executing runs.
	Workers int
	// EpsList is the privacy-budget sweep for the eps-axis figures.
	EpsList []float64
	// Eps is the fixed budget for figures whose x-axis is not eps.
	Eps float64
	// ERMUsers is the dataset size for the SGD experiments.
	ERMUsers int
	// Splits is the number of train/test splits per ERM configuration.
	Splits int
}

// Defaults returns the default experiment options.
func Defaults() Options {
	return Options{
		N:        100_000,
		Runs:     5,
		Seed:     1,
		Workers:  runtime.GOMAXPROCS(0),
		EpsList:  []float64{0.5, 1, 2, 4},
		Eps:      1,
		ERMUsers: 40_000,
		Splits:   3,
	}
}

func (o Options) normalized() Options {
	d := Defaults()
	if o.N <= 0 {
		o.N = d.N
	}
	if o.Runs <= 0 {
		o.Runs = d.Runs
	}
	if o.Workers <= 0 {
		o.Workers = d.Workers
	}
	if len(o.EpsList) == 0 {
		o.EpsList = d.EpsList
	}
	if o.Eps <= 0 {
		o.Eps = d.Eps
	}
	if o.ERMUsers <= 0 {
		o.ERMUsers = d.ERMUsers
	}
	if o.Splits <= 0 {
		o.Splits = d.Splits
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// Table is one figure panel or table: named value columns over an x axis.
type Table struct {
	// ID is the experiment identifier ("fig4"), Title a human caption.
	ID, Title string
	// XLabel names the x column; YLabel describes the values.
	XLabel, YLabel string
	// Columns are the series names, aligned with TableRow.Values.
	Columns []string
	// Rows hold one x position each.
	Rows []TableRow
}

// TableRow is one x position of a Table.
type TableRow struct {
	X      string
	Values []float64
}

// Runner is a registered experiment.
type Runner struct {
	// Name is the CLI identifier (e.g. "fig4").
	Name string
	// Desc is a one-line description shown by `ldpbench -list`.
	Desc string
	// Run executes the experiment.
	Run func(Options) ([]Table, error)
}

var registry = map[string]Runner{}

func register(r Runner) {
	if _, dup := registry[r.Name]; dup {
		panic("experiment: duplicate runner " + r.Name)
	}
	registry[r.Name] = r
}

// Get returns the named runner.
func Get(name string) (Runner, error) {
	r, ok := registry[name]
	if !ok {
		return Runner{}, fmt.Errorf("experiment: unknown experiment %q (use -list)", name)
	}
	return r, nil
}

// All returns every registered runner sorted by name.
func All() []Runner {
	out := make([]Runner, 0, len(registry))
	for _, r := range registry {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// --- shared factories ---

func pmFactory(eps float64) (mech.Mechanism, error)  { return core.NewPiecewise(eps) }
func hmFactory(eps float64) (mech.Mechanism, error)  { return core.NewHybrid(eps) }
func lapFactory(eps float64) (mech.Mechanism, error) { return noise.NewLaplace(eps) }
func scdfFactory(eps float64) (mech.Mechanism, error) {
	return noise.NewSCDF(eps)
}
func stairFactory(eps float64) (mech.Mechanism, error) {
	return noise.NewStaircase(eps)
}
func oueFactory(eps float64, k int) (freq.Oracle, error) { return freq.NewOUE(eps, k) }
func grrFactory(eps float64, k int) (freq.Oracle, error) { return freq.NewGRR(eps, k) }
func sueFactory(eps float64, k int) (freq.Oracle, error) { return freq.NewSUE(eps, k) }

// --- parallel run averaging ---

// collectRuns executes f for run indices 0..runs-1 (at most workers
// concurrently) and returns the per-run result maps in index order.
func collectRuns(runs, workers int, f func(run int) (map[string]float64, error)) ([]map[string]float64, error) {
	if workers > runs {
		workers = runs
	}
	results := make([]map[string]float64, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for run := 0; run < runs; run++ {
		wg.Add(1)
		go func(run int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[run], errs[run] = f(run)
		}(run)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// mergeRuns runs f in parallel and merges the disjoint-key result maps
// without averaging (used when each invocation computes different series,
// e.g. one method each).
func mergeRuns(runs, workers int, f func(run int) (map[string]float64, error)) (map[string]float64, error) {
	results, err := collectRuns(runs, workers, f)
	if err != nil {
		return nil, err
	}
	merged := map[string]float64{}
	for _, m := range results {
		for k, v := range m {
			merged[k] = v
		}
	}
	return merged, nil
}

// averageRuns executes f for run indices 0..runs-1 (at most workers
// concurrently) and averages the per-key results. Every run must produce
// the same key set (use mergeRuns for disjoint keys).
func averageRuns(runs, workers int, f func(run int) (map[string]float64, error)) (map[string]float64, error) {
	results, err := collectRuns(runs, workers, f)
	if err != nil {
		return nil, err
	}
	avg := map[string]float64{}
	for _, m := range results {
		for k, v := range m {
			avg[k] += v
		}
	}
	for k := range avg {
		avg[k] /= float64(runs)
	}
	return avg, nil
}
