package experiment

import (
	"fmt"
	"time"

	"ldp/internal/hist"
	"ldp/internal/mech"
	"ldp/internal/rangequery"
	"ldp/internal/rng"
	"ldp/internal/schema"
)

func init() {
	register(Runner{
		Name: "range",
		Desc: "Range queries: 1-D hierarchical vs flat MSE, 2-D grid MSE, and collection throughput vs eps",
		Run:  runRange,
	})
}

// The range workload measures the new rangequery subsystem on a synthetic
// two-attribute population (correlated truncated Gaussians): the mean
// squared error of 1-D range answers through the hierarchical interval
// oracle versus the flat B-bucket histogram baseline, the MSE of 2-D
// rectangle answers through the consistent g x g grid, and the user-side
// collection throughput (perturb + aggregate) in reports per second.
const (
	rangeBuckets = 256
	rangeCells   = 8
)

// rangeQueries1D are value ranges evaluated on both 1-D protocols; they
// mix narrow, medium and wide spans.
var rangeQueries1D = [][2]float64{
	{-0.25, 0.25}, {0, 0.75}, {-0.9, -0.4}, {-0.5, 1}, {0.4, 0.6},
}

// rangeQueries2D are (x-range, y-range) rectangles for the grid.
var rangeQueries2D = [][4]float64{
	{-0.5, 0.5, -0.5, 0.5}, {0, 1, -1, 0}, {-0.75, 0, -0.25, 0.75},
}

func runRange(opts Options) ([]Table, error) {
	opts = opts.normalized()
	s, err := schema.New(
		schema.Attribute{Name: "x", Kind: schema.Numeric},
		schema.Attribute{Name: "y", Kind: schema.Numeric},
	)
	if err != nil {
		return nil, err
	}

	accuracy := Table{
		ID:      "range-mse",
		Title:   fmt.Sprintf("range-query MSE, n=%d, B=%d, g=%d", opts.N, rangeBuckets, rangeCells),
		XLabel:  "eps",
		YLabel:  "mean squared error over the query workload",
		Columns: []string{"1d-hier", "1d-flat", "2d-grid"},
	}
	speed := Table{
		ID:      "range-throughput",
		Title:   "range-report collection throughput (perturb + aggregate)",
		XLabel:  "eps",
		YLabel:  "thousand reports per second",
		Columns: []string{"kreports/s"},
	}

	for _, eps := range opts.EpsList {
		avg, err := averageRuns(opts.Runs, opts.Workers, func(run int) (map[string]float64, error) {
			return rangeRun(s, eps, opts.N, opts.Seed+uint64(1000*run))
		})
		if err != nil {
			return nil, err
		}
		x := fmt.Sprintf("%g", eps)
		accuracy.Rows = append(accuracy.Rows, TableRow{
			X:      x,
			Values: []float64{avg["hier"], avg["flat"], avg["grid"]},
		})
		speed.Rows = append(speed.Rows, TableRow{
			X:      x,
			Values: []float64{avg["krps"]},
		})
	}
	return []Table{accuracy, speed}, nil
}

// rangeRun simulates one population of n users through the range pipeline
// and the flat baseline, and scores both against the empirical truth.
func rangeRun(s *schema.Schema, eps float64, n int, seed uint64) (map[string]float64, error) {
	col, err := rangequery.NewCollector(s, eps, rangequery.Config{
		Buckets: rangeBuckets, GridCells: rangeCells,
	})
	if err != nil {
		return nil, err
	}
	acc := rangequery.NewAccumulator(col)
	// Flat baseline: each user reports their leaf bucket of one uniformly
	// sampled attribute through OUE over all B values.
	flatCol, err := hist.NewCollector(eps, rangeBuckets, nil)
	if err != nil {
		return nil, err
	}
	flatEst := []*hist.Estimator{hist.NewEstimator(flatCol), hist.NewEstimator(flatCol)}

	vals := make([][2]float64, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		r := rng.NewStream(seed, uint64(i))
		x := rng.TruncGauss(r, 0.2, 0.4, -1, 1)
		y := mech.Clamp1(-x/2 + 0.3*r.NormFloat64())
		vals[i] = [2]float64{x, y}
		tp := schema.NewTuple(s)
		tp.Num[0], tp.Num[1] = x, y
		rep, err := col.Perturb(tp, r)
		if err != nil {
			return nil, err
		}
		if err := acc.Add(rep); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)
	for i := 0; i < n; i++ {
		r := rng.NewStream(seed+7, uint64(i))
		a := r.IntN(2)
		flatEst[a].Add(flatCol.Perturb(vals[i][a], r))
	}

	res := map[string]float64{
		"krps": float64(n) / elapsed.Seconds() / 1000,
	}
	// 1-D MSE over both attributes and the query workload.
	var hierSE, flatSE float64
	for a := 0; a < 2; a++ {
		for _, q := range rangeQueries1D {
			truth := 0.0
			for _, v := range vals {
				if v[a] >= q[0] && v[a] <= q[1] {
					truth++
				}
			}
			truth /= float64(n)
			got, err := acc.Range1D(a, q[0], q[1])
			if err != nil {
				return nil, err
			}
			hierSE += (got - truth) * (got - truth)
			flat := flatEst[a].RangeMass(q[0], q[1])
			flatSE += (flat - truth) * (flat - truth)
		}
	}
	nq := float64(2 * len(rangeQueries1D))
	res["hier"] = hierSE / nq
	res["flat"] = flatSE / nq

	var gridSE float64
	for _, q := range rangeQueries2D {
		truth := 0.0
		for _, v := range vals {
			if v[0] >= q[0] && v[0] <= q[1] && v[1] >= q[2] && v[1] <= q[3] {
				truth++
			}
		}
		truth /= float64(n)
		got, err := acc.Range2D(0, 1, q[0], q[1], q[2], q[3])
		if err != nil {
			return nil, err
		}
		gridSE += (got - truth) * (got - truth)
	}
	res["grid"] = gridSE / float64(len(rangeQueries2D))
	return res, nil
}
