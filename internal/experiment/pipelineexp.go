package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"ldp/internal/dataset"
	"ldp/internal/pipeline"
	"ldp/internal/rng"
)

func init() {
	register(Runner{
		Name: "pipeline",
		Desc: "unified-pipeline ingest throughput: sharded aggregator (1/4/8 shards), per-report Add vs columnar AddBatch (1/64/1024 reports per batch)",
		Run:  runPipelineBench,
	})
}

// pipelineBatchSizes is the batch-size axis of the ingest benchmark: one
// AddBatch call folds this many reports.
var pipelineBatchSizes = []int{1, 64, 1024}

// pipelineShardCounts is the shard axis of the ingest benchmark.
var pipelineShardCounts = []int{1, 4, 8}

// runPipelineBench measures server-side ingest throughput (reports/sec) of
// the pipeline's sharded aggregator at 1, 4, and 8 shards, ingesting per
// report (Add) and in columnar batches of 1, 64, and 1024 reports
// (AddBatch). Reports
// are pre-randomized (and pre-batched) so only the fold is on the clock;
// opts.Workers goroutines feed each aggregator and the best of opts.Runs
// timings is reported (throughput is a max-statistic: slower runs measure
// scheduler interference, not the data structure).
func runPipelineBench(opts Options) ([]Table, error) {
	opts = opts.normalized()
	c := dataset.NewBR()
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Pre-randomize the unified report stream once; every pipeline
	// configuration ingests the identical stream.
	p0, err := pipeline.New(c.Schema(), opts.Eps)
	if err != nil {
		return nil, err
	}
	reps := make([]pipeline.Report, opts.N)
	for i := range reps {
		r := rng.NewStream(opts.Seed, uint64(i))
		rep, err := p0.Randomize(c.Tuple(r), r)
		if err != nil {
			return nil, err
		}
		reps[i] = rep
	}

	// Pre-batch the unified stream once per batch size; batches are only
	// read during AddBatch, so every run and shard configuration can share
	// them.
	batchesBySize := make(map[int][]*pipeline.ReportBatch, len(pipelineBatchSizes))
	for _, bs := range pipelineBatchSizes {
		var batches []*pipeline.ReportBatch
		for lo := 0; lo < len(reps); lo += bs {
			hi := lo + bs
			if hi > len(reps) {
				hi = len(reps)
			}
			b := pipeline.NewReportBatch()
			for _, rep := range reps[lo:hi] {
				b.Append(rep)
			}
			batches = append(batches, b)
		}
		batchesBySize[bs] = batches
	}

	// timeIngest clocks items 0..n-1 (reports or whole batches, weighing
	// nReports in total) split contiguously across the workers.
	timeIngest := func(n, nReports int, add func(i int) error) (float64, error) {
		var firstErr error
		var mu sync.Mutex
		start := time.Now()
		var wg sync.WaitGroup
		chunk := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > n {
				hi = n
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					if err := add(i); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
				}
			}(lo, hi)
		}
		wg.Wait()
		elapsed := time.Since(start)
		if firstErr != nil {
			return 0, firstErr
		}
		return float64(nReports) / elapsed.Seconds(), nil
	}

	best := func(n int, build func() (func(i int) error, error)) (float64, error) {
		bestRate := 0.0
		for run := 0; run < opts.Runs; run++ {
			add, err := build()
			if err != nil {
				return 0, err
			}
			rate, err := timeIngest(n, len(reps), add)
			if err != nil {
				return 0, err
			}
			if rate > bestRate {
				bestRate = rate
			}
		}
		return bestRate, nil
	}

	table := Table{
		ID:      "pipeline",
		Title:   fmt.Sprintf("ingest throughput, %d reports, %d workers (best of %d runs)", opts.N, workers, opts.Runs),
		XLabel:  "aggregator",
		YLabel:  "reports/sec",
		Columns: []string{"reports_per_sec"},
	}

	for _, shards := range pipelineShardCounts {
		newPipeline := func() (*pipeline.Pipeline, error) {
			return pipeline.New(c.Schema(), opts.Eps, pipeline.WithShards(shards))
		}
		rate, err := best(len(reps), func() (func(i int) error, error) {
			p, err := newPipeline()
			if err != nil {
				return nil, err
			}
			return func(i int) error { return p.Add(reps[i]) }, nil
		})
		if err != nil {
			return nil, err
		}
		table.Rows = append(table.Rows, TableRow{X: fmt.Sprintf("pipeline-%d-shards", shards), Values: []float64{rate}})

		for _, bs := range pipelineBatchSizes {
			batches := batchesBySize[bs]
			rate, err := best(len(batches), func() (func(i int) error, error) {
				p, err := newPipeline()
				if err != nil {
					return nil, err
				}
				return func(i int) error { return p.AddBatch(batches[i]) }, nil
			})
			if err != nil {
				return nil, err
			}
			table.Rows = append(table.Rows, TableRow{X: fmt.Sprintf("pipeline-%d-shards-batch%d", shards, bs), Values: []float64{rate}})
		}
	}
	return []Table{table}, nil
}
