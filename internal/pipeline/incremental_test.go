package pipeline

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"ldp/internal/rangequery"
	"ldp/internal/rng"
	"ldp/internal/telemetry"
)

// incPipeline builds a pipeline with every analytics task plus the
// gradient trainer registered, instrumented so the tests can tell
// incremental rebuilds from full ones by counter.
func incPipeline(t testing.TB, shards int, opts ...Option) (*Pipeline, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	opts = append([]Option{
		WithShards(shards),
		WithRange(rangequery.Config{Buckets: 32, GridCells: 4}),
		WithGradient(GradientConfig{
			Dim: 2, Rounds: 8, GroupSize: 64,
			Eta: 1, Lambda: 1e-4, Mechanism: identityFactory,
		}),
		WithTelemetry(reg),
	}, opts...)
	p, err := New(testSchema(t), 4, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p, reg
}

// rebuildCounts reads the rebuild-kind counters.
func rebuildCounts(p *Pipeline) (inc, full uint64) {
	return p.met.rebuildInc.Value(), p.met.rebuildFull.Value()
}

// TestIncrementalViewMatchesSnapshot is the correctness anchor for
// delta-proportional view maintenance: after every kind of ingest edge —
// single Add, AddBatch, MergeState fan-in, gradient folds, and a
// crossover-triggering burst — the cached view must answer every query
// surface bit-exactly like a fresh full Snapshot at the same watermark.
// After every rebuild the builder's running range sum must also equal the
// shards' summed range columns. The rebuild-kind counters prove each
// comparison exercised the path it claims to (incremental syncs for small
// deltas, full fallback past the crossover, incremental again after the
// fallback re-arms the baselines).
func TestIncrementalViewMatchesSnapshot(t *testing.T) {
	p, _ := incPipeline(t, 3)

	// Cold start: the first view has no predecessor, so it must be full.
	ingestStateReports(t, 11, 2000, p)
	assertViewMatchesSnapshot(t, p)
	if inc, full := rebuildCounts(p); inc != 0 || full != 1 {
		t.Fatalf("after cold view: inc=%d full=%d, want 0/1", inc, full)
	}

	// Small deltas: every rebuild folds only the delta.
	for round := 0; round < 5; round++ {
		ingestStateReports(t, uint64(20+round), 15, p)
		assertViewMatchesSnapshot(t, p)
	}
	if inc, full := rebuildCounts(p); inc != 5 || full != 1 {
		t.Fatalf("after small deltas: inc=%d full=%d, want 5/1", inc, full)
	}

	// Gradient reports ride the trainer, not the shards: they must not
	// invalidate the view or perturb its answers.
	v := p.View()
	r := rng.New(7)
	for i := 0; i < 3; i++ {
		rep, err := p.GradientTask().RandomizeGradient(0, []float64{0.25, -0.5}, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	if p.View() != v {
		t.Fatal("gradient folds invalidated the analytics view")
	}
	assertViewMatchesSnapshot(t, p)

	// Cluster fan-in: MergeState marks exactly the state's active
	// components dirty, and the next incremental rebuild folds them.
	src := statePipeline(t, 2)
	ingestStateReports(t, 31, 60, src)
	if err := p.MergeState(src.StateSnapshot()); err != nil {
		t.Fatal(err)
	}
	assertViewMatchesSnapshot(t, p)
	if inc, full := rebuildCounts(p); inc != 6 || full != 1 {
		t.Fatalf("after MergeState: inc=%d full=%d, want 6/1", inc, full)
	}

	// A delta past the crossover fraction falls back to a full snapshot…
	ingestStateReports(t, 41, 3000, p)
	assertViewMatchesSnapshot(t, p)
	if inc, full := rebuildCounts(p); inc != 6 || full != 2 {
		t.Fatalf("after burst: inc=%d full=%d, want 6/2", inc, full)
	}

	// …and the fallback keeps the baselines synced, so the very next
	// small delta is incremental again and still bit-exact.
	ingestStateReports(t, 43, 10, p)
	assertViewMatchesSnapshot(t, p)
	if inc, full := rebuildCounts(p); inc != 7 || full != 2 {
		t.Fatalf("after re-arm: inc=%d full=%d, want 7/2", inc, full)
	}
}

// assertViewMatchesSnapshot rebuilds the cached view and checks it
// answers like a fresh full Snapshot, and that the builder's running
// range sum equals StateSnapshot's range columns count for count.
func assertViewMatchesSnapshot(t *testing.T, p *Pipeline) {
	t.Helper()
	assertResultsIdentical(t, p.View(), p.Snapshot())
	if got, want := p.view.aggRange, p.StateSnapshot().Range; !reflect.DeepEqual(got, want) {
		t.Fatalf("running range sum drifted from the shards' sum: N %d vs %d", got.N, want.N)
	}
}

// TestIncrementalViewOption pins the WithIncrementalView contract:
// out-of-range fractions are rejected at construction, and zero disables
// the incremental path entirely (every rebuild is a full snapshot, still
// bit-exact).
func TestIncrementalViewOption(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.01, math.NaN()} {
		if _, err := New(testSchema(t), 4, WithIncrementalView(bad)); err == nil {
			t.Errorf("WithIncrementalView(%v) accepted", bad)
		}
	}

	p, _ := incPipeline(t, 2, WithIncrementalView(0))
	ingestStateReports(t, 51, 500, p)
	assertResultsIdentical(t, p.View(), p.Snapshot())
	ingestStateReports(t, 52, 5, p)
	assertResultsIdentical(t, p.View(), p.Snapshot())
	if inc, full := rebuildCounts(p); inc != 0 || full != 2 {
		t.Fatalf("disabled incremental path: inc=%d full=%d, want 0/2", inc, full)
	}

	// A tight crossover forces the full path whenever the delta fraction
	// is exceeded, without ever going stale.
	q, _ := incPipeline(t, 2, WithIncrementalView(0.001))
	ingestStateReports(t, 53, 1000, q)
	q.View()
	ingestStateReports(t, 54, 100, q) // ~9% of the watermark: past 0.1%
	assertResultsIdentical(t, q.View(), q.Snapshot())
	if inc, full := rebuildCounts(q); inc != 0 || full != 2 {
		t.Fatalf("tight crossover: inc=%d full=%d, want 0/2", inc, full)
	}
	ingestStateReports(t, 55, 1, q) // 1 of ~1101: under 0.1%… barely not
	// 1/1101 ≈ 0.09% < 0.1%, so this one is incremental.
	assertResultsIdentical(t, q.View(), q.Snapshot())
	if inc, _ := rebuildCounts(q); inc != 1 {
		t.Fatalf("sub-crossover delta was not incremental (inc=%d)", inc)
	}
}

// TestIncrementalViewConcurrentMerge hammers the incremental builder
// from every ingest edge at once: AddBatch writers, single-report Add
// writers, a MergeState fan-in goroutine, and queriers pulling View at
// full rate. Run under -race (the CI race job does) to prove the dirty
// bitsets and baseline syncs tear nothing; under the plain runner it
// checks per-querier monotone epochs/watermarks, and after quiescing it
// anchors the final incrementally-maintained view against a fresh full
// Snapshot bit for bit.
func TestIncrementalViewConcurrentMerge(t *testing.T) {
	p, _ := incPipeline(t, 4)

	const (
		batchWriters = 2
		batches      = 40
		batchSize    = 25
		addWriters   = 2
		adds         = 300
		merges       = 10
		mergeSize    = 40
		queriers     = 3
		perQuerier   = 300
	)

	// Pre-build all ingest payloads outside the clocked region.
	prebuilt := make([][]*ReportBatch, batchWriters)
	for w := range prebuilt {
		prebuilt[w] = make([]*ReportBatch, batches)
		for i := range prebuilt[w] {
			b := NewReportBatch()
			for j := 0; j < batchSize; j++ {
				r := rng.NewStream(uint64(200+w), uint64(i*batchSize+j))
				rep, err := p.Randomize(sampleTuple(p.Schema(), r), r)
				if err != nil {
					t.Fatal(err)
				}
				b.Append(rep)
			}
			prebuilt[w][i] = b
		}
	}
	single := make([][]Report, addWriters)
	for w := range single {
		single[w] = make([]Report, adds)
		for i := range single[w] {
			r := rng.NewStream(uint64(300+w), uint64(i))
			rep, err := p.Randomize(sampleTuple(p.Schema(), r), r)
			if err != nil {
				t.Fatal(err)
			}
			single[w][i] = rep
		}
	}
	states := make([]*AggState, merges)
	for i := range states {
		src := statePipeline(t, 1)
		ingestStateReports(t, uint64(400+i), mergeSize, src)
		states[i] = src.StateSnapshot()
	}

	var wg sync.WaitGroup
	var fail atomic.Bool
	for w := 0; w < batchWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, b := range prebuilt[w] {
				if err := p.AddBatch(b); err != nil {
					t.Error(err)
					fail.Store(true)
					return
				}
			}
		}(w)
	}
	for w := 0; w < addWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, rep := range single[w] {
				if err := p.Add(rep); err != nil {
					t.Error(err)
					fail.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, st := range states {
			if err := p.MergeState(st); err != nil {
				t.Error(err)
				fail.Store(true)
				return
			}
		}
	}()
	for qg := 0; qg < queriers; qg++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch uint64
			var lastWM int64
			for i := 0; i < perQuerier && !fail.Load(); i++ {
				v := p.View()
				if e := v.Epoch(); e < lastEpoch {
					t.Errorf("epoch went backwards: %d after %d", e, lastEpoch)
					fail.Store(true)
					return
				} else {
					lastEpoch = e
				}
				if wm := v.Watermark(); wm < lastWM {
					t.Errorf("watermark went backwards: %d after %d", wm, lastWM)
					fail.Store(true)
					return
				} else {
					lastWM = wm
				}
				if v.N() != v.Watermark() {
					t.Errorf("torn view: N %d != watermark %d", v.N(), v.Watermark())
					fail.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if fail.Load() {
		t.FailNow()
	}

	want := int64(batchWriters*batches*batchSize + addWriters*adds + merges*mergeSize)
	if got := p.Watermark(); got != want {
		t.Fatalf("final watermark %d, want %d", got, want)
	}
	// Quiesced: the incrementally-maintained view must equal a fresh full
	// snapshot on every query surface.
	assertResultsIdentical(t, p.View(), p.Snapshot())
}
