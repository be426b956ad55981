package pipeline

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ldp/internal/rangequery"
	"ldp/internal/rng"
)

// viewTestPipeline builds a 3-attribute pipeline with the range task on,
// so a view carries every query surface.
func viewTestPipeline(t testing.TB, opts ...Option) *Pipeline {
	t.Helper()
	opts = append([]Option{
		WithShards(4),
		WithRange(rangequery.Config{Buckets: 32, GridCells: 2}),
	}, opts...)
	p, err := New(testSchema(t), 2, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// ingestReports folds n pre-randomized reports through AddBatch.
func ingestReports(t testing.TB, p *Pipeline, seed uint64, n int) {
	t.Helper()
	b := NewReportBatch()
	for i := 0; i < n; i++ {
		r := rng.NewStream(seed, uint64(i))
		rep, err := p.Randomize(sampleTuple(p.Schema(), r), r)
		if err != nil {
			t.Fatal(err)
		}
		b.Append(rep)
	}
	if err := p.AddBatch(b); err != nil {
		t.Fatal(err)
	}
}

// queryAll answers every query kind the test schema supports and returns
// the answers in a fixed order, for bit-exact comparison.
func queryAll(t testing.TB, res *Result) []float64 {
	t.Helper()
	var out []float64
	for _, name := range []string{"age", "income"} {
		m, err := res.Mean(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	fr, err := res.Freq("gender")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, fr...)
	for _, q := range []RangeQuery{
		{Attr: "age", Lo: -0.5, Hi: 0.5},
		{Attr: "income", Lo: 0.03, Hi: 0.91},
		{Attr: "age", Lo: -1, Hi: 1},
		{Attr: "age", Lo: -0.5, Hi: 0.5, Attr2: "income", Lo2: -0.25, Hi2: 0.75},
	} {
		mass, err := res.Range(q)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, mass)
	}
	return out
}

// TestViewMatchesSnapshot is the view-cache correctness anchor: at a
// quiescent watermark, the cached view must answer every query kind
// bit-exactly like a fresh uncached Snapshot, at several shard counts.
// The reports are raw randomizer output (no snapping of numeric values),
// so the float sums match only because every path adds the shards in the
// same order. The exported state carries that order too: a fresh
// one-shard pipeline that merges it answers exactly like the source.
func TestViewMatchesSnapshot(t *testing.T) {
	for _, shards := range []int{1, 3, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testViewMatchesSnapshot(t, shards)
		})
	}
}

func testViewMatchesSnapshot(t *testing.T, shards int) {
	p := viewTestPipeline(t, WithShards(shards))
	ingestReports(t, p, 11, 5000)

	view := p.View()
	snap := p.Snapshot()
	if view.Watermark() != snap.Watermark() {
		t.Fatalf("view watermark %d != snapshot watermark %d", view.Watermark(), snap.Watermark())
	}
	if view.Watermark() != p.Watermark() {
		t.Fatalf("view watermark %d != pipeline watermark %d", view.Watermark(), p.Watermark())
	}
	if n := view.N(); n != view.Watermark() {
		t.Fatalf("view N %d != watermark %d", n, view.Watermark())
	}
	va, sa := queryAll(t, view), queryAll(t, snap)
	for i := range va {
		if va[i] != sa[i] {
			t.Fatalf("answer %d: cached view %v != fresh snapshot %v", i, va[i], sa[i])
		}
	}

	// Repeated queries against the same view are stable (memoized paths
	// return the same values).
	vb := queryAll(t, view)
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("answer %d drifted on repeat: %v then %v", i, va[i], vb[i])
		}
	}

	// And after more ingest the rebuilt view matches a rebuilt snapshot.
	ingestReports(t, p, 13, 3000)
	view2, snap2 := p.View(), p.Snapshot()
	if view2 == view {
		t.Fatal("view not rebuilt after watermark advanced")
	}
	if view2.Epoch() <= view.Epoch() {
		t.Fatalf("epoch did not advance: %d then %d", view.Epoch(), view2.Epoch())
	}
	va2, sa2 := queryAll(t, view2), queryAll(t, snap2)
	for i := range va2 {
		if va2[i] != sa2[i] {
			t.Fatalf("answer %d after rebuild: view %v != snapshot %v", i, va2[i], sa2[i])
		}
	}

	one := viewTestPipeline(t, WithShards(1))
	if err := one.MergeState(p.StateSnapshot()); err != nil {
		t.Fatal(err)
	}
	ma := queryAll(t, one.Snapshot())
	for i := range ma {
		if ma[i] != sa2[i] {
			t.Fatalf("answer %d: one-shard merge of the exported state %v != snapshot %v", i, ma[i], sa2[i])
		}
	}
}

// TestViewCachedWhileFresh checks the staleness-bound contract: within
// the bound the very same Result pointer is served; past it, a query
// rebuilds.
func TestViewCachedWhileFresh(t *testing.T) {
	p := viewTestPipeline(t, WithQueryStaleness(100, 0))
	ingestReports(t, p, 3, 500)

	v1 := p.View()
	if v2 := p.View(); v2 != v1 {
		t.Fatal("idle View() calls must serve the identical cached Result")
	}
	ingestReports(t, p, 5, 100) // exactly at the bound: still fresh
	if v2 := p.View(); v2 != v1 {
		t.Fatalf("view rebuilt within staleness bound (trail %d <= 100)", p.Watermark()-v1.Watermark())
	}
	ingestReports(t, p, 7, 1) // past the bound
	v3 := p.View()
	if v3 == v1 {
		t.Fatal("view served past its staleness bound")
	}
	if v3.Watermark() != p.Watermark() {
		t.Fatalf("rebuilt view watermark %d, want %d", v3.Watermark(), p.Watermark())
	}

	// Default bound (0 reports): any ingest invalidates.
	pd := viewTestPipeline(t)
	ingestReports(t, pd, 3, 100)
	d1 := pd.View()
	ingestReports(t, pd, 4, 1)
	if pd.View() == d1 {
		t.Fatal("default-staleness view served after ingest")
	}
}

// TestViewMaxAge checks the wall-clock bound.
func TestViewMaxAge(t *testing.T) {
	p := viewTestPipeline(t, WithQueryStaleness(1<<40, 10*time.Millisecond))
	ingestReports(t, p, 3, 100)
	v1 := p.View()
	if p.View() != v1 {
		t.Fatal("young view not served")
	}
	time.Sleep(25 * time.Millisecond)
	if p.View() == v1 {
		t.Fatal("aged-out view still served")
	}
}

// TestViewAfterMerge checks that Merge advances the watermark so cached
// views are invalidated by merged-in state like any other ingest.
func TestViewAfterMerge(t *testing.T) {
	p := viewTestPipeline(t)
	q := viewTestPipeline(t)
	ingestReports(t, p, 3, 200)
	ingestReports(t, q, 4, 300)
	v1 := p.View()
	if err := p.Merge(q); err != nil {
		t.Fatal(err)
	}
	if got := p.Watermark(); got != 500 {
		t.Fatalf("watermark after merge = %d, want 500", got)
	}
	v2 := p.View()
	if v2 == v1 {
		t.Fatal("cached view served after Merge changed the state")
	}
	if v2.N() != 500 {
		t.Fatalf("merged view N = %d, want 500", v2.N())
	}
}

// TestViewConcurrentIngest interleaves full-rate AddBatch ingest with
// concurrent cached queries. Run under -race (the CI race job does) to
// prove the lock-free read path tears nothing; under the plain runner it
// still checks that epochs and watermarks observed by every query
// goroutine are monotonically non-decreasing and that query answers stay
// internally consistent.
func TestViewConcurrentIngest(t *testing.T) {
	p := viewTestPipeline(t, WithQueryStaleness(64, 0))

	const (
		writers    = 4
		batches    = 60
		batchSize  = 50
		queriers   = 4
		perQuerier = 400
	)

	// Pre-build batches outside the clocked region.
	prebuilt := make([][]*ReportBatch, writers)
	for w := range prebuilt {
		prebuilt[w] = make([]*ReportBatch, batches)
		for i := range prebuilt[w] {
			b := NewReportBatch()
			for j := 0; j < batchSize; j++ {
				r := rng.NewStream(uint64(100+w), uint64(i*batchSize+j))
				rep, err := p.Randomize(sampleTuple(p.Schema(), r), r)
				if err != nil {
					t.Fatal(err)
				}
				b.Append(rep)
			}
			prebuilt[w][i] = b
		}
	}

	var wg sync.WaitGroup
	var fail atomic.Bool
	for w := 0; w < writers; w++ {
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
				if _, err := v.Mean("age"); err != nil {
					t.Error(err)
					fail.Store(true)
					return
				}
				fr, err := v.FreqView("gender")
				if err != nil {
					t.Error(err)
					fail.Store(true)
					return
				}
				_ = fr[0] + fr[1]
				if _, err := v.Range(RangeQuery{Attr: "age", Lo: -0.5, Hi: 0.5}); err != nil {
					t.Error(err)
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

	want := int64(writers * batches * batchSize)
	if got := p.Watermark(); got != want {
		t.Fatalf("final watermark %d, want %d", got, want)
	}
	v := p.View()
	if v.Watermark() != want {
		// The last View may predate the final batch only within the
		// staleness bound.
		if want-v.Watermark() > 64 {
			t.Fatalf("final view trails by %d > staleness bound", want-v.Watermark())
		}
	}
}
