package pipeline

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"ldp/internal/core"
	"ldp/internal/rangequery"
	"ldp/internal/rng"
)

// statePipeline builds a pipeline with every analytics task registered.
func statePipeline(t testing.TB, shards int) *Pipeline {
	t.Helper()
	p, err := New(testSchema(t), 4,
		WithShards(shards),
		WithRange(rangequery.Config{Buckets: 32, GridCells: 4}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// quantize snaps a value onto a 2^-10 grid. Sums of such dyadic rationals
// are exact in float64 at any association order, which is what makes the
// bit-identical distributed-exactness assertions meaningful for the mean
// sums (support counts are small integers and always exact).
func quantize(v float64) float64 { return math.Round(v*1024) / 1024 }

// ingestStateReports feeds n randomized reports (seeded from stream) into
// each of the given pipelines, quantizing numeric payloads so that sums
// are exact under regrouping.
func ingestStateReports(t testing.TB, stream uint64, n int, ps ...*Pipeline) {
	t.Helper()
	s := ps[0].Schema()
	for i := 0; i < n; i++ {
		r := rng.NewStream(stream, uint64(i))
		rep, err := ps[0].Randomize(sampleTuple(s, r), r)
		if err != nil {
			t.Fatal(err)
		}
		for e := range rep.Entries {
			if rep.Entries[e].Kind == core.EntryNumeric {
				rep.Entries[e].Value = quantize(rep.Entries[e].Value)
			}
		}
		for _, p := range ps {
			if err := p.Add(rep); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// assertResultsIdentical compares every estimate surface of two results
// bit for bit.
func assertResultsIdentical(t *testing.T, got, want *Result) {
	t.Helper()
	if got.N() != want.N() || got.Watermark() != want.Watermark() {
		t.Fatalf("N/watermark: got %d/%d, want %d/%d", got.N(), got.Watermark(), want.N(), want.Watermark())
	}
	gm, wm := got.Means(), want.Means()
	for k, v := range wm {
		if gm[k] != v {
			t.Errorf("Means[%s]: got %v, want %v (diff %g)", k, gm[k], v, gm[k]-v)
		}
	}
	for _, attr := range []string{"gender"} {
		gf, err1 := got.FreqView(attr)
		wf, err2 := want.FreqView(attr)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for i := range wf {
			if gf[i] != wf[i] {
				t.Errorf("FreqView(%s)[%d]: got %v, want %v", attr, i, gf[i], wf[i])
			}
		}
	}
	queries := []RangeQuery{
		{Attr: "age", Lo: -0.5, Hi: 0.5},
		{Attr: "income", Lo: -1, Hi: 0.25},
		{Attr: "age", Lo: -0.25, Hi: 0.75, Attr2: "income", Lo2: -0.5, Hi2: 0.5},
	}
	for _, q := range queries {
		gr, err1 := got.Range(q)
		wr, err2 := want.Range(q)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if gr != wr {
			t.Errorf("Range(%+v): got %v, want %v", q, gr, wr)
		}
	}
}

func TestStateSnapshotMergeExact(t *testing.T) {
	src := statePipeline(t, 3)
	ref := statePipeline(t, 1)
	ingestStateReports(t, 11, 4000, src, ref)

	st := src.StateSnapshot()
	if st.Total() != 4000 {
		t.Fatalf("state total %d, want 4000", st.Total())
	}
	dst := statePipeline(t, 2)
	if err := dst.MergeState(st); err != nil {
		t.Fatal(err)
	}
	if dst.Watermark() != 4000 {
		t.Fatalf("merged watermark %d, want 4000", dst.Watermark())
	}
	assertResultsIdentical(t, dst.Snapshot(), ref.Snapshot())
}

func TestStateSubAddRoundTrip(t *testing.T) {
	src := statePipeline(t, 2)
	ingestStateReports(t, 21, 1500, src)
	st1 := src.StateSnapshot()
	ingestStateReports(t, 22, 1500, src)
	st2 := src.StateSnapshot()

	delta, err := st2.Sub(st1)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Total() != 1500 {
		t.Fatalf("delta total %d, want 1500", delta.Total())
	}

	// acked + delta must reproduce the full state exactly.
	acked := st1.Clone()
	if err := acked.Add(delta); err != nil {
		t.Fatal(err)
	}
	dst1 := statePipeline(t, 1)
	if err := dst1.MergeState(acked); err != nil {
		t.Fatal(err)
	}
	dst2 := statePipeline(t, 1)
	if err := dst2.MergeState(st2); err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, dst1.Snapshot(), dst2.Snapshot())

	// Sub against nil is a deep copy.
	full, err := st2.Sub(nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.Total() != st2.Total() {
		t.Fatalf("Sub(nil) total %d, want %d", full.Total(), st2.Total())
	}
}

// TestStateAddIsAtomic: AggState.Add checks every shape, range columns
// included, before it adds anything, so a peer whose last hierarchy level
// has one bucket more than the receiver's is refused with the receiver
// unchanged.
func TestStateAddIsAtomic(t *testing.T) {
	src := statePipeline(t, 1)
	ingestStateReports(t, 41, 500, src)
	st := src.StateSnapshot()
	bad := st.Clone()
	last := &bad.Range.Levels[len(bad.Range.Levels)-1]
	last.Counts = append(last.Counts, 1)

	got := st.Clone()
	if err := got.Add(bad); err == nil {
		t.Fatal("Add accepted a range level of another domain")
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatal("a failed Add changed the receiver")
	}
}

func TestMergeStateViewInvalidation(t *testing.T) {
	src := statePipeline(t, 1)
	ingestStateReports(t, 31, 200, src)
	dst := statePipeline(t, 1)
	v0 := dst.View()
	if err := dst.MergeState(src.StateSnapshot()); err != nil {
		t.Fatal(err)
	}
	v1 := dst.View()
	if v1 == v0 || v1.N() != 200 {
		t.Fatalf("view did not rebuild after MergeState: N=%d", v1.N())
	}
}

func TestCheckStateRejects(t *testing.T) {
	src := statePipeline(t, 1)
	ingestStateReports(t, 41, 100, src)
	dst := statePipeline(t, 1)

	cases := []struct {
		name    string
		mutate  func(st *AggState)
		wantErr string
	}{
		{"negative count", func(st *AggState) { st.NMean = -1 }, "negative report count"},
		{"dim mismatch", func(st *AggState) { st.MeanSum = st.MeanSum[:1] }, "dimension mismatch"},
		{"non-finite sum", func(st *AggState) { st.MeanSum[0] = math.NaN() }, "non-finite mean sum"},
		{"negative support", func(st *AggState) { st.FreqCounts[2][0] = -3 }, "negative or non-finite"},
		{"trainer state", func(st *AggState) { st.Trainer = &TrainerState{} }, "training state"},
		{"range count mismatch", func(st *AggState) { st.Range.N++ }, "does not match"},
		{"range domain", func(st *AggState) {
			st.Range.Levels[0].Counts = st.Range.Levels[0].Counts[:1]
		}, "domain"},
		{"counts for numeric attr", func(st *AggState) { st.FreqN[0] = 5 }, "numeric attribute"},
	}
	for _, tc := range cases {
		st := src.StateSnapshot()
		tc.mutate(st)
		err := dst.MergeState(st)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want contains %q", tc.name, err, tc.wantErr)
		}
	}
	if err := dst.MergeState(nil); err == nil {
		t.Error("MergeState(nil) succeeded")
	}
	if dst.Watermark() != 0 {
		t.Fatalf("rejected merges mutated state: watermark %d", dst.Watermark())
	}
}

func TestFingerprint(t *testing.T) {
	base := statePipeline(t, 1)
	same := statePipeline(t, 4) // shard count must not matter
	if base.Fingerprint() != same.Fingerprint() {
		t.Fatal("fingerprint differs across shard counts")
	}

	s := testSchema(t)
	build := func(eps float64, opts ...Option) *Pipeline {
		p, err := New(s, eps, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	rc := rangequery.Config{Buckets: 32, GridCells: 4}
	variants := map[string]*Pipeline{
		"eps":      build(2, WithRange(rc)),
		"no range": build(4),
		"buckets":  build(4, WithRange(rangequery.Config{Buckets: 64, GridCells: 4})),
		"cells":    build(4, WithRange(rangequery.Config{Buckets: 32, GridCells: 8})),
	}
	for name, p := range variants {
		if p.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s: fingerprint collision with base", name)
		}
	}

	// Gradient presence must NOT change the fingerprint: a training root
	// still accepts analytics fan-in.
	grad := build(4, WithRange(rc), WithGradient(GradientConfig{Dim: 3, Rounds: 2, GroupSize: 4, Eta: 1, Lambda: 1e-4}))
	if grad.Fingerprint() != base.Fingerprint() {
		t.Error("gradient task changed the fingerprint")
	}
}

func TestStateSnapshotCarriesTrainerButMergeRejects(t *testing.T) {
	p, err := New(testSchema(t), 4, WithGradient(GradientConfig{Dim: 3, Rounds: 2, GroupSize: 4, Eta: 1, Lambda: 1e-4}))
	if err != nil {
		t.Fatal(err)
	}
	st := p.StateSnapshot()
	if st.Trainer == nil {
		t.Fatal("trainer snapshot missing from exported state")
	}
	dst, err := New(testSchema(t), 4, WithGradient(GradientConfig{Dim: 3, Rounds: 2, GroupSize: 4, Eta: 1, Lambda: 1e-4}))
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.MergeState(st); err == nil {
		t.Fatal("MergeState accepted trainer-bearing state")
	}
	st.Trainer = nil
	if err := dst.MergeState(st); err != nil {
		t.Fatalf("MergeState rejected trainer-free state: %v", err)
	}
}
