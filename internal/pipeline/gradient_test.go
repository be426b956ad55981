package pipeline

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"ldp/internal/core"
	"ldp/internal/freq"
	"ldp/internal/mech"
	"ldp/internal/rng"
	"ldp/internal/schema"
)

// identityMech passes values through unperturbed. With eps large enough
// that k == Dim (every coordinate sampled, scale 1), gradient ingest
// becomes exactly deterministic: the tests can assert model trajectories
// with ==, so any torn read or double-counted round is visible.
type identityMech struct{}

func (identityMech) Name() string                           { return "identity" }
func (identityMech) Epsilon() float64                       { return 1e9 }
func (identityMech) Perturb(t float64, _ *rng.Rand) float64 { return t }
func (identityMech) Variance(float64) float64               { return 0 }
func (identityMech) WorstCaseVariance() float64             { return 0 }

func identityFactory(float64) (mech.Mechanism, error) { return identityMech{}, nil }

// newGradientPipeline builds a deterministic 2-D gradient pipeline:
// eps=5 makes k = 2 = Dim, so every report carries both coordinates at
// scale 1.
func newGradientPipeline(t testing.TB, rounds, group int) *Pipeline {
	t.Helper()
	p, err := New(testSchema(t), 5, WithGradient(GradientConfig{
		Dim:       2,
		Rounds:    rounds,
		GroupSize: group,
		Eta:       1,
		Lambda:    1e-4,
		Mechanism: identityFactory,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.GradientTask().K(); got != 2 {
		t.Fatalf("k = %d, want 2 (test needs every coordinate sampled)", got)
	}
	return p
}

// expectedBeta returns the exact model trajectory when every accepted
// report is the all-ones gradient: beta_r = -sum_{t=1..r} 1/sqrt(t).
func expectedBeta(round int) float64 {
	b := 0.0
	for t := 1; t <= round; t++ {
		b -= 1 / math.Sqrt(float64(t))
	}
	return b
}

func onesReport(t testing.TB, p *Pipeline, round int) Report {
	t.Helper()
	rep, err := p.GradientTask().RandomizeGradient(round, []float64{1, 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestTrainerDeterministicTrajectory(t *testing.T) {
	const rounds, group = 3, 4
	p := newGradientPipeline(t, rounds, group)
	tr := p.Trainer()
	if m := tr.Model(); m.Round != 0 || m.Done || len(m.Beta) != 2 {
		t.Fatalf("initial model = %+v", m)
	}

	for r := 0; r < rounds; r++ {
		for g := 0; g < group; g++ {
			if err := p.Add(onesReport(t, p, r)); err != nil {
				t.Fatal(err)
			}
		}
		m := tr.Model()
		if m.Round != r+1 {
			t.Fatalf("after round %d: model round = %d", r, m.Round)
		}
		want := expectedBeta(r + 1)
		if m.Beta[0] != want || m.Beta[1] != want {
			t.Fatalf("after round %d: beta = %v, want [%v %v]", r, m.Beta, want, want)
		}
	}
	m := tr.Model()
	if !m.Done {
		t.Fatal("model not done after final round")
	}
	if got := tr.Accepted(); got != rounds*group {
		t.Fatalf("accepted = %d, want %d", got, rounds*group)
	}

	// Everything after Done is stale, as is a wrong-round report.
	if err := p.Add(onesReport(t, p, rounds-1)); err != nil {
		t.Fatal(err)
	}
	if got := tr.Stale(); got != 1 {
		t.Fatalf("stale = %d, want 1", got)
	}
	if got := tr.Accepted(); got != rounds*group {
		t.Fatalf("accepted moved to %d after done", got)
	}

	if got := p.N(); got != rounds*group {
		t.Fatalf("N = %d, want %d (stale drops are not aggregated)", got, rounds*group)
	}
	if got := p.TaskCounts()[TaskGradient]; got != rounds*group {
		t.Fatalf("TaskCounts[gradient] = %d, want %d", got, rounds*group)
	}
}

func TestTrainerStaleRoundDropped(t *testing.T) {
	p := newGradientPipeline(t, 4, 2)
	// Round 1 report while round 0 collects: validation passes (the round
	// exists) but the trainer drops it.
	if err := p.Add(onesReport(t, p, 1)); err != nil {
		t.Fatal(err)
	}
	tr := p.Trainer()
	if tr.Stale() != 1 || tr.Accepted() != 0 {
		t.Fatalf("stale=%d accepted=%d, want 1/0", tr.Stale(), tr.Accepted())
	}
	if m := tr.Model(); m.Round != 0 {
		t.Fatalf("round advanced to %d on a stale report", m.Round)
	}
}

func TestGradientBatchIngest(t *testing.T) {
	const rounds, group = 2, 8
	p := newGradientPipeline(t, rounds, group)

	// A batch holding round 0's full group plus 3 extra same-round
	// reports: the round must advance exactly once, mid-batch, and the
	// extras must count stale.
	b := NewReportBatch()
	for i := 0; i < group+3; i++ {
		b.Append(onesReport(t, p, 0))
	}
	if err := p.AddBatch(b); err != nil {
		t.Fatal(err)
	}
	tr := p.Trainer()
	m := tr.Model()
	if m.Round != 1 || m.Done {
		t.Fatalf("model after batch = %+v, want round 1", m)
	}
	if m.Beta[0] != expectedBeta(1) {
		t.Fatalf("beta = %v, want %v", m.Beta[0], expectedBeta(1))
	}
	if tr.Accepted() != group || tr.Stale() != 3 {
		t.Fatalf("accepted=%d stale=%d, want %d/3", tr.Accepted(), tr.Stale(), group)
	}

	// Mixed batch: gradient reports ride alongside mean/freq reports on
	// the same ingest path.
	b.Reset()
	gbits := freq.NewBitset(2)
	gbits.Set(1)
	b.Append(Report{Task: TaskMean, Entries: []core.Entry{{Attr: 0, Kind: core.EntryNumeric, Value: 0.5}}})
	for i := 0; i < group; i++ {
		b.Append(onesReport(t, p, 1))
	}
	b.Append(Report{Task: TaskFreq, Entries: []core.Entry{{Attr: 2, Kind: core.EntryCategoricalBits, Resp: freq.Response{Bits: gbits}}}})
	if err := p.AddBatch(b); err != nil {
		t.Fatal(err)
	}
	m = tr.Model()
	if m.Round != rounds || !m.Done {
		t.Fatalf("model after mixed batch = %+v, want done at round %d", m, rounds)
	}
	res := p.Snapshot()
	if res.NTask(TaskMean) != 1 || res.NTask(TaskFreq) != 1 {
		t.Fatalf("mixed batch lost non-gradient reports: mean=%d freq=%d", res.NTask(TaskMean), res.NTask(TaskFreq))
	}
}

// gradientRejects lists malformed gradient reports with the error each
// must be rejected with: gp is newGradientPipeline(t, 2, 4) (dimension 2,
// rounds 0 and 1) and noGrad a pipeline without a gradient task.
// TestPipelineValidation drives them through every entry point.
func gradientRejects(t testing.TB, gp, noGrad *Pipeline) []rejectCase {
	good := onesReport(t, gp, 0)
	return []rejectCase{
		{"unregistered", noGrad, good, "pipeline: gradient report but no gradient task is registered"},
		{"negative round", gp, Report{Task: TaskGradient, Round: -1, Entries: good.Entries},
			"pipeline: gradient round -1 outside [0,2)"},
		{"round beyond horizon", gp, Report{Task: TaskGradient, Round: 99, Entries: good.Entries},
			"pipeline: gradient round 99 outside [0,2)"},
		{"no entries", gp, Report{Task: TaskGradient}, "pipeline: gradient report with 0 entries for dimension 2"},
		{"too many entries", gp, Report{Task: TaskGradient, Entries: []core.Entry{
			{Attr: 0, Kind: core.EntryNumeric, Value: 1},
			{Attr: 1, Kind: core.EntryNumeric, Value: 1},
			{Attr: 0, Kind: core.EntryNumeric, Value: 1},
		}}, "pipeline: gradient report with 3 entries for dimension 2"},
		{"coordinate out of range", gp, Report{Task: TaskGradient, Entries: []core.Entry{
			{Attr: 7, Kind: core.EntryNumeric, Value: 1},
		}}, "pipeline: gradient coordinate 7 outside [0,2)"},
		{"non-numeric entry", gp, Report{Task: TaskGradient, Entries: []core.Entry{
			{Attr: 0, Kind: core.EntryCategoricalValue},
		}}, "pipeline: gradient report with non-numeric entry"},
		{"NaN value", gp, Report{Task: TaskGradient, Entries: []core.Entry{
			{Attr: 0, Kind: core.EntryNumeric, Value: math.NaN()},
		}}, "pipeline: non-finite gradient coordinate value"},
	}
}

// TestGradientValidation: a malformed gradient report at the tail of a
// batch of good ones rejects the whole batch before any state change —
// the trainer's included — and the error names the bad report.
func TestGradientValidation(t *testing.T) {
	p := newGradientPipeline(t, 2, 4)
	noGrad, err := New(testSchema(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	mean := Report{Task: TaskMean, Entries: []core.Entry{{Attr: 0, Kind: core.EntryNumeric, Value: 0.5}}}
	good := onesReport(t, p, 0)
	for _, tc := range gradientRejects(t, p, noGrad) {
		t.Run(tc.name, func(t *testing.T) {
			b := NewReportBatch()
			b.Append(mean)
			if tc.p.Trainer() != nil {
				b.Append(good)
				b.Append(good)
			}
			want := fmt.Sprintf("pipeline: report %d: %s", b.Len(), tc.msg)
			b.Append(tc.rep)
			before := tc.p.StateSnapshot()
			if err := tc.p.AddBatch(b); err == nil || err.Error() != want {
				t.Errorf("AddBatch error = %v, want %q", err, want)
			}
			if !reflect.DeepEqual(tc.p.StateSnapshot(), before) {
				t.Error("a rejected batch changed the aggregate state")
			}
		})
	}
}

func TestRandomizeGradientContract(t *testing.T) {
	p := newGradientPipeline(t, 2, 4)
	gt := p.GradientTask()
	if _, err := gt.RandomizeGradient(0, []float64{1}, rng.New(1)); err == nil {
		t.Error("wrong gradient length accepted")
	}
	if _, err := gt.RandomizeGradient(2, []float64{1, 1}, rng.New(1)); err == nil {
		t.Error("round beyond horizon accepted")
	}
	if _, err := gt.RandomizeGradient(-1, []float64{1, 1}, rng.New(1)); err == nil {
		t.Error("negative round accepted")
	}
	// Clipping: a huge raw gradient must come back clipped (identity
	// mechanism, scale 1 -> exactly +-1).
	rep, err := gt.RandomizeGradient(0, []float64{50, -50}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Entries {
		if math.Abs(e.Value) != 1 {
			t.Errorf("coordinate %d = %v, want clipped to +-1", e.Attr, e.Value)
		}
	}
	// Tuples are never routed to the gradient task.
	if _, err := gt.Randomize(schema.NewTuple(p.Schema()), rng.New(1)); err == nil {
		t.Error("Randomize on the gradient task should error")
	}
}

func TestGradientOnlyPipelineRouting(t *testing.T) {
	p := newGradientPipeline(t, 2, 4)
	// The schema has numeric + categorical attrs, so mean and freq are
	// still routed; the gradient task never is.
	r := rng.New(5)
	for i := 0; i < 200; i++ {
		rep, err := p.Randomize(sampleTuple(p.Schema(), r), r)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Task == TaskGradient {
			t.Fatal("tuple routed to the gradient task")
		}
	}
}

func TestGradientMergeUnsupported(t *testing.T) {
	a := newGradientPipeline(t, 2, 4)
	b := newGradientPipeline(t, 2, 4)
	if err := a.Merge(b); err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Errorf("merge of trainers = %v, want unsupported error", err)
	}
	plain, err := New(testSchema(t), 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(plain); err == nil {
		t.Error("merge across task sets accepted")
	}
}

func TestGradientBatchRoundTrip(t *testing.T) {
	p := newGradientPipeline(t, 8, 4)
	b := NewReportBatch()
	want := onesReport(t, p, 5)
	b.Append(want)
	if got := b.Round(0); got != 5 {
		t.Fatalf("batch round = %d, want 5", got)
	}
	got := b.Report(0)
	if got.Task != TaskGradient || got.Round != 5 || len(got.Entries) != len(want.Entries) {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}
	// Truncate must roll the round column back with the rest.
	mark := b.Mark()
	b.Append(onesReport(t, p, 6))
	b.Truncate(mark)
	if b.Len() != 1 || b.Round(0) != 5 {
		t.Fatalf("after truncate: len=%d round=%d, want 1/5", b.Len(), b.Round(0))
	}
}
