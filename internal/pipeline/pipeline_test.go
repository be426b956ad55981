package pipeline

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"ldp/internal/core"
	"ldp/internal/freq"
	"ldp/internal/mech"
	"ldp/internal/rangequery"
	"ldp/internal/rng"
	"ldp/internal/schema"
	"ldp/internal/stattest"
)

func testSchema(t testing.TB) *schema.Schema {
	t.Helper()
	s, err := schema.New(
		schema.Attribute{Name: "age", Kind: schema.Numeric},
		schema.Attribute{Name: "income", Kind: schema.Numeric},
		schema.Attribute{Name: "gender", Kind: schema.Categorical, Cardinality: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sampleTuple draws one synthetic user: skewed numerics, biased binary
// categorical.
func sampleTuple(s *schema.Schema, r *rng.Rand) schema.Tuple {
	tup := schema.NewTuple(s)
	tup.Num[0] = math.Tanh(0.4 + 0.3*r.NormFloat64())
	tup.Num[1] = math.Tanh(-0.2 + 0.5*r.NormFloat64())
	if r.Float64() < 0.7 {
		tup.Cat[2] = 1
	}
	return tup
}

func TestPipelineEndToEnd(t *testing.T) {
	s := testSchema(t)
	p, err := New(s, 4,
		WithShards(4),
		WithRange(rangequery.Config{Buckets: 64, GridCells: 4}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tasks()) != 3 {
		t.Fatalf("got %d tasks, want 3", len(p.Tasks()))
	}

	const users = 60_000
	var trueAge, trueInc, trueG1, trueBand float64
	for i := 0; i < users; i++ {
		r := rng.NewStream(7, uint64(i))
		tup := sampleTuple(s, r)
		trueAge += tup.Num[0]
		trueInc += tup.Num[1]
		trueG1 += float64(tup.Cat[2])
		if tup.Num[0] >= -0.5 && tup.Num[0] <= 0.5 {
			trueBand++
		}
		rep, err := p.Randomize(tup, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	if p.N() != users {
		t.Fatalf("N = %d, want %d", p.N(), users)
	}

	res := p.Snapshot()
	if res.N() != users {
		t.Fatalf("snapshot N = %d, want %d", res.N(), users)
	}
	// The mean estimates must land within 5 sigma of the truth, with
	// sigma from the mean task's closed-form worst-case per-report
	// variance over the reports the task actually received (stattest
	// replaces the old hand-picked 0.05 tolerance).
	mt := p.MeanTask()
	scale := float64(len(s.NumericIdx())) / float64(mt.K())
	wcPerReport := math.Max(
		scale*mt.Mechanism().Variance(0),
		scale*(mt.Mechanism().Variance(1)+1)-1,
	)
	nMean := int(res.NTask(TaskMean))
	age, err := res.Mean("age")
	if err != nil {
		t.Fatal(err)
	}
	stattest.CheckEstimate(t, "Mean(age)", age, trueAge/users, wcPerReport, nMean)
	inc, err := res.Mean("income")
	if err != nil {
		t.Fatal(err)
	}
	stattest.CheckEstimate(t, "Mean(income)", inc, trueInc/users, wcPerReport, nMean)
	freqs, err := res.Freq("gender")
	if err != nil {
		t.Fatal(err)
	}
	if want := trueG1 / users; math.Abs(freqs[1]-want) > 0.05 {
		t.Errorf("Freq(gender)[1] = %v, want about %v", freqs[1], want)
	}
	mass, err := res.Range(RangeQuery{Attr: "age", Lo: -0.5, Hi: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Range estimates carry LDP noise over the task's subsample plus
	// outward rounding of query endpoints to bucket boundaries, so the
	// tolerance is looser than for means.
	if want := trueBand / users; math.Abs(mass-want) > 0.12 {
		t.Errorf("Range(age in [-0.5,0.5]) = %v, want about %v", mass, want)
	}

	// Wrong-kind queries error.
	if _, err := res.Mean("gender"); err == nil {
		t.Error("Mean on categorical attribute should error")
	}
	if _, err := res.Freq("age"); err == nil {
		t.Error("Freq on numeric attribute should error")
	}
	if _, err := res.Mean("nope"); err == nil {
		t.Error("unknown attribute should error")
	}
}

// jointSchema mixes two numeric and two categorical attributes, one of
// them with a skewed five-value domain.
func jointSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s, err := schema.New(
		schema.Attribute{Name: "age", Kind: schema.Numeric},
		schema.Attribute{Name: "income", Kind: schema.Numeric},
		schema.Attribute{Name: "gender", Kind: schema.Categorical, Cardinality: 2},
		schema.Attribute{Name: "region", Kind: schema.Categorical, Cardinality: 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPipelineJointIngest drives the paper's Algorithm 4 end to end —
// JointTask randomization, sharded Add, Snapshot queries — with each of
// the paper's numeric mechanisms, and holds every mean and frequency
// estimate to 6 standard deviations of its analytic error.
func TestPipelineJointIngest(t *testing.T) {
	for _, m := range []struct {
		name string
		f    mech.Factory
	}{
		{"pm", func(e float64) (mech.Mechanism, error) { return core.NewPiecewise(e) }},
		{"hm", func(e float64) (mech.Mechanism, error) { return core.NewHybrid(e) }},
	} {
		t.Run(m.name, func(t *testing.T) { testJointIngest(t, m.f) })
	}
}

func testJointIngest(t *testing.T, mf mech.Factory) {
	s := jointSchema(t)
	p, err := New(s, 1, WithShards(2), WithMechanism(mf))
	if err != nil {
		t.Fatal(err)
	}
	joint := p.JointTask()

	const n = 200000
	r := rng.New(24)
	trueMeanAge, trueMeanIncome := 0.0, 0.0
	genderCount := make([]float64, 2)
	regionCount := make([]float64, 5)
	for i := 0; i < n; i++ {
		tup := schema.NewTuple(s)
		tup.Num[0] = rng.Uniform(r, -1, 1)               // age
		tup.Num[1] = rng.TruncGauss(r, 0.3, 0.25, -1, 1) // income
		tup.Cat[2] = r.IntN(2)
		tup.Cat[3] = int(math.Min(4, r.ExpFloat64()*1.5)) // skewed region
		trueMeanAge += tup.Num[0]
		trueMeanIncome += tup.Num[1]
		genderCount[tup.Cat[2]]++
		regionCount[tup.Cat[3]]++
		rep, err := joint.Randomize(tup, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	trueMeanAge /= n
	trueMeanIncome /= n

	res := p.Snapshot()
	if res.NTask(TaskJoint) != n || res.N() != n {
		t.Fatalf("joint count = %d of %d, want %d", res.NTask(TaskJoint), res.N(), n)
	}
	// Tolerance from the collector's worst-case coordinate variance.
	nc, err := core.NewNumericCollector(mf, 1, s.Dim())
	if err != nil {
		t.Fatal(err)
	}
	tol := 6 * math.Sqrt(nc.WorstCaseCoordinateVariance()/n)
	for name, want := range map[string]float64{"age": trueMeanAge, "income": trueMeanIncome} {
		got, err := res.Mean(name)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > tol {
			t.Errorf("%s mean: got %v, want %v +- %v", name, got, want, tol)
		}
	}

	for attr, counts := range map[int][]float64{2: genderCount, 3: regionCount} {
		got, err := res.Freq(s.Attrs[attr].Name)
		if err != nil {
			t.Fatal(err)
		}
		for v := range counts {
			want := counts[v] / n
			// ~n*k/d users report this attribute.
			nr := float64(n) * float64(joint.K()) / float64(s.Dim())
			ftol := 6 * math.Sqrt(freq.TheoreticalVariance(joint.Oracle(attr), want, int(nr)))
			if math.Abs(got[v]-want) > ftol {
				t.Errorf("attr %d value %d: freq %v, want %v +- %v", attr, v, got[v], want, ftol)
			}
		}
	}
}

// TestJointTaskRejectsBadTuple: the joint task is never routed, so it
// checks the tuple itself before randomizing.
func TestJointTaskRejectsBadTuple(t *testing.T) {
	s := jointSchema(t)
	p, err := New(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	joint := p.JointTask()
	bad := schema.NewTuple(s)
	bad.Num[0] = 3 // out of domain
	if _, err := joint.Randomize(bad, rng.New(25)); err == nil {
		t.Error("want error for out-of-domain numeric value")
	}
	bad2 := schema.NewTuple(s)
	bad2.Cat[2] = 9
	if _, err := joint.Randomize(bad2, rng.New(26)); err == nil {
		t.Error("want error for out-of-range categorical value")
	}
	short := schema.Tuple{Num: []float64{0}, Cat: []int{0}}
	if _, err := joint.Randomize(short, rng.New(27)); err == nil {
		t.Error("want error for wrong tuple arity")
	}
}

func TestPipelineTaskWeights(t *testing.T) {
	s := testSchema(t)
	p, err := New(s, 1, WithTaskWeight(TaskFreq, 0))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	for i := 0; i < 500; i++ {
		rep, err := p.Randomize(sampleTuple(s, r), r)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Task == TaskFreq {
			t.Fatal("zero-weight task received a report")
		}
		if err := p.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.Snapshot().NTask(TaskMean); n == 0 {
		t.Error("mean task should receive every report")
	}
}

func TestPipelineOptionErrors(t *testing.T) {
	s := testSchema(t)
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"bad shards", []Option{WithShards(0)}, "shards"},
		{"negative weight", []Option{WithTaskWeight(TaskMean, -1)}, "weight"},
		{"joint weight", []Option{WithTaskWeight(TaskJoint, 1)}, "cannot weight"},
		{"all zero", []Option{WithTaskWeight(TaskMean, 0), WithTaskWeight(TaskFreq, 0)}, "zero"},
		{"nil mech", []Option{WithMechanism(nil)}, "WithMechanism"},
		{"nil oracle", []Option{WithOracle(nil)}, "WithOracle"},
	}
	for _, tc := range cases {
		if _, err := New(s, 1, tc.opts...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}

	// A weight for a task the schema cannot register errors.
	numOnly, err := schema.New(schema.Attribute{Name: "x", Kind: schema.Numeric})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(numOnly, 1, WithTaskWeight(TaskFreq, 1)); err == nil {
		t.Error("weight for unregistered task should error")
	}
	// Range weight without WithRange errors too.
	if _, err := New(numOnly, 1, WithTaskWeight(TaskRange, 1)); err == nil {
		t.Error("range weight without WithRange should error")
	}
	if _, err := New(numOnly, 0, nil...); err == nil {
		t.Error("eps = 0 should error")
	}
}

// TestNewValidation: New builds the joint task of every pipeline, so it
// refuses the budgets and schemas Algorithm 4 cannot run on.
func TestNewValidation(t *testing.T) {
	if _, err := New(jointSchema(t), -1); err == nil {
		t.Error("want error for negative eps")
	}
	if _, err := New(&schema.Schema{}, 1); err == nil {
		t.Error("want error for empty schema")
	}
}

// rejectCase is one malformed report and the error its pipeline must
// reject it with.
type rejectCase struct {
	name string
	p    *Pipeline
	rep  Report
	msg  string
}

// assertRejected drives one malformed report through every ingest entry
// point — Validate, Add, ValidateBatch and AddBatch — and checks that each
// rejects it with msg (the batch paths name the report first) and that
// the aggregate state, trainer included, is unchanged.
func assertRejected(t *testing.T, tc rejectCase) {
	t.Helper()
	before := tc.p.StateSnapshot()
	b := NewReportBatch()
	b.Append(tc.rep)
	batchMsg := "pipeline: report 0: " + tc.msg
	for _, c := range []struct {
		path, want string
		err        error
	}{
		{"Validate", tc.msg, tc.p.Validate(tc.rep)},
		{"Add", tc.msg, tc.p.Add(tc.rep)},
		{"ValidateBatch", batchMsg, tc.p.ValidateBatch(b)},
		{"AddBatch", batchMsg, tc.p.AddBatch(b)},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("%s error = %v, want %q", c.path, c.err, c.want)
		}
	}
	if !reflect.DeepEqual(tc.p.StateSnapshot(), before) {
		t.Error("a rejected report changed the aggregate state")
	}
}

// TestPipelineValidation holds the one table of malformed reports: every
// row must be rejected by all four entry points with the same message,
// because Add and Validate run the batch validator on a one-report batch.
func TestPipelineValidation(t *testing.T) {
	s := testSchema(t)
	p, err := New(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	grrOracle := WithOracle(func(e float64, k int) (freq.Oracle, error) { return freq.NewGRR(e, k) })
	grr, err := New(s, 1, grrOracle)
	if err != nil {
		t.Fatal(err)
	}
	rangeCfg := WithRange(rangequery.Config{Buckets: 32, GridCells: 2})
	rangeOUE, err := New(s, 1, rangeCfg)
	if err != nil {
		t.Fatal(err)
	}
	rangeGRR, err := New(s, 1, grrOracle, rangeCfg)
	if err != nil {
		t.Fatal(err)
	}
	bits := freq.NewBitset(2)
	hierBits, gridBits := freq.NewBitset(2), freq.NewBitset(4)
	cases := []rejectCase{
		{"unknown task", p, Report{Task: TaskKind(99)}, "pipeline: unknown task TaskKind(99)"},
		{"empty mean", p, Report{Task: TaskMean}, "pipeline: mean report with 0 entries"},
		{"attr out of range", p, Report{Task: TaskMean, Entries: []core.Entry{{Attr: 9, Kind: core.EntryNumeric}}},
			"pipeline: entry attribute 9 out of range [0,3)"},
		{"mean on categorical", p, Report{Task: TaskMean, Entries: []core.Entry{{Attr: 2, Kind: core.EntryNumeric}}},
			`pipeline: numeric entry for categorical attribute "gender"`},
		{"nan value", p, Report{Task: TaskMean, Entries: []core.Entry{{Attr: 0, Kind: core.EntryNumeric, Value: math.NaN()}}},
			`pipeline: non-finite value for attribute "age"`},
		{"freq with numeric entry", p, Report{Task: TaskFreq, Entries: []core.Entry{{Attr: 0, Kind: core.EntryNumeric}}},
			"pipeline: freq report with numeric entry"},
		{"bitset width", p, Report{Task: TaskFreq, Entries: []core.Entry{{Attr: 2, Kind: core.EntryCategoricalBits, Resp: freq.Response{Bits: append(bits, 0)}}}},
			`pipeline: attribute "gender" bitset has 2 words, want 1`},
		{"grr value range", grr, Report{Task: TaskFreq, Entries: []core.Entry{{Attr: 2, Kind: core.EntryCategoricalValue, Resp: freq.Response{Value: 7}}}},
			`pipeline: attribute "gender" value 7 outside [0,2)`},
		{"range without task", p, Report{Task: TaskRange}, "pipeline: range report but no range task is registered"},
		{"joint attr out of range", p, Report{Task: TaskJoint, Entries: []core.Entry{{Attr: 99, Kind: core.EntryNumeric, Value: 1}}},
			"pipeline: entry attribute 99 out of range [0,3)"},
		{"joint numeric on categorical", p, Report{Task: TaskJoint, Entries: []core.Entry{{Attr: 2, Kind: core.EntryNumeric, Value: 1}}},
			`pipeline: numeric entry for categorical attribute "gender"`},
		{"joint bitset width", p, Report{Task: TaskJoint, Entries: []core.Entry{{Attr: 2, Kind: core.EntryCategoricalBits, Resp: freq.Response{Bits: append(bits, 0)}}}},
			`pipeline: attribute "gender" bitset has 2 words, want 1`},
		{"joint grr value range", grr, Report{Task: TaskJoint, Entries: []core.Entry{{Attr: 2, Kind: core.EntryCategoricalValue, Resp: freq.Response{Value: 2}}}},
			`pipeline: attribute "gender" value 2 outside [0,2)`},

		// Reports a lossy batch copy would turn into valid ones: an unknown
		// entry kind read as a value entry, fields wrapped to int32 (1<<32
		// becomes 0), and an empty bitset read as GRR value 0. Every entry
		// point must judge the report as given.
		{"unknown entry kind", grr, Report{Task: TaskFreq, Entries: []core.Entry{{Attr: 2, Kind: core.EntryKind(9)}}},
			"pipeline: unknown entry kind 9"},
		{"attr beyond int32", p, Report{Task: TaskMean, Entries: []core.Entry{{Attr: 1 << 32, Kind: core.EntryNumeric, Value: 0.5}}},
			"pipeline: entry attribute 4294967296 out of range [0,3)"},
		{"grr value beyond int32", grr, Report{Task: TaskFreq, Entries: []core.Entry{{Attr: 2, Kind: core.EntryCategoricalValue, Resp: freq.Response{Value: 1<<32 + 1}}}},
			`pipeline: attribute "gender" value 4294967297 outside [0,2)`},
		{"range attr beyond int32", rangeOUE, Report{Task: TaskRange, Range: rangequery.Report{Kind: rangequery.KindHier, Attr: 1 << 32, Depth: 1, Resp: freq.Response{Bits: hierBits}}},
			"rangequery: report for non-numeric or out-of-range attribute 4294967296"},
		{"range depth beyond int32", rangeOUE, Report{Task: TaskRange, Range: rangequery.Report{Kind: rangequery.KindHier, Depth: 1<<32 + 1, Resp: freq.Response{Bits: hierBits}}},
			"rangequery: report depth 4294967297 outside [1,5]"},
		{"range pair beyond int32", rangeOUE, Report{Task: TaskRange, Range: rangequery.Report{Kind: rangequery.KindGrid, Pair: 1 << 32, Resp: freq.Response{Bits: gridBits}}},
			"rangequery: report pair 4294967296 out of range [0,1)"},
		{"empty bitset on grr range", rangeGRR, Report{Task: TaskRange, Range: rangequery.Report{Kind: rangequery.KindHier, Depth: 1, Resp: freq.Response{Bits: freq.Bitset{}}}},
			"rangequery: unexpected bitset for a value-type oracle"},
	}
	for _, tc := range gradientRejects(t, newGradientPipeline(t, 2, 4), p) {
		tc.name = "gradient " + tc.name
		cases = append(cases, tc)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { assertRejected(t, tc) })
	}

	// Response shape must match the oracle: a GRR pipeline rejects bitset
	// entries (an all-ones bitset would poison every domain value), and an
	// OUE pipeline rejects single-value entries.
	allOnes := freq.NewBitset(2)
	allOnes.Set(0)
	allOnes.Set(1)
	bitsRep := Report{Task: TaskFreq, Entries: []core.Entry{{Attr: 2, Kind: core.EntryCategoricalBits, Resp: freq.Response{Bits: allOnes}}}}
	if err := grr.Add(bitsRep); err == nil {
		t.Error("GRR pipeline accepted a bitset entry")
	}
	valRep := Report{Task: TaskFreq, Entries: []core.Entry{{Attr: 2, Kind: core.EntryCategoricalValue, Resp: freq.Response{Value: 1}}}}
	if err := p.Add(valRep); err == nil {
		t.Error("OUE pipeline accepted a single-value entry")
	}
	if err := grr.Add(valRep); err != nil {
		t.Errorf("GRR pipeline rejected a well-formed value entry: %v", err)
	}
}

func TestPipelineMerge(t *testing.T) {
	s := testSchema(t)
	build := func(shards int) *Pipeline {
		p, err := New(s, 1, WithShards(shards), WithRange(rangequery.Config{Buckets: 32, GridCells: 2}))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	whole, p1, p2 := build(1), build(2), build(3)

	const users = 20_000
	for i := 0; i < users; i++ {
		r := rng.NewStream(13, uint64(i))
		tup := sampleTuple(s, r)
		rep, err := whole.Randomize(tup, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := whole.Add(rep); err != nil {
			t.Fatal(err)
		}
		half := p1
		if i%2 == 1 {
			half = p2
		}
		if err := half.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := p1.Merge(p2); err != nil {
		t.Fatal(err)
	}
	if p1.N() != users {
		t.Fatalf("merged N = %d, want %d", p1.N(), users)
	}

	a, b := whole.Snapshot(), p1.Snapshot()
	for _, attr := range []string{"age", "income"} {
		ma, _ := a.Mean(attr)
		mb, _ := b.Mean(attr)
		if math.Abs(ma-mb) > 1e-9 {
			t.Errorf("merged Mean(%s) = %v, direct %v", attr, mb, ma)
		}
	}
	fa, _ := a.Freq("gender")
	fb, _ := b.Freq("gender")
	for v := range fa {
		if math.Abs(fa[v]-fb[v]) > 1e-9 {
			t.Errorf("merged Freq(gender)[%d] = %v, direct %v", v, fb[v], fa[v])
		}
	}
	ra, _ := a.Range(RangeQuery{Attr: "age", Lo: -0.3, Hi: 0.6})
	rb, _ := b.Range(RangeQuery{Attr: "age", Lo: -0.3, Hi: 0.6})
	if math.Abs(ra-rb) > 1e-9 {
		t.Errorf("merged Range = %v, direct %v", rb, ra)
	}

	// Incompatible pipelines refuse to merge.
	other, err := New(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Merge(other); err == nil {
		t.Error("merge across budgets should error")
	}
	if err := p1.Merge(nil); err == nil {
		t.Error("merge with nil should error")
	}
}

// TestResultQueryErrors: a query must name a known attribute of the
// right kind, and an empty pipeline estimates a mean of 0.
func TestResultQueryErrors(t *testing.T) {
	p, err := New(jointSchema(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	res := p.Snapshot()
	if _, err := res.Mean("gender"); err == nil {
		t.Error("mean of categorical attribute should error")
	}
	if _, err := res.Mean("nope"); err == nil {
		t.Error("mean of unknown attribute should error")
	}
	if _, err := res.Freq("age"); err == nil {
		t.Error("frequencies of numeric attribute should error")
	}
	if _, err := res.Freq("nope"); err == nil {
		t.Error("frequencies of unknown attribute should error")
	}
	if got, err := res.Mean("age"); err != nil || got != 0 {
		t.Errorf("empty pipeline Mean = %v, %v; want 0, nil", got, err)
	}
}

// TestPipelineMergeJoint: joint-task reports split across two pipelines
// merge back to the estimates of one pipeline that folded them all.
func TestPipelineMergeJoint(t *testing.T) {
	s := jointSchema(t)
	build := func() *Pipeline {
		p, err := New(s, 1, WithMechanism(func(e float64) (mech.Mechanism, error) { return core.NewPiecewise(e) }))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	whole, a, b := build(), build(), build()
	joint := whole.JointTask()
	r := rng.New(28)
	for i := 0; i < 5000; i++ {
		tup := schema.NewTuple(s)
		tup.Num[0] = rng.Uniform(r, -1, 1)
		tup.Cat[2] = i % 2
		tup.Cat[3] = i % 5
		rep, err := joint.Randomize(tup, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := whole.Add(rep); err != nil {
			t.Fatal(err)
		}
		dst := a
		if i%2 == 1 {
			dst = b
		}
		if err := dst.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), whole.N())
	}
	ar, wr := a.Snapshot(), whole.Snapshot()
	if ar.NTask(TaskJoint) != wr.NTask(TaskJoint) {
		t.Fatalf("merged joint count = %d, want %d", ar.NTask(TaskJoint), wr.NTask(TaskJoint))
	}
	am, err := ar.Mean("age")
	if err != nil {
		t.Fatal(err)
	}
	wm, err := wr.Mean("age")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(am-wm) > 1e-12 {
		t.Errorf("merged mean %v != whole mean %v", am, wm)
	}
	af, err := ar.Freq("region")
	if err != nil {
		t.Fatal(err)
	}
	wf, err := wr.Freq("region")
	if err != nil {
		t.Fatal(err)
	}
	for v := range af {
		if math.Abs(af[v]-wf[v]) > 1e-12 {
			t.Errorf("value %d: merged freq %v != whole %v", v, af[v], wf[v])
		}
	}
}

func TestSnapshotIsImmutable(t *testing.T) {
	s := testSchema(t)
	p, err := New(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	add := func(n int) {
		for i := 0; i < n; i++ {
			rep, err := p.Randomize(sampleTuple(s, r), r)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Add(rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(100)
	res := p.Snapshot()
	n0 := res.N()
	m0, _ := res.Mean("age")
	add(400)
	if res.N() != n0 {
		t.Error("snapshot N changed after later Adds")
	}
	if m1, _ := res.Mean("age"); m1 != m0 {
		t.Error("snapshot mean changed after later Adds")
	}
}
