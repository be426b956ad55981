package pipeline

import (
	"fmt"

	"ldp/internal/core"
	"ldp/internal/freq"
	"ldp/internal/mech"
	"ldp/internal/rangequery"
	"ldp/internal/rng"
	"ldp/internal/schema"
)

// Task is one randomization sub-task of a Pipeline. The concrete tasks are
// MeanTask, FreqTask, RangeTask, and JointTask; they are constructed by
// New and cannot be registered from outside the package.
type Task interface {
	// Kind identifies the task's payload type.
	Kind() TaskKind
	// Name is a short human-readable identifier ("mean", "freq", "range").
	Name() string
	// Randomize perturbs one user tuple into a unified Report under the
	// task's full eps budget. The tuple must satisfy Check against the
	// pipeline's schema (Pipeline.Randomize checks; call it unless you
	// have already validated the tuple yourself).
	Randomize(t schema.Tuple, r *rng.Rand) (Report, error)
}

// sampled is the paper's Algorithm 4 over one attribute set of the schema:
// the mean task's numeric attributes, the freq task's categorical ones, or
// the joint task's whole schema. Its core.Sampler draws k of the set's
// attributes and perturbs each sampled numeric value at eps/k scaled by
// the set's size over k; each sampled categorical value goes through the
// attribute's frequency oracle at eps/k.
type sampled struct {
	sch     *schema.Schema
	attrs   []int // schema attribute at each position of the set
	smp     *core.Sampler
	oracles []freq.Oracle // indexed by schema attribute; nil without categorical attributes
	bits    bool          // whether the oracle responses carry bitsets
}

// newSampled builds the randomizer over attrs. mf may be nil when attrs
// are all categorical, and of when they are all numeric.
func newSampled(task TaskKind, s *schema.Schema, attrs []int, eps float64, mf mech.Factory, of freq.Factory) (sampled, error) {
	smp, err := core.NewSampler(mf, eps, len(attrs), core.KFor(eps, len(attrs)))
	if err != nil {
		return sampled{}, fmt.Errorf("pipeline: %v task mechanism: %w", task, err)
	}
	t := sampled{sch: s, attrs: attrs, smp: smp}
	for _, j := range attrs {
		if s.Attrs[j].Kind != schema.Categorical {
			continue
		}
		o, err := of(smp.Budget(), s.Attrs[j].Cardinality)
		if err != nil {
			return sampled{}, fmt.Errorf("pipeline: %v task oracle for attribute %q: %w", task, s.Attrs[j].Name, err)
		}
		if t.oracles == nil {
			t.oracles = make([]freq.Oracle, s.Dim())
			t.bits = freq.UsesBitset(o)
		}
		t.oracles[j] = o
	}
	return t, nil
}

// randomize samples and perturbs one tuple's entries: the sample is drawn
// first, then the sampled attributes are perturbed in the order drawn.
func (t *sampled) randomize(tp schema.Tuple, r *rng.Rand) []core.Entry {
	entries := make([]core.Entry, 0, t.smp.K())
	for _, pos := range t.smp.Sample(r) {
		j := t.attrs[pos]
		if t.sch.Attrs[j].Kind == schema.Numeric {
			entries = append(entries, core.Entry{
				Attr:  j,
				Kind:  core.EntryNumeric,
				Value: t.smp.Perturb(tp.Num[j], r),
			})
			continue
		}
		resp := t.oracles[j].Perturb(tp.Cat[j], r)
		kind := core.EntryCategoricalBits
		if resp.Bits == nil {
			kind = core.EntryCategoricalValue
		}
		entries = append(entries, core.Entry{Attr: j, Kind: kind, Resp: resp})
	}
	return entries
}

// K returns the number of attributes of the task's set each user reports.
func (t *sampled) K() int { return t.smp.K() }

// oracle returns the frequency oracle for schema attribute attr, or nil.
func (t *sampled) oracle(attr int) freq.Oracle {
	if attr < 0 || attr >= len(t.oracles) {
		return nil
	}
	return t.oracles[attr]
}

// MeanTask estimates numeric-attribute means with the paper's Algorithm 4
// restricted to the numeric attributes: each routed user samples
// k = max(1, min(dNum, floor(eps/2.5))) of the dNum numeric attributes,
// perturbs each with the 1-D mechanism at budget eps/k, and scales by
// dNum/k so the report is coordinate-wise unbiased over the task's users.
type MeanTask struct{ sampled }

// Kind returns TaskMean.
func (t *MeanTask) Kind() TaskKind { return TaskMean }

// Name returns "mean".
func (t *MeanTask) Name() string { return "mean" }

// Epsilon returns the task's total budget (the pipeline budget).
func (t *MeanTask) Epsilon() float64 { return t.smp.Epsilon() }

// Mechanism returns the 1-D mechanism running at eps/k.
func (t *MeanTask) Mechanism() mech.Mechanism { return t.smp.Inner() }

// Randomize implements Task.
func (t *MeanTask) Randomize(tp schema.Tuple, r *rng.Rand) (Report, error) {
	return Report{Task: TaskMean, Entries: t.randomize(tp, r)}, nil
}

// FreqTask estimates categorical-value frequencies: each routed user
// samples k = max(1, min(dCat, floor(eps/2.5))) of the dCat categorical
// attributes (the paper's Eq. 12 budget rule) and perturbs each with the
// frequency oracle at budget eps/k. The aggregator debiases per attribute
// over the users that actually reported it.
type FreqTask struct{ sampled }

// Kind returns TaskFreq.
func (t *FreqTask) Kind() TaskKind { return TaskFreq }

// Name returns "freq".
func (t *FreqTask) Name() string { return "freq" }

// Epsilon returns the task's total budget (the pipeline budget).
func (t *FreqTask) Epsilon() float64 { return t.smp.Epsilon() }

// Oracle returns the frequency oracle for schema attribute attr, or nil
// if the attribute is numeric.
func (t *FreqTask) Oracle(attr int) freq.Oracle { return t.oracle(attr) }

// Randomize implements Task.
func (t *FreqTask) Randomize(tp schema.Tuple, r *rng.Rand) (Report, error) {
	return Report{Task: TaskFreq, Entries: t.randomize(tp, r)}, nil
}

// JointTask is the paper's Algorithm 4 over the whole schema (Section
// IV-C), the mixed-attribute collector the paper's Figures 4-8 measure:
// each user samples k = max(1, min(d, floor(eps/2.5))) of all d
// attributes, perturbs each sampled numeric value with the pipeline's 1-D
// mechanism at eps/k and scales it by d/k, and perturbs each sampled
// categorical value with the frequency oracle at eps/k. Its reports carry
// numeric and categorical entries together under TaskJoint and fold into
// the same aggregate as every other task. It is never routed: callers
// randomize through Pipeline.JointTask.
type JointTask struct{ sampled }

// Kind returns TaskJoint.
func (t *JointTask) Kind() TaskKind { return TaskJoint }

// Name returns "joint".
func (t *JointTask) Name() string { return "joint" }

// Oracle returns the frequency oracle for schema attribute attr, or nil
// if the attribute is numeric.
func (t *JointTask) Oracle(attr int) freq.Oracle { return t.oracle(attr) }

// Randomize implements Task. It checks the tuple against the schema
// itself, since no routing step has checked it first.
func (t *JointTask) Randomize(tp schema.Tuple, r *rng.Rand) (Report, error) {
	if err := tp.Check(t.sch); err != nil {
		return Report{}, err
	}
	return Report{Task: TaskJoint, Entries: t.randomize(tp, r)}, nil
}

// RangeTask answers 1-D and 2-D range queries through the rangequery
// subsystem: each routed user reports either a dyadic interval of one
// numeric attribute at a sampled hierarchy depth, or one cell of a 2-D
// grid over an attribute pair.
type RangeTask struct {
	col *rangequery.Collector
}

// Kind returns TaskRange.
func (t *RangeTask) Kind() TaskKind { return TaskRange }

// Name returns "range".
func (t *RangeTask) Name() string { return "range" }

// Epsilon returns the task's total budget (the pipeline budget).
func (t *RangeTask) Epsilon() float64 { return t.col.Epsilon() }

// Collector returns the underlying rangequery collector.
func (t *RangeTask) Collector() *rangequery.Collector { return t.col }

// Randomize implements Task.
func (t *RangeTask) Randomize(tp schema.Tuple, r *rng.Rand) (Report, error) {
	rr, err := t.col.Perturb(tp, r)
	if err != nil {
		return Report{}, err
	}
	return Report{Task: TaskRange, Range: rr}, nil
}
