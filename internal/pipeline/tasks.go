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

// MeanTask estimates numeric-attribute means with the paper's Algorithm 4
// restricted to the numeric attributes: each routed user samples
// k = max(1, min(dNum, floor(eps/2.5))) of the dNum numeric attributes,
// perturbs each with the 1-D mechanism at budget eps/k, and scales by
// dNum/k so the report is coordinate-wise unbiased over the task's users.
type MeanTask struct {
	numIdx []int
	k      int
	scale  float64
	eps    float64
	inner  mech.Mechanism
}

func newMeanTask(s *schema.Schema, eps float64, factory mech.Factory) (*MeanTask, error) {
	numIdx := s.NumericIdx()
	k := core.KFor(eps, len(numIdx))
	inner, err := factory(eps / float64(k))
	if err != nil {
		return nil, fmt.Errorf("pipeline: mean task mechanism: %w", err)
	}
	return &MeanTask{
		numIdx: numIdx,
		k:      k,
		scale:  float64(len(numIdx)) / float64(k),
		eps:    eps,
		inner:  inner,
	}, nil
}

// Kind returns TaskMean.
func (t *MeanTask) Kind() TaskKind { return TaskMean }

// Name returns "mean".
func (t *MeanTask) Name() string { return "mean" }

// K returns the number of numeric attributes each routed user reports.
func (t *MeanTask) K() int { return t.k }

// Epsilon returns the task's total budget (the pipeline budget).
func (t *MeanTask) Epsilon() float64 { return t.eps }

// Mechanism returns the 1-D mechanism running at eps/k.
func (t *MeanTask) Mechanism() mech.Mechanism { return t.inner }

// Randomize implements Task.
func (t *MeanTask) Randomize(tp schema.Tuple, r *rng.Rand) (Report, error) {
	entries := make([]core.Entry, 0, t.k)
	for _, pos := range rng.SampleWithoutReplacement(r, len(t.numIdx), t.k) {
		j := t.numIdx[pos]
		entries = append(entries, core.Entry{
			Attr:  j,
			Kind:  core.EntryNumeric,
			Value: t.scale * t.inner.Perturb(tp.Num[j], r),
		})
	}
	return Report{Task: TaskMean, Entries: entries}, nil
}

// FreqTask estimates categorical-value frequencies: each routed user
// samples k = max(1, min(dCat, floor(eps/2.5))) of the dCat categorical
// attributes (the paper's Eq. 12 budget rule) and perturbs each with the
// frequency oracle at budget eps/k. The aggregator debiases per attribute
// over the users that actually reported it.
type FreqTask struct {
	catIdx  []int
	k       int
	eps     float64
	oracles []freq.Oracle // indexed by schema attribute; nil for numeric
	bits    bool          // whether the oracle responses carry bitsets
}

func newFreqTask(s *schema.Schema, eps float64, factory freq.Factory) (*FreqTask, error) {
	catIdx := s.CategoricalIdx()
	k := core.KFor(eps, len(catIdx))
	budget := eps / float64(k)
	oracles := make([]freq.Oracle, s.Dim())
	for _, j := range catIdx {
		o, err := factory(budget, s.Attrs[j].Cardinality)
		if err != nil {
			return nil, fmt.Errorf("pipeline: freq task oracle for attribute %q: %w", s.Attrs[j].Name, err)
		}
		oracles[j] = o
	}
	return &FreqTask{
		catIdx:  catIdx,
		k:       k,
		eps:     eps,
		oracles: oracles,
		bits:    freq.UsesBitset(oracles[catIdx[0]]),
	}, nil
}

// Kind returns TaskFreq.
func (t *FreqTask) Kind() TaskKind { return TaskFreq }

// Name returns "freq".
func (t *FreqTask) Name() string { return "freq" }

// K returns the number of categorical attributes each routed user reports.
func (t *FreqTask) K() int { return t.k }

// Epsilon returns the task's total budget (the pipeline budget).
func (t *FreqTask) Epsilon() float64 { return t.eps }

// Oracle returns the frequency oracle for schema attribute attr, or nil
// if the attribute is numeric.
func (t *FreqTask) Oracle(attr int) freq.Oracle {
	if attr < 0 || attr >= len(t.oracles) {
		return nil
	}
	return t.oracles[attr]
}

// Randomize implements Task.
func (t *FreqTask) Randomize(tp schema.Tuple, r *rng.Rand) (Report, error) {
	entries := make([]core.Entry, 0, t.k)
	for _, pos := range rng.SampleWithoutReplacement(r, len(t.catIdx), t.k) {
		j := t.catIdx[pos]
		resp := t.oracles[j].Perturb(tp.Cat[j], r)
		kind := core.EntryCategoricalBits
		if resp.Bits == nil {
			kind = core.EntryCategoricalValue
		}
		entries = append(entries, core.Entry{Attr: j, Kind: kind, Resp: resp})
	}
	return Report{Task: TaskFreq, Entries: entries}, nil
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
type JointTask struct {
	sch     *schema.Schema
	k       int
	scale   float64
	inner   mech.Mechanism
	oracles []freq.Oracle // indexed by schema attribute; nil without categorical attributes
	bits    bool          // whether the oracle responses carry bitsets
}

func newJointTask(s *schema.Schema, eps float64, mf mech.Factory, of freq.Factory) (*JointTask, error) {
	d := s.Dim()
	k := core.KFor(eps, d)
	budget := eps / float64(k)
	inner, err := mf(budget)
	if err != nil {
		return nil, fmt.Errorf("pipeline: joint task mechanism: %w", err)
	}
	t := &JointTask{sch: s, k: k, scale: float64(d) / float64(k), inner: inner}
	if catIdx := s.CategoricalIdx(); len(catIdx) > 0 {
		t.oracles = make([]freq.Oracle, d)
		for _, j := range catIdx {
			o, err := of(budget, s.Attrs[j].Cardinality)
			if err != nil {
				return nil, fmt.Errorf("pipeline: joint task oracle for attribute %q: %w", s.Attrs[j].Name, err)
			}
			t.oracles[j] = o
		}
		t.bits = freq.UsesBitset(t.oracles[catIdx[0]])
	}
	return t, nil
}

// Kind returns TaskJoint.
func (t *JointTask) Kind() TaskKind { return TaskJoint }

// Name returns "joint".
func (t *JointTask) Name() string { return "joint" }

// K returns the number of attributes each user reports.
func (t *JointTask) K() int { return t.k }

// Oracle returns the frequency oracle for schema attribute attr, or nil
// if the attribute is numeric.
func (t *JointTask) Oracle(attr int) freq.Oracle {
	if attr < 0 || attr >= len(t.oracles) {
		return nil
	}
	return t.oracles[attr]
}

// Randomize implements Task. It checks the tuple against the schema
// itself, since no routing step has checked it first.
func (t *JointTask) Randomize(tp schema.Tuple, r *rng.Rand) (Report, error) {
	if err := tp.Check(t.sch); err != nil {
		return Report{}, err
	}
	entries := make([]core.Entry, 0, t.k)
	for _, j := range rng.SampleWithoutReplacement(r, t.sch.Dim(), t.k) {
		if t.sch.Attrs[j].Kind == schema.Numeric {
			entries = append(entries, core.Entry{
				Attr:  j,
				Kind:  core.EntryNumeric,
				Value: t.scale * t.inner.Perturb(tp.Num[j], r),
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
	return Report{Task: TaskJoint, Entries: entries}, nil
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
