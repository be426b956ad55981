package pipeline

import (
	"fmt"
	"sync/atomic"
	"time"

	"ldp/internal/freq"
	"ldp/internal/rangequery"
	"ldp/internal/schema"
)

// RangeQuery describes a range query against a Result. Attr alone selects
// a 1-D query over [Lo, Hi]; setting Attr2 as well selects the conjunctive
// 2-D query Attr in [Lo, Hi] AND Attr2 in [Lo2, Hi2].
type RangeQuery struct {
	Attr     string
	Lo, Hi   float64
	Attr2    string
	Lo2, Hi2 float64
}

// Result is an immutable point-in-time view of a Pipeline's aggregate
// state, produced by Pipeline.Snapshot (or served from the epoch cache by
// Pipeline.View). It answers every query kind the pipeline collects: Mean
// for numeric attributes, Freq for categorical attributes, and Range for
// 1-D/2-D range queries. Methods are safe for concurrent use.
//
// Internally a Result is the summed AggState plus precomputed constants,
// not estimators: numeric sums, pooled frequency-oracle support counts
// debiased lazily per queried attribute (the combined estimate is
// memoized, so repeated queries are lookups), and a rangequery.View that
// holds a copy of each hierarchy level's and grid's summed count column
// and derives that slot's interval estimates or Norm-Sub-consistent grid
// on its first read, sharing them with every later read.
type Result struct {
	sch *schema.Schema

	// epoch and built are stamped by the view cache (epoch 0 for a plain
	// Snapshot).
	epoch uint64
	built time.Time

	// st is the summed aggregate. Its Range and Trainer fields are nil:
	// range answers come from rangeView, which copied the range columns.
	// The freq and joint tasks run their oracles at different budgets, so
	// their support counts pool separately and combine at query time,
	// debiased by these oracles.
	st           AggState
	freqOracles  []freq.Oracle
	jointOracles []freq.Oracle

	// freqCache memoizes the combined debiased estimate per attribute:
	// computed on first query, a pure lookup afterwards.
	freqCache []atomic.Pointer[[]float64]

	rangeView *rangequery.View
}

// N returns the total number of reports in the snapshot.
func (r *Result) N() int64 { return r.st.Total() }

// NTask returns the number of reports of one task kind in the snapshot.
func (r *Result) NTask(kind TaskKind) int64 {
	switch kind {
	case TaskMean:
		return r.st.NMean
	case TaskFreq:
		return r.st.NFreq
	case TaskJoint:
		return r.st.NJoint
	case TaskRange:
		return r.st.NRange
	default:
		return 0
	}
}

// Watermark returns the ingest watermark the snapshot captured: the
// number of reports folded into the pipeline's shards when it was taken
// (equal to N by construction).
func (r *Result) Watermark() int64 { return r.st.Total() }

// Epoch returns the view-cache build sequence number of this result, or 0
// for a result built by a direct Snapshot call. Epochs from one
// pipeline's View are strictly increasing, which is what makes them
// usable as HTTP ETags: equal epoch implies byte-identical answers.
func (r *Result) Epoch() uint64 { return r.epoch }

// BuiltAt returns when the view cache materialized this result. It is
// the zero time for a result built by a direct Snapshot call, and for
// cached views on pipelines without a wall-clock staleness bound (the
// timestamp exists to serve that bound, so it is only taken when
// WithQueryStaleness configures a nonzero maxAge).
func (r *Result) BuiltAt() time.Time { return r.built }

// Schema returns the snapshot's schema.
func (r *Result) Schema() *schema.Schema { return r.sch }

// attrIndex resolves an attribute name.
func (r *Result) attrIndex(name string) (int, error) {
	for i, a := range r.sch.Attrs {
		if a.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("pipeline: unknown attribute %q", name)
}

// Mean estimates the mean of the named numeric attribute. Reports from
// the mean and joint tasks are both unbiased per-report
// contributions to the attribute sum, so the combined estimator divides
// the pooled sum by the pooled report count.
func (r *Result) Mean(attr string) (float64, error) {
	i, err := r.attrIndex(attr)
	if err != nil {
		return 0, err
	}
	if r.sch.Attrs[i].Kind != schema.Numeric {
		return 0, fmt.Errorf("pipeline: attribute %q is not numeric", attr)
	}
	n := r.st.NMean + r.st.NJoint
	if n == 0 {
		return 0, nil
	}
	return (r.st.MeanSum[i] + r.st.JointSum[i]) / float64(n), nil
}

// Means returns the estimated mean of every numeric attribute, keyed by
// attribute name.
func (r *Result) Means() map[string]float64 {
	out := make(map[string]float64)
	for _, a := range r.sch.Attrs {
		if a.Kind != schema.Numeric {
			continue
		}
		m, _ := r.Mean(a.Name)
		out[a.Name] = m
	}
	return out
}

// freqCombined returns the memoized combined frequency estimate of
// categorical attribute i: on first call it debiases the freq-task and
// joint-task support counts through their DebiasViews and combines the
// two streams weighted by per-attribute reporter counts; afterwards it is
// an atomic load. The returned slice is shared — callers must not write
// to it.
func (r *Result) freqCombined(i int) []float64 {
	if ptr := r.freqCache[i].Load(); ptr != nil {
		return *ptr
	}
	out := make([]float64, r.sch.Attrs[i].Cardinality)
	var nF, nJ int64
	if r.st.FreqCounts != nil && r.st.FreqCounts[i] != nil {
		nF = r.st.FreqN[i]
	}
	if r.st.JointCounts != nil && r.st.JointCounts[i] != nil {
		nJ = r.st.JointN[i]
	}
	if nF+nJ > 0 {
		wF := float64(nF) / float64(nF+nJ)
		wJ := float64(nJ) / float64(nF+nJ)
		if nF > 0 {
			fv := freq.NewDebiasView(r.freqOracles[i], r.st.FreqCounts[i], nF)
			for v := range out {
				out[v] += wF * fv.Estimate(v)
			}
		}
		if nJ > 0 {
			jv := freq.NewDebiasView(r.jointOracles[i], r.st.JointCounts[i], nJ)
			for v := range out {
				out[v] += wJ * jv.Estimate(v)
			}
		}
	}
	// A racing first query may store a concurrently computed slice; both
	// are identical (pure function of immutable state), so either wins.
	r.freqCache[i].Store(&out)
	return out
}

// Freq estimates the frequency of every value of the named categorical
// attribute. The returned slice is a fresh copy the caller may modify;
// query paths that must not allocate should use FreqView.
func (r *Result) Freq(attr string) ([]float64, error) {
	shared, err := r.FreqView(attr)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(shared))
	copy(out, shared)
	return out, nil
}

// FreqView returns the combined frequency estimate of the named
// categorical attribute as a shared read-only slice: after the first call
// for an attribute the answer is memoized on the Result, so a cached-view
// query allocates nothing. Callers must not modify the returned slice.
func (r *Result) FreqView(attr string) ([]float64, error) {
	i, err := r.attrIndex(attr)
	if err != nil {
		return nil, err
	}
	if r.sch.Attrs[i].Kind != schema.Categorical {
		return nil, fmt.Errorf("pipeline: attribute %q is not categorical", attr)
	}
	return r.freqCombined(i), nil
}

// Range answers a 1-D or 2-D range query (see RangeQuery) from the
// snapshot's range view. The first read of a hierarchy level or grid in
// this Result derives and allocates its estimate; once the slots a query
// touches are derived, it is a pure lookup with zero allocation. It
// errors when the pipeline was built without WithRange.
func (r *Result) Range(q RangeQuery) (float64, error) {
	if r.rangeView == nil {
		return 0, fmt.Errorf("pipeline: range queries need a pipeline built with WithRange")
	}
	i, err := r.attrIndex(q.Attr)
	if err != nil {
		return 0, err
	}
	if q.Attr2 == "" {
		return r.rangeView.Range1D(i, q.Lo, q.Hi)
	}
	j, err := r.attrIndex(q.Attr2)
	if err != nil {
		return 0, err
	}
	return r.rangeView.Range2D(i, j, q.Lo, q.Hi, q.Lo2, q.Hi2)
}

// RangeView exposes the snapshot's range-query view (nil when the range
// task is absent), for callers that need its per-attribute hierarchy and
// per-pair grid views. Its slots derive on first read, shared with Range.
func (r *Result) RangeView() *rangequery.View { return r.rangeView }
