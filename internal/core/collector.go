package core

import (
	"fmt"
	"math"

	"ldp/internal/freq"
	"ldp/internal/mech"
	"ldp/internal/rng"
)

// KFor returns the number of attributes each user reports under Algorithm
// 4: k = max(1, min(d, floor(eps/2.5))) (Eq. 12). Reporting k attributes at
// budget eps/k each trades sampling error against per-attribute noise; the
// 2.5 constant minimizes the worst-case variance of the PM/HM-based
// collector.
func KFor(eps float64, d int) int {
	k := int(math.Floor(eps / 2.5))
	if k < 1 {
		k = 1
	}
	if k > d {
		k = d
	}
	return k
}

// NumericCollector is Algorithm 4 restricted to all-numeric tuples in
// [-1, 1]^d: each user samples k attribute indices without replacement,
// perturbs each sampled value with a 1-D mechanism (PM or HM) at budget
// eps/k, and scales the result by d/k. Unsampled coordinates report 0, so
// the dense output vector is coordinate-wise unbiased (Lemma 4).
type NumericCollector struct {
	name  string
	eps   float64
	d     int
	k     int
	scale float64
	inner mech.Mechanism
}

// NewNumericCollector builds the collector for dimension d and total budget
// eps, using factory (typically NewPiecewise or NewHybrid) for the 1-D
// mechanism at budget eps/k.
func NewNumericCollector(factory mech.Factory, eps float64, d int) (*NumericCollector, error) {
	if err := mech.ValidateEpsilon(eps); err != nil {
		return nil, err
	}
	if d < 1 {
		return nil, fmt.Errorf("core: dimension must be >= 1, got %d", d)
	}
	k := KFor(eps, d)
	inner, err := factory(eps / float64(k))
	if err != nil {
		return nil, err
	}
	return &NumericCollector{
		name:  "sampled-" + inner.Name(),
		eps:   eps,
		d:     d,
		k:     k,
		scale: float64(d) / float64(k),
		inner: inner,
	}, nil
}

// NewNumericCollectorK is NewNumericCollector with an explicit k, used by
// the k-ablation experiment. The paper's rule is KFor.
func NewNumericCollectorK(factory mech.Factory, eps float64, d, k int) (*NumericCollector, error) {
	if err := mech.ValidateEpsilon(eps); err != nil {
		return nil, err
	}
	if d < 1 || k < 1 || k > d {
		return nil, fmt.Errorf("core: need 1 <= k <= d, got k=%d d=%d", k, d)
	}
	inner, err := factory(eps / float64(k))
	if err != nil {
		return nil, err
	}
	return &NumericCollector{
		name:  "sampled-" + inner.Name(),
		eps:   eps,
		d:     d,
		k:     k,
		scale: float64(d) / float64(k),
		inner: inner,
	}, nil
}

// Name returns "sampled-" plus the inner mechanism name.
func (c *NumericCollector) Name() string { return c.name }

// Epsilon returns the total tuple budget.
func (c *NumericCollector) Epsilon() float64 { return c.eps }

// Dim returns d.
func (c *NumericCollector) Dim() int { return c.d }

// K returns the number of attributes each user reports.
func (c *NumericCollector) K() int { return c.k }

// Inner returns the 1-D mechanism running at eps/k.
func (c *NumericCollector) Inner() mech.Mechanism { return c.inner }

// PerturbVector runs Algorithm 4 on a tuple of length Dim(). It returns a
// freshly allocated vector; hot loops should reuse a buffer through
// PerturbVectorInto.
func (c *NumericCollector) PerturbVector(t []float64, r *rng.Rand) []float64 {
	return c.PerturbVectorInto(nil, t, r)
}

// PerturbVectorInto runs Algorithm 4 on a tuple of length Dim(), writing
// the dense output into dst's storage (append-style: dst is truncated and
// regrown to Dim(), reusing its capacity when sufficient) and returning
// it. With a reused buffer the only remaining allocation is the sampler's
// index scratch, so client simulation loops randomizing millions of
// tuples stop churning one output vector per user.
func (c *NumericCollector) PerturbVectorInto(dst, t []float64, r *rng.Rand) []float64 {
	if len(t) != c.d {
		panic(fmt.Sprintf("core: tuple has %d coordinates, collector built for %d", len(t), c.d))
	}
	dst = dst[:0]
	if cap(dst) < c.d {
		dst = make([]float64, c.d)
	} else {
		dst = dst[:c.d]
		for i := range dst {
			dst[i] = 0
		}
	}
	for _, j := range rng.SampleWithoutReplacement(r, c.d, c.k) {
		dst[j] = c.scale * c.inner.Perturb(t[j], r)
	}
	return dst
}

var _ mech.VectorPerturberInto = (*NumericCollector)(nil)

// CoordinateVariance returns the per-coordinate variance of the dense
// output for input value t: Var = (d/k) E[x^2] - t^2 with
// E[x^2] = Var_inner(t) + t^2. With a PM inner mechanism this reduces to
// Eq. 14 of the paper. (For the HM inner below eps*, the paper's Eq. 15
// prints "+ (d/k-1) t^2" where the derivation gives "- t^2"; this
// implementation follows the derivation — see DESIGN.md.)
func (c *NumericCollector) CoordinateVariance(t float64) float64 {
	t = mech.Clamp1(t)
	ex2 := c.inner.Variance(t) + t*t
	return c.scale*ex2 - t*t
}

// WorstCaseCoordinateVariance maximizes CoordinateVariance over t in
// [-1, 1]. The variance is quadratic in t^2 so the maximum is at t = 0 or
// |t| = 1.
func (c *NumericCollector) WorstCaseCoordinateVariance() float64 {
	return math.Max(c.CoordinateVariance(0), c.CoordinateVariance(1))
}

var _ mech.VectorPerturber = (*NumericCollector)(nil)

// EntryKind identifies how a report entry is encoded.
type EntryKind uint8

const (
	// EntryNumeric carries a scaled perturbed numeric value.
	EntryNumeric EntryKind = iota
	// EntryCategoricalBits carries a unary-encoding bitset (OUE/SUE).
	EntryCategoricalBits
	// EntryCategoricalValue carries a single reported value (GRR).
	EntryCategoricalValue
)

// Entry is one sampled attribute inside a report's entry list (see
// pipeline.Report).
type Entry struct {
	// Attr is the attribute index in the schema.
	Attr int
	// Kind says which of Value and Resp is meaningful.
	Kind EntryKind
	// Value is the scaled numeric report (d/k times the perturbed
	// value); meaningful when Kind is EntryNumeric.
	Value float64
	// Resp is the frequency-oracle response; meaningful for the
	// categorical kinds.
	Resp freq.Response
}
