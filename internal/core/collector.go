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

// Sampler is Algorithm 4's sampling step over a set of d positions (a
// tuple's attributes, a subset of them, or a gradient's coordinates): each
// user samples k of the d positions without replacement and perturbs each
// sampled numeric value with a 1-D mechanism at budget eps/k, scaled by
// d/k. Unsampled positions report nothing, so every coordinate is unbiased
// over the users (Lemma 4). Categorical positions are perturbed by the
// caller's frequency oracles at Budget(); a categorical-only set has no
// numeric mechanism.
type Sampler struct {
	eps   float64
	d     int
	k     int
	scale float64
	inner mech.Mechanism // nil for a categorical-only set
}

// NewSampler builds the sampler for d positions at total budget eps with k
// sampled positions (the paper's rule is KFor(eps, d)). factory builds the
// 1-D numeric mechanism at eps/k; pass nil for a categorical-only set.
func NewSampler(factory mech.Factory, eps float64, d, k int) (*Sampler, error) {
	if err := mech.ValidateEpsilon(eps); err != nil {
		return nil, err
	}
	if d < 1 || k < 1 || k > d {
		return nil, fmt.Errorf("core: need 1 <= k <= d, got k=%d d=%d", k, d)
	}
	s := &Sampler{eps: eps, d: d, k: k, scale: float64(d) / float64(k)}
	if factory != nil {
		inner, err := factory(s.Budget())
		if err != nil {
			return nil, err
		}
		s.inner = inner
	}
	return s, nil
}

// Epsilon returns the total budget of one user's report.
func (s *Sampler) Epsilon() float64 { return s.eps }

// Dim returns d, the number of positions sampled from.
func (s *Sampler) Dim() int { return s.d }

// K returns the number of positions each user reports.
func (s *Sampler) K() int { return s.k }

// Budget returns eps/k, the budget each sampled position is perturbed at.
func (s *Sampler) Budget() float64 { return s.eps / float64(s.k) }

// Inner returns the 1-D mechanism running at eps/k, or nil for a
// categorical-only set.
func (s *Sampler) Inner() mech.Mechanism { return s.inner }

// Sample draws the k positions one user reports, in shuffle order. Callers
// perturb the sampled values after the draw and in the order returned:
// seeded reports, and every golden table computed from them, depend on
// that order.
func (s *Sampler) Sample(r *rng.Rand) []int {
	return rng.SampleWithoutReplacement(r, s.d, s.k)
}

// Perturb returns the d/k-scaled perturbation of the numeric value v at a
// sampled position.
func (s *Sampler) Perturb(v float64, r *rng.Rand) float64 {
	return s.scale * s.inner.Perturb(v, r)
}

// CoordinateVariance returns the variance of one coordinate of the
// sampler's output over users, for input value t in [-1, 1]: the
// coordinate is (d/k)x with probability k/d and 0 otherwise, x the inner
// mechanism's output, so Var = (d/k) E[x^2] - t^2 with
// E[x^2] = Var_inner(t) + t^2. With a PM inner mechanism this is the
// paper's Eq. 14. With HM below eps* the paper's Eq. 15 prints
// "+ (d/k - 1) t^2" where this derivation gives "- t^2"; the derivation is
// what the variance tests measure, so it is what this returns.
func (s *Sampler) CoordinateVariance(t float64) float64 {
	t = mech.Clamp1(t)
	ex2 := s.inner.Variance(t) + t*t
	return s.scale*ex2 - t*t
}

// NumericCollector is Algorithm 4 restricted to all-numeric tuples in
// [-1, 1]^d: a Sampler over the d coordinates writing a dense output, with
// 0 at every unsampled coordinate.
type NumericCollector struct {
	*Sampler
	name string
}

// NewNumericCollector builds the collector for dimension d and total budget
// eps, using factory (typically NewPiecewise or NewHybrid) for the 1-D
// mechanism at budget eps/k, k = KFor(eps, d).
func NewNumericCollector(factory mech.Factory, eps float64, d int) (*NumericCollector, error) {
	if d < 1 {
		return nil, fmt.Errorf("core: dimension must be >= 1, got %d", d)
	}
	return NewNumericCollectorK(factory, eps, d, KFor(eps, d))
}

// NewNumericCollectorK is NewNumericCollector with an explicit k, used by
// the k-ablation experiment. The paper's rule is KFor.
func NewNumericCollectorK(factory mech.Factory, eps float64, d, k int) (*NumericCollector, error) {
	s, err := NewSampler(factory, eps, d, k)
	if err != nil {
		return nil, err
	}
	return &NumericCollector{Sampler: s, name: "sampled-" + s.inner.Name()}, nil
}

// Name returns "sampled-" plus the inner mechanism name.
func (c *NumericCollector) Name() string { return c.name }

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
	for _, j := range c.Sample(r) {
		dst[j] = c.Perturb(t[j], r)
	}
	return dst
}

var _ mech.VectorPerturberInto = (*NumericCollector)(nil)

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
