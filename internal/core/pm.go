// Package core implements the paper's mechanisms: the Piecewise Mechanism
// (PM, Algorithm 2), the Hybrid Mechanism (HM, Section III-C), and the
// attribute-sampling collector for numeric tuples (Algorithm 4), with the
// Eq. 12 sampling rule and the report entry type. The mixed numeric and
// categorical collector of Section IV-C is pipeline.JointTask.
package core

import (
	"math"

	"ldp/internal/mech"
	"ldp/internal/rng"
)

// Piecewise is the Piecewise Mechanism (Algorithm 2): given t in [-1, 1] it
// outputs a value in [-C, C], C = (e^{eps/2}+1)/(e^{eps/2}-1), drawn from a
// three-piece constant density centered on t. It is unbiased with noise
// variance t^2/(e^{eps/2}-1) + (e^{eps/2}+3)/(3(e^{eps/2}-1)^2) (Lemma 1) —
// smaller for inputs of small magnitude, and with worst case
// 4e^{eps/2}/(3(e^{eps/2}-1)^2) strictly below the Laplace mechanism's for
// every eps.
type Piecewise struct {
	eps     float64
	expHalf float64 // e^{eps/2}
	c       float64 // output bound C
	pCenter float64 // probability of sampling the center piece
}

// NewPiecewise constructs the Piecewise Mechanism for budget eps.
func NewPiecewise(eps float64) (*Piecewise, error) {
	if err := mech.ValidateEpsilon(eps); err != nil {
		return nil, err
	}
	e2 := math.Exp(eps / 2)
	return &Piecewise{
		eps:     eps,
		expHalf: e2,
		c:       (e2 + 1) / (e2 - 1),
		pCenter: e2 / (e2 + 1),
	}, nil
}

// Name returns "pm".
func (m *Piecewise) Name() string { return "pm" }

// Epsilon returns the privacy budget.
func (m *Piecewise) Epsilon() float64 { return m.eps }

// SupportBound returns C, the magnitude of the output domain [-C, C].
func (m *Piecewise) SupportBound() float64 { return m.c }

// pieces returns the center piece boundaries for input t:
// l = (C+1)/2*t - (C-1)/2 and r = l + C - 1.
func (m *Piecewise) pieces(t float64) (l, r float64) {
	l = (m.c+1)/2*t - (m.c-1)/2
	return l, l + m.c - 1
}

// Perturb runs Algorithm 2. Inputs outside [-1, 1] are clamped.
func (m *Piecewise) Perturb(t float64, r *rng.Rand) float64 {
	t = mech.Clamp1(t)
	l, rr := m.pieces(t)
	if rng.Bernoulli(r, m.pCenter) {
		return rng.Uniform(r, l, rr)
	}
	// Uniform over [-C, l) u (rr, C]. The two side pieces have total
	// length (l + C) + (C - rr) = C + 1 (the center has length C - 1).
	left := l + m.c
	u := r.Float64() * (m.c + 1)
	if u < left {
		return -m.c + u
	}
	return rr + (u - left)
}

// Variance returns the closed-form noise variance of Lemma 1 for input t.
func (m *Piecewise) Variance(t float64) float64 {
	t = mech.Clamp1(t)
	d := m.expHalf - 1
	return t*t/d + (m.expHalf+3)/(3*d*d)
}

// WorstCaseVariance returns 4e^{eps/2}/(3(e^{eps/2}-1)^2), attained at
// |t| = 1.
func (m *Piecewise) WorstCaseVariance() float64 {
	d := m.expHalf - 1
	return 4 * m.expHalf / (3 * d * d)
}

// Pdf evaluates the output density pdf(t* = x | t) of Eq. 5; it is the
// center density p on [l(t), r(t)], p/e^eps on the rest of [-C, C], and 0
// outside. Used by Figure 2 and the LDP property tests.
func (m *Piecewise) Pdf(t, x float64) float64 {
	t = mech.Clamp1(t)
	if x < -m.c || x > m.c {
		return 0
	}
	p := (math.Exp(m.eps) - m.expHalf) / (2*m.expHalf + 2)
	l, r := m.pieces(t)
	if x >= l && x <= r {
		return p
	}
	return p / math.Exp(m.eps)
}

var _ mech.Mechanism = (*Piecewise)(nil)
