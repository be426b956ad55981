package stattest

import (
	"math"
	"testing"

	"ldp/internal/rng"
)

// TestTrialsMoments pins the summary against a distribution with known
// moments: Uniform[-1, 1] has mean 0 and variance 1/3.
func TestTrialsMoments(t *testing.T) {
	s := Trials(200_000, 42, func(r *rng.Rand) float64 {
		return rng.Uniform(r, -1, 1)
	})
	if err := s.unbiasedErr(0); err != nil {
		t.Errorf("uniform mean: %v", err)
	}
	if err := s.varianceErr(1.0/3, 0.02); err != nil {
		t.Errorf("uniform variance: %v", err)
	}
	if s.SE() <= 0 {
		t.Errorf("SE = %v, want > 0", s.SE())
	}
}

// TestChecksHaveTeeth verifies the harness actually rejects biased and
// over-noisy samplers — an acceptance test that passes everything would
// silently gut every suite built on it.
func TestChecksHaveTeeth(t *testing.T) {
	biased := Trials(50_000, 7, func(r *rng.Rand) float64 {
		return rng.Uniform(r, -1, 1) + 0.1 // bias far beyond 5 SE
	})
	if err := biased.unbiasedErr(0); err == nil {
		t.Error("unbiasedErr accepted a sampler with bias 0.1")
	}
	noisy := Trials(50_000, 8, func(r *rng.Rand) float64 {
		return 3 * rng.Uniform(r, -1, 1) // variance 3 = 9x the claimed 1/3
	})
	if err := noisy.varianceErr(1.0/3, 0.2); err == nil {
		t.Error("varianceErr accepted a sampler with 9x the claimed variance")
	}
	if err := noisy.varianceAtMostErr(1.0/3, 0.2); err == nil {
		t.Error("varianceAtMostErr accepted a sampler far above the bound")
	}
	if err := estimateErr(1.0, 0.0, 0.25, 10_000); err == nil {
		t.Error("estimateErr accepted an estimate 200 sigma from the truth")
	}
}

// TestCheckEstimateAcceptsWithinSigma covers the accept path with an
// exactly computable configuration.
func TestCheckEstimateAcceptsWithinSigma(t *testing.T) {
	// 4 sigma off with variance bound 1 over n=100: tol = 5*0.1 = 0.5.
	if err := estimateErr(0.4, 0, 1, 100); err != nil {
		t.Errorf("estimate 4 sigma from truth should pass: %v", err)
	}
	if err := estimateErr(0.6, 0, 1, 100); err == nil {
		t.Error("estimate 6 sigma from truth should fail")
	}
}

// TestTrialsDeterministic: same seed, same summary — the property that
// keeps the statistical suites from flaking.
func TestTrialsDeterministic(t *testing.T) {
	f := func(r *rng.Rand) float64 { return r.NormFloat64() }
	a, b := Trials(1000, 99, f), Trials(1000, 99, f)
	if a != b {
		t.Errorf("same seed produced different summaries: %+v vs %+v", a, b)
	}
	c := Trials(1000, 100, f)
	if a == c {
		t.Error("different seeds produced identical summaries")
	}
}

// TestTrialsPanicsOnTooFew documents the minimum-trials contract.
func TestTrialsPanicsOnTooFew(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Trials(1, ...) should panic")
		}
	}()
	Trials(1, 1, func(*rng.Rand) float64 { return 0 })
}

// TestVarNonNegative: catastrophic cancellation must never produce a
// negative variance.
func TestVarNonNegative(t *testing.T) {
	s := Trials(1000, 3, func(*rng.Rand) float64 { return 1e9 })
	if s.Var < 0 {
		t.Errorf("constant sampler variance = %v, want >= 0", s.Var)
	}
	if math.Abs(s.Mean-1e9) > 1e-3 {
		t.Errorf("constant sampler mean = %v", s.Mean)
	}
}

func TestRunningBasic(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", r.Mean())
	}
	if math.Abs(r.Variance()-4) > 1e-12 {
		t.Errorf("Variance = %v, want 4", r.Variance())
	}
}

func TestRunningEmptyAndSingle(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 {
		t.Error("zero-value accumulator should report zeros")
	}
	r.Add(3)
	if r.Mean() != 3 || r.Variance() != 0 {
		t.Error("single observation: mean 3, variance 0")
	}
}

func TestRunningLargeShiftStability(t *testing.T) {
	// Welford must stay accurate with a large offset where naive sum of
	// squares loses precision.
	var r Running
	const offset = 1e9
	for _, x := range []float64{offset + 1, offset + 2, offset + 3} {
		r.Add(x)
	}
	if math.Abs(r.Variance()-2.0/3) > 1e-6 {
		t.Errorf("Variance = %v, want %v", r.Variance(), 2.0/3)
	}
}
