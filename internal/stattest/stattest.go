// Package stattest is the statistical acceptance-test harness shared by
// the mechanism, estimator, and trainer test suites. Instead of loose
// hand-picked tolerances ("the estimate should be within 0.05"), tests
// assert the two properties the paper actually proves:
//
//   - unbiasedness: the empirical mean of many seeded trials must sit
//     within Z standard errors of the expected value, where the standard
//     error comes from the trials themselves (or from a supplied
//     closed-form per-report variance bound);
//   - variance: the empirical variance must match the paper's closed-form
//     expression within a stated relative factor, and must never exceed
//     the worst-case bound.
//
// Everything is deterministic for a fixed seed (trial i draws from stream
// (seed, i)), so a passing test stays passing; Z = 5 keeps the residual
// per-check false-positive probability below ~1e-6 even if a seed change
// redraws every sample.
package stattest

import (
	"fmt"
	"math"
	"testing"

	"ldp/internal/mech"
	"ldp/internal/rng"
)

// Z is the acceptance threshold in standard errors for the mean checks.
const Z = 5

// Summary holds the empirical moments of a seeded many-trial experiment.
type Summary struct {
	// N is the number of trials.
	N int
	// Mean is the empirical mean over the trials.
	Mean float64
	// Var is the unbiased sample variance over the trials.
	Var float64
}

// Trials runs f once per trial, each with an independent PRNG stream
// derived from (seed, trial index), and summarizes the outcomes.
func Trials(trials int, seed uint64, f func(r *rng.Rand) float64) Summary {
	if trials < 2 {
		panic("stattest: need at least 2 trials")
	}
	sum, sumSq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		v := f(rng.NewStream(seed, uint64(i)))
		sum += v
		sumSq += v * v
	}
	n := float64(trials)
	mean := sum / n
	return Summary{
		N:    trials,
		Mean: mean,
		Var:  math.Max(0, (sumSq-n*mean*mean)/(n-1)),
	}
}

// SE returns the standard error of the empirical mean.
func (s Summary) SE() float64 { return math.Sqrt(s.Var / float64(s.N)) }

// unbiasedErr is the testable core of CheckUnbiased.
func (s Summary) unbiasedErr(want float64) error {
	tol := Z*s.SE() + 1e-12
	if diff := math.Abs(s.Mean - want); diff > tol {
		return fmt.Errorf("empirical mean %.6g differs from expected %.6g by %.3g > %d standard errors (%.3g)",
			s.Mean, want, diff, Z, tol)
	}
	return nil
}

// CheckUnbiased asserts that the empirical mean is within Z standard
// errors of want: the estimator-bias acceptance test.
func (s Summary) CheckUnbiased(tb testing.TB, name string, want float64) {
	tb.Helper()
	if err := s.unbiasedErr(want); err != nil {
		tb.Errorf("%s: %v", name, err)
	}
}

// varianceErr is the testable core of CheckVariance.
func (s Summary) varianceErr(want, rtol float64) error {
	if want < 0 || rtol <= 0 {
		return fmt.Errorf("bad bound %v / factor %v", want, rtol)
	}
	if s.Var < want*(1-rtol) || s.Var > want*(1+rtol) {
		return fmt.Errorf("empirical variance %.6g outside [%.6g, %.6g] (closed form %.6g, factor %g)",
			s.Var, want*(1-rtol), want*(1+rtol), want, rtol)
	}
	return nil
}

// CheckVariance asserts that the empirical variance matches the
// closed-form value want within the relative factor rtol.
func (s Summary) CheckVariance(tb testing.TB, name string, want, rtol float64) {
	tb.Helper()
	if err := s.varianceErr(want, rtol); err != nil {
		tb.Errorf("%s: %v", name, err)
	}
}

// varianceAtMostErr is the testable core of CheckVarianceAtMost.
func (s Summary) varianceAtMostErr(bound, rtol float64) error {
	if s.Var > bound*(1+rtol) {
		return fmt.Errorf("empirical variance %.6g exceeds worst-case bound %.6g by more than factor %g",
			s.Var, bound, 1+rtol)
	}
	return nil
}

// CheckVarianceAtMost asserts that the empirical variance does not exceed
// the closed-form worst-case bound by more than the relative factor rtol.
func (s Summary) CheckVarianceAtMost(tb testing.TB, name string, bound, rtol float64) {
	tb.Helper()
	if err := s.varianceAtMostErr(bound, rtol); err != nil {
		tb.Errorf("%s: %v", name, err)
	}
}

// estimateErr is the testable core of CheckEstimate.
func estimateErr(got, want, varBound float64, n int) error {
	if n < 1 || varBound < 0 {
		return fmt.Errorf("bad n %d / variance bound %v", n, varBound)
	}
	tol := Z*math.Sqrt(varBound/float64(n)) + 1e-12
	if diff := math.Abs(got - want); diff > tol {
		return fmt.Errorf("estimate %.6g differs from %.6g by %.3g > %d sigma (%.3g) for n=%d, per-report variance bound %.4g",
			got, want, diff, Z, tol, n, varBound)
	}
	return nil
}

// CheckEstimate asserts that an estimate built by averaging n unbiased
// reports with per-report variance at most varBound is within Z standard
// deviations of want — the principled form of "the mean estimate should
// be close to the truth".
func CheckEstimate(tb testing.TB, name string, got, want, varBound float64, n int) {
	tb.Helper()
	if err := estimateErr(got, want, varBound, n); err != nil {
		tb.Errorf("%s: %v", name, err)
	}
}

// CheckMechanism runs the full acceptance suite on a 1-D mechanism: at
// every probe input the perturbed output must be unbiased, its empirical
// variance must match the closed-form Variance(t) within rtol, and
// neither the closed form nor the samples may exceed WorstCaseVariance.
func CheckMechanism(tb testing.TB, m mech.Mechanism, inputs []float64, trials int, seed uint64, rtol float64) {
	tb.Helper()
	wc := m.WorstCaseVariance()
	for i, t := range inputs {
		s := Trials(trials, seed+uint64(i)*0x9e3779b9, func(r *rng.Rand) float64 {
			return m.Perturb(t, r)
		})
		name := fmt.Sprintf("%s(eps=%g) at t=%g", m.Name(), m.Epsilon(), t)
		s.CheckUnbiased(tb, name, t)
		s.CheckVariance(tb, name, m.Variance(t), rtol)
		s.CheckVarianceAtMost(tb, name, wc, rtol)
		if m.Variance(t) > wc*(1+1e-9) {
			tb.Errorf("%s: closed-form Variance(t)=%.6g exceeds WorstCaseVariance()=%.6g", name, m.Variance(t), wc)
		}
	}
}

// CheckVectorPerturber runs the acceptance suite on one coordinate of a
// d-dimensional perturber (Algorithm 4 collectors, Duchi's Algorithm 3,
// the composition baseline): coordinate coord of the dense output must be
// unbiased for input[coord], with empirical variance matching coordVar
// (the closed-form per-coordinate variance at that value) within rtol.
func CheckVectorPerturber(tb testing.TB, p mech.VectorPerturber, input []float64, coord int, coordVar float64, trials int, seed uint64, rtol float64) {
	tb.Helper()
	s := Trials(trials, seed, func(r *rng.Rand) float64 {
		return p.PerturbVector(input, r)[coord]
	})
	name := fmt.Sprintf("%s(eps=%g, d=%d) coord %d", p.Name(), p.Epsilon(), p.Dim(), coord)
	s.CheckUnbiased(tb, name, input[coord])
	s.CheckVariance(tb, name, coordVar, rtol)
}

// Running accumulates the mean and population variance of a stream of
// observations in one pass with Welford's algorithm, which stays accurate
// when the values share a large offset. The zero value is ready to use.
type Running struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// Mean returns the sample mean, or 0 before any observation.
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the population variance (dividing by n), or 0 when fewer
// than two observations have been seen.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}
