// Package analysis provides the paper's closed-form noise-variance
// expressions and the regime analysis behind Table I, Figure 1 and Figure
// 3, implemented independently of the mechanism code so the two can
// cross-check each other in tests.
//
// All functions take the privacy budget eps (> 0); the *Multi variants also
// take the dimensionality d and internally apply the paper's sampling rule
// k = max(1, min(d, floor(eps/2.5))) (Eq. 12).
package analysis

import (
	"math"

	"ldp/internal/core"
	"ldp/internal/duchi"
	"ldp/internal/mathx"
)

// EpsStar re-exports the eps* constant of Eq. 6 (~0.61): at or below it the
// Hybrid Mechanism degenerates to Duchi et al.'s method.
func EpsStar() float64 { return mathx.EpsStar() }

// EpsSharp re-exports the eps# constant of Table I (~1.29): the budget at
// which PM's and Duchi's worst-case variances cross.
func EpsSharp() float64 { return mathx.EpsSharp() }

// --- One-dimensional variances ---

// VarLaplace returns the Laplace mechanism's noise variance 8/eps^2
// (input independent).
func VarLaplace(eps float64) float64 { return 8 / (eps * eps) }

// VarDuchi returns Duchi et al.'s 1-D noise variance for input t (Eq. 4):
// ((e^eps+1)/(e^eps-1))^2 - t^2.
func VarDuchi(eps, t float64) float64 {
	b := (math.Exp(eps) + 1) / (math.Exp(eps) - 1)
	return b*b - t*t
}

// MaxVarDuchi returns Duchi et al.'s worst-case 1-D variance, at t = 0.
func MaxVarDuchi(eps float64) float64 { return VarDuchi(eps, 0) }

// VarPM returns the Piecewise Mechanism's noise variance for input t
// (Lemma 1).
func VarPM(eps, t float64) float64 {
	e2 := math.Exp(eps / 2)
	return t*t/(e2-1) + (e2+3)/(3*(e2-1)*(e2-1))
}

// MaxVarPM returns PM's worst-case variance 4e^{eps/2}/(3(e^{eps/2}-1)^2),
// at |t| = 1.
func MaxVarPM(eps float64) float64 {
	e2 := math.Exp(eps / 2)
	return 4 * e2 / (3 * (e2 - 1) * (e2 - 1))
}

// OptimalAlpha returns the Hybrid Mechanism's mixing coefficient of Eq. 7.
func OptimalAlpha(eps float64) float64 {
	if eps > mathx.EpsStar() {
		return 1 - math.Exp(-eps/2)
	}
	return 0
}

// VarHM returns the Hybrid Mechanism's noise variance for input t with the
// optimal alpha: alpha*VarPM + (1-alpha)*VarDuchi.
func VarHM(eps, t float64) float64 {
	a := OptimalAlpha(eps)
	return a*VarPM(eps, t) + (1-a)*VarDuchi(eps, t)
}

// MaxVarHM returns HM's worst-case variance (Eq. 8).
func MaxVarHM(eps float64) float64 {
	if eps > mathx.EpsStar() {
		e2 := math.Exp(eps / 2)
		e1 := math.Exp(eps)
		return (e2+3)/(3*e2*(e2-1)) + (e1+1)*(e1+1)/(e2*(e1-1)*(e1-1))
	}
	return MaxVarDuchi(eps)
}

// --- Multidimensional variances (per coordinate, Eqs. 13-15) ---

// MaxVarDuchiMulti returns the worst-case per-coordinate variance of
// Duchi et al.'s Algorithm 3: C_d^2 ((e^eps+1)/(e^eps-1))^2, at t = 0
// (Eq. 13).
func MaxVarDuchiMulti(eps float64, d int) float64 {
	b := duchi.B(eps, d)
	return b * b
}

// VarPMMulti returns the per-coordinate variance of Algorithm 4 with a PM
// inner mechanism for coordinate value t (Eq. 14).
func VarPMMulti(eps float64, d int, t float64) float64 {
	k := float64(core.KFor(eps, d))
	e := math.Exp(eps / (2 * k))
	dd := float64(d)
	return dd*(e+3)/(3*k*(e-1)*(e-1)) + (dd*e/(k*(e-1))-1)*t*t
}

// MaxVarPMMulti returns the worst case of Eq. 14, at |t| = 1 (the t^2
// coefficient is positive for every d >= 1).
func MaxVarPMMulti(eps float64, d int) float64 { return VarPMMulti(eps, d, 1) }

// VarHMMulti returns the per-coordinate variance of Algorithm 4 with an HM
// inner mechanism for coordinate value t. It follows the derivation
// Var = (d/k) E[x^2] - t^2 (the paper's Eq. 15 lower branch prints
// "+ (d/k-1)t^2" where the derivation gives "- t^2"; see
// core.Sampler.CoordinateVariance).
func VarHMMulti(eps float64, d int, t float64) float64 {
	k := float64(core.KFor(eps, d))
	budget := eps / k
	dd := float64(d)
	// E[x^2] for the 1-D HM at the split budget.
	ex2 := VarHM(budget, t) + t*t
	return dd/k*ex2 - t*t
}

// MaxVarHMMulti returns the worst case of VarHMMulti over t in [-1, 1]:
// at |t| = 1 when the split budget exceeds eps* (constant-variance regime)
// and at t = 0 otherwise.
func MaxVarHMMulti(eps float64, d int) float64 {
	return math.Max(VarHMMulti(eps, d, 0), VarHMMulti(eps, d, 1))
}

// --- Regime analysis (Table I) ---

// Ordering describes the relative order of the three worst-case variances
// for a given setting, using the paper's notation.
type Ordering string

// The five rows of Table I.
const (
	HMltPMltDu Ordering = "HM < PM < Duchi"
	HMltPMeqDu Ordering = "HM < PM = Duchi"
	HMltDultPM Ordering = "HM < Duchi < PM"
	HMeqDultPM Ordering = "HM = Duchi < PM"
)

// ClassifyD1 returns the Table I row for dimension 1 at budget eps, derived
// from the closed forms (not hard-coded thresholds).
func ClassifyD1(eps float64) Ordering {
	const rel = 1e-9
	hm, pm, du := MaxVarHM(eps), MaxVarPM(eps), MaxVarDuchi(eps)
	switch {
	case math.Abs(pm-du) <= rel*du && hm < pm:
		return HMltPMeqDu
	case math.Abs(hm-du) <= rel*du && du < pm:
		return HMeqDultPM
	case hm < pm && pm < du:
		return HMltPMltDu
	default:
		return HMltDultPM
	}
}

// CrossoverPMDuchi solves MaxVarPM(eps) = MaxVarDuchi(eps) numerically; the
// result must agree with the closed-form eps# (verified in tests).
func CrossoverPMDuchi() (float64, error) {
	return mathx.Bisect(func(e float64) float64 {
		return MaxVarPM(e) - MaxVarDuchi(e)
	}, 0.1, 8, 1e-12)
}

// NumericOptimalAlpha minimizes the worst-case variance of the
// alpha-mixture numerically over a fine grid, returning the best alpha.
// It exists to validate Lemma 3's closed form.
func NumericOptimalAlpha(eps float64, gridSteps int) float64 {
	bestAlpha, bestVal := 0.0, math.Inf(1)
	for i := 0; i <= gridSteps; i++ {
		a := float64(i) / float64(gridSteps)
		// Worst case of the mixture over t: quadratic in t^2, so the
		// extremes t=0 and t=1 suffice.
		v0 := a*VarPM(eps, 0) + (1-a)*VarDuchi(eps, 0)
		v1 := a*VarPM(eps, 1) + (1-a)*VarDuchi(eps, 1)
		if v := math.Max(v0, v1); v < bestVal {
			bestVal, bestAlpha = v, a
		}
	}
	return bestAlpha
}
