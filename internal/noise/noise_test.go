package noise

import (
	"math"
	"testing"

	"ldp/internal/mathx"
	"ldp/internal/rng"
	"ldp/internal/stattest"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestConstructorsRejectBadEpsilon(t *testing.T) {
	for _, eps := range []float64{0, -2, math.NaN()} {
		if _, err := NewLaplace(eps); err == nil {
			t.Errorf("NewLaplace(%v): want error", eps)
		}
		if _, err := NewSCDF(eps); err == nil {
			t.Errorf("NewSCDF(%v): want error", eps)
		}
		if _, err := NewStaircase(eps); err == nil {
			t.Errorf("NewStaircase(%v): want error", eps)
		}
	}
}

func TestLaplaceVarianceFormula(t *testing.T) {
	m, _ := NewLaplace(2)
	if !almostEqual(m.Variance(0.3), 2, 1e-12) { // 8/eps^2 = 8/4
		t.Errorf("Variance = %v, want 2", m.Variance(0.3))
	}
}

func TestLaplaceUnbiasedAndVariance(t *testing.T) {
	m, _ := NewLaplace(1)
	r := rng.New(1)
	const n = 400000
	var acc stattest.Running
	for i := 0; i < n; i++ {
		acc.Add(m.Perturb(0.25, r))
	}
	if math.Abs(acc.Mean()-0.25) > 5*math.Sqrt(8/float64(n)) {
		t.Errorf("mean = %v, want 0.25", acc.Mean())
	}
	if math.Abs(acc.Variance()-8) > 0.3 {
		t.Errorf("variance = %v, want 8", acc.Variance())
	}
}

func TestBandedDensityNormalizes(t *testing.T) {
	// Integrate the pdf numerically; must be ~1 for both family members.
	for _, eps := range []float64{0.5, 1, 2, 4} {
		sc, _ := NewSCDF(eps)
		st, _ := NewStaircase(eps)
		for _, b := range []*banded{sc.banded, st.banded} {
			// Center + enough bands for the geometric tail.
			total := 2 * b.a * b.m
			for j := 0; j < 200; j++ {
				total += 4 * b.a * math.Exp(-float64(j+1)*eps)
			}
			if !almostEqual(total, 1, 1e-9) {
				t.Errorf("%s eps=%v: total mass %v, want 1", b.name, eps, total)
			}
		}
	}
}

func TestBandedPdfMatchesSecondMoment(t *testing.T) {
	// Cross-check the analytic band-sum second moment against numeric
	// integration of Pdf.
	sc, _ := NewSCDF(1)
	got := sc.Variance(0)
	want := 2 * mathx.Integrate(func(x float64) float64 { return x * x * sc.Pdf(x) }, 0, 60, 200000)
	if !almostEqual(got, want, 1e-3*want) {
		t.Errorf("second moment %v, want %v (numeric)", got, want)
	}
}

func TestSCDFParameters(t *testing.T) {
	// a = eps/4 and m in (0, 1]; m -> 1 as eps -> 0 and m -> 0 as eps grows.
	small, _ := NewSCDF(0.001)
	if !almostEqual(small.CenterDensity(), 0.001/4, 1e-12) {
		t.Errorf("a = %v", small.CenterDensity())
	}
	if small.CenterHalfWidth() < 0.9 || small.CenterHalfWidth() > 1.01 {
		t.Errorf("m(0.001) = %v, want ~1", small.CenterHalfWidth())
	}
	big, _ := NewSCDF(20)
	if big.CenterHalfWidth() > 0.11 {
		t.Errorf("m(20) = %v, want ~2/eps", big.CenterHalfWidth())
	}
}

func TestStaircaseParameters(t *testing.T) {
	m, _ := NewStaircase(2)
	want := 2 / (1 + math.E) // eps/2 = 1
	if !almostEqual(m.CenterHalfWidth(), want, 1e-12) {
		t.Errorf("m = %v, want %v", m.CenterHalfWidth(), want)
	}
}

func TestBandedUnbiased(t *testing.T) {
	r := rng.New(2)
	const n = 400000
	for _, eps := range []float64{0.5, 2} {
		sc, _ := NewSCDF(eps)
		st, _ := NewStaircase(eps)
		for _, m := range []interface {
			Perturb(float64, *rng.Rand) float64
			Variance(float64) float64
			Name() string
		}{sc, st} {
			var acc stattest.Running
			for i := 0; i < n; i++ {
				acc.Add(m.Perturb(-0.6, r))
			}
			tol := 5 * math.Sqrt(m.Variance(0)/n)
			if math.Abs(acc.Mean()+0.6) > tol {
				t.Errorf("%s eps=%v: mean %v, want -0.6 +- %v", m.Name(), eps, acc.Mean(), tol)
			}
		}
	}
}

func TestBandedEmpiricalVarianceMatchesAnalytic(t *testing.T) {
	r := rng.New(3)
	const n = 400000
	for _, eps := range []float64{1, 4} {
		sc, _ := NewSCDF(eps)
		st, _ := NewStaircase(eps)
		for _, m := range []interface {
			Perturb(float64, *rng.Rand) float64
			Variance(float64) float64
			Name() string
		}{sc, st} {
			var acc stattest.Running
			for i := 0; i < n; i++ {
				acc.Add(m.Perturb(0, r))
			}
			want := m.Variance(0)
			if math.Abs(acc.Variance()-want) > 0.05*want {
				t.Errorf("%s eps=%v: var %v, want %v", m.Name(), eps, acc.Variance(), want)
			}
		}
	}
}

func TestBandedLDPRatioBound(t *testing.T) {
	// For additive noise, eps-LDP on domain [-1,1] (sensitivity 2) is
	// pdf(x-t)/pdf(x-t') <= e^eps for all x and |t-t'| <= 2. Check the
	// shifted-density ratio on a grid.
	for _, eps := range []float64{0.5, 1, 3} {
		sc, _ := NewSCDF(eps)
		st, _ := NewStaircase(eps)
		for _, b := range []*banded{sc.banded, st.banded} {
			maxRatio := 0.0
			for x := -8.0; x <= 8; x += 0.001 {
				p1 := b.Pdf(x - 1) // input t = 1
				p2 := b.Pdf(x + 1) // input t = -1
				if p2 > 0 {
					maxRatio = math.Max(maxRatio, p1/p2)
				}
			}
			if maxRatio > math.Exp(eps)+1e-6 {
				t.Errorf("%s eps=%v: ratio %v exceeds e^eps=%v", b.name, eps, maxRatio, math.Exp(eps))
			}
		}
	}
}

func TestStaircaseBeatsLaplaceAtHighEps(t *testing.T) {
	// The optimized staircase noise should have lower variance than
	// Laplace for large eps (its key selling point).
	la, _ := NewLaplace(4)
	st, _ := NewStaircase(4)
	if st.Variance(0) >= la.Variance(0) {
		t.Errorf("staircase var %v >= laplace var %v at eps=4", st.Variance(0), la.Variance(0))
	}
}

func TestNoiseSampleMatchesPdfShape(t *testing.T) {
	// Empirical mass of the center band must match 2am.
	st, _ := NewStaircase(1)
	r := rng.New(4)
	const n = 300000
	center := 0
	for i := 0; i < n; i++ {
		if x := st.banded.Noise(r); math.Abs(x) <= st.CenterHalfWidth() {
			center++
		}
	}
	want := 2 * st.CenterDensity() * st.CenterHalfWidth()
	got := float64(center) / n
	if math.Abs(got-want) > 5*math.Sqrt(want*(1-want)/n) {
		t.Errorf("center band mass = %v, want %v", got, want)
	}
}
