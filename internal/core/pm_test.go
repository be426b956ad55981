package core

import (
	"math"
	"testing"
	"testing/quick"

	"ldp/internal/mathx"
	"ldp/internal/rng"
	"ldp/internal/stattest"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewPiecewiseValidation(t *testing.T) {
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewPiecewise(eps); err == nil {
			t.Errorf("NewPiecewise(%v): want error", eps)
		}
	}
}

func TestPiecewiseSupportBound(t *testing.T) {
	// eps = 2 ln 3: e^{eps/2} = 3, C = 2.
	m, err := NewPiecewise(2 * math.Log(3))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(m.SupportBound(), 2, 1e-12) {
		t.Errorf("C = %v, want 2", m.SupportBound())
	}
}

func TestPiecewiseOutputWithinBounds(t *testing.T) {
	for _, eps := range []float64{0.2, 1, 4} {
		m, _ := NewPiecewise(eps)
		r := rng.New(1)
		c := m.SupportBound()
		for i := 0; i < 20000; i++ {
			ti := rng.Uniform(r, -1, 1)
			if got := m.Perturb(ti, r); got < -c-1e-12 || got > c+1e-12 {
				t.Fatalf("eps=%v t=%v: output %v outside [-C,C]=[-%v,%v]", eps, ti, got, c, c)
			}
		}
	}
}

func TestPiecewiseUnbiased(t *testing.T) {
	r := rng.New(2)
	const n = 400000
	for _, eps := range []float64{0.5, 1, 4} {
		m, _ := NewPiecewise(eps)
		for _, ti := range []float64{-1, -0.4, 0, 0.7, 1} {
			var acc stattest.Running
			for i := 0; i < n; i++ {
				acc.Add(m.Perturb(ti, r))
			}
			tol := 5 * math.Sqrt(m.Variance(ti)/n)
			if math.Abs(acc.Mean()-ti) > tol {
				t.Errorf("eps=%v t=%v: mean %v, want %v +- %v", eps, ti, acc.Mean(), ti, tol)
			}
		}
	}
}

func TestPiecewiseVarianceMatchesLemma1(t *testing.T) {
	r := rng.New(3)
	const n = 400000
	for _, eps := range []float64{1, 3} {
		m, _ := NewPiecewise(eps)
		for _, ti := range []float64{0, 0.5, 1} {
			var acc stattest.Running
			for i := 0; i < n; i++ {
				acc.Add(m.Perturb(ti, r))
			}
			want := m.Variance(ti)
			if math.Abs(acc.Variance()-want) > 0.03*m.WorstCaseVariance() {
				t.Errorf("eps=%v t=%v: var %v, want %v", eps, ti, acc.Variance(), want)
			}
		}
	}
}

func TestPiecewiseWorstCaseAtUnitInput(t *testing.T) {
	m, _ := NewPiecewise(1.5)
	if !almostEqual(m.Variance(1), m.WorstCaseVariance(), 1e-12) {
		t.Errorf("Variance(1) = %v, WorstCase = %v", m.Variance(1), m.WorstCaseVariance())
	}
	if m.Variance(0) >= m.WorstCaseVariance() {
		t.Error("Variance(0) should be below the worst case")
	}
}

func TestPiecewiseVarianceDecreasesWithMagnitude(t *testing.T) {
	// Lemma 1: variance decreases as |t| decreases (opposite of Duchi).
	m, _ := NewPiecewise(2)
	prev := -1.0
	for _, ti := range []float64{0, 0.25, 0.5, 0.75, 1} {
		v := m.Variance(ti)
		if v <= prev {
			t.Errorf("variance not increasing in |t|: Var(%v)=%v, prev %v", ti, v, prev)
		}
		prev = v
	}
}

func TestPiecewiseBeatsLaplaceWorstCase(t *testing.T) {
	// Section III-B: PM's worst-case variance is strictly below the
	// Laplace mechanism's 8/eps^2 for every eps.
	for eps := 0.1; eps <= 8; eps += 0.1 {
		m, _ := NewPiecewise(eps)
		if m.WorstCaseVariance() >= 8/(eps*eps) {
			t.Errorf("eps=%v: PM worst case %v >= Laplace %v", eps, m.WorstCaseVariance(), 8/(eps*eps))
		}
	}
}

func TestPiecewisePdfNormalizes(t *testing.T) {
	for _, eps := range []float64{0.5, 2} {
		m, _ := NewPiecewise(eps)
		for _, ti := range []float64{0, 0.5, 1, -1} {
			c := m.SupportBound()
			total := mathx.Integrate(func(x float64) float64 { return m.Pdf(ti, x) }, -c, c, 200000)
			if !almostEqual(total, 1, 1e-3) {
				t.Errorf("eps=%v t=%v: pdf mass %v, want 1", eps, ti, total)
			}
		}
	}
}

func TestPiecewisePdfMeanIsT(t *testing.T) {
	m, _ := NewPiecewise(1)
	c := m.SupportBound()
	for _, ti := range []float64{0, 0.3, -0.8, 1} {
		mean := mathx.Integrate(func(x float64) float64 { return x * m.Pdf(ti, x) }, -c, c, 200000)
		if !almostEqual(mean, ti, 1e-3) {
			t.Errorf("t=%v: pdf mean %v", ti, mean)
		}
	}
}

func TestPiecewiseLDPRatioBound(t *testing.T) {
	// Definition 1 with densities: for all inputs t, t' and outputs x,
	// pdf(x|t) <= e^eps pdf(x|t'). The piecewise density takes exactly
	// two positive levels with ratio e^eps, so the bound is tight but
	// never exceeded.
	for _, eps := range []float64{0.5, 1, 3} {
		m, _ := NewPiecewise(eps)
		c := m.SupportBound()
		maxRatio := 0.0
		for _, a := range []float64{-1, -0.6, -0.2, 0, 0.3, 0.9, 1} {
			for _, b := range []float64{-1, -0.5, 0, 0.4, 1} {
				for x := -c + 1e-9; x < c; x += c / 500 {
					pa, pb := m.Pdf(a, x), m.Pdf(b, x)
					if pb > 0 {
						maxRatio = math.Max(maxRatio, pa/pb)
					}
				}
			}
		}
		if maxRatio > math.Exp(eps)+1e-9 {
			t.Errorf("eps=%v: max pdf ratio %v exceeds e^eps = %v", eps, maxRatio, math.Exp(eps))
		}
	}
}

func TestPiecewiseEmpiricalCenterMass(t *testing.T) {
	// The center piece must receive probability e^{eps/2}/(e^{eps/2}+1).
	const eps = 1.2
	m, _ := NewPiecewise(eps)
	r := rng.New(4)
	const n = 300000
	const ti = 0.3
	l, rr := m.pieces(ti)
	in := 0
	for i := 0; i < n; i++ {
		if x := m.Perturb(ti, r); x >= l && x <= rr {
			in++
		}
	}
	want := math.Exp(eps/2) / (math.Exp(eps/2) + 1)
	got := float64(in) / n
	if math.Abs(got-want) > 5*math.Sqrt(want*(1-want)/n) {
		t.Errorf("center mass = %v, want %v", got, want)
	}
}

func TestPiecewiseEdgeInputNoRightPiece(t *testing.T) {
	// At t = 1 the right piece has zero length: r(1) = C.
	m, _ := NewPiecewise(1)
	_, rr := m.pieces(1)
	if !almostEqual(rr, m.SupportBound(), 1e-12) {
		t.Errorf("r(1) = %v, want C = %v", rr, m.SupportBound())
	}
	l, _ := m.pieces(-1)
	if !almostEqual(l, -m.SupportBound(), 1e-12) {
		t.Errorf("l(-1) = %v, want -C", l)
	}
}

func TestPiecewiseClampsInput(t *testing.T) {
	m, _ := NewPiecewise(1)
	if m.Variance(7) != m.Variance(1) {
		t.Error("Variance should clamp inputs to [-1,1]")
	}
	r := rng.New(5)
	const n = 200000
	var a, b stattest.Running
	for i := 0; i < n; i++ {
		a.Add(m.Perturb(3, r))
	}
	for i := 0; i < n; i++ {
		b.Add(m.Perturb(1, r))
	}
	if math.Abs(a.Mean()-b.Mean()) > 5*math.Sqrt(2*m.WorstCaseVariance()/n) {
		t.Errorf("clamped Perturb(3) mean %v differs from Perturb(1) mean %v", a.Mean(), b.Mean())
	}
}

func TestPiecewiseDeterministicGivenSeed(t *testing.T) {
	f := func(seed uint64, tRaw int8) bool {
		m, _ := NewPiecewise(1)
		ti := float64(tRaw) / 128
		return m.Perturb(ti, rng.New(seed)) == m.Perturb(ti, rng.New(seed))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
