package core

import (
	"math"
	"testing"

	"ldp/internal/duchi"
	"ldp/internal/mathx"
	"ldp/internal/rng"
	"ldp/internal/stattest"
)

func TestNewHybridAlphaRule(t *testing.T) {
	// Eq. 7: alpha = 1 - e^{-eps/2} above eps*, 0 at or below it.
	star := mathx.EpsStar()
	below, _ := NewHybrid(star - 0.01)
	if below.Alpha() != 0 {
		t.Errorf("alpha below eps* = %v, want 0", below.Alpha())
	}
	above, _ := NewHybrid(2)
	want := 1 - math.Exp(-1)
	if !almostEqual(above.Alpha(), want, 1e-12) {
		t.Errorf("alpha at eps=2 = %v, want %v", above.Alpha(), want)
	}
}

func TestNewHybridAlphaValidation(t *testing.T) {
	if _, err := NewHybridAlpha(1, -0.1); err == nil {
		t.Error("want error for alpha < 0")
	}
	if _, err := NewHybridAlpha(1, 1.1); err == nil {
		t.Error("want error for alpha > 1")
	}
	if _, err := NewHybridAlpha(0, 0.5); err == nil {
		t.Error("want error for eps = 0")
	}
	if _, err := NewHybridAlpha(1, math.NaN()); err == nil {
		t.Error("want error for NaN alpha")
	}
}

func TestHybridUnbiased(t *testing.T) {
	r := rng.New(10)
	const n = 400000
	for _, eps := range []float64{0.5, 1, 4} {
		m, _ := NewHybrid(eps)
		for _, ti := range []float64{-1, 0, 0.6, 1} {
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

func TestHybridVarianceIsAlphaMixture(t *testing.T) {
	r := rng.New(11)
	const n = 400000
	m, _ := NewHybrid(2)
	pm, _ := NewPiecewise(2)
	du, _ := duchi.NewOneDim(2)
	for _, ti := range []float64{0, 0.5, 1} {
		var acc stattest.Running
		for i := 0; i < n; i++ {
			acc.Add(m.Perturb(ti, r))
		}
		want := m.Alpha()*pm.Variance(ti) + (1-m.Alpha())*du.Variance(ti)
		if math.Abs(acc.Variance()-want) > 0.03*m.WorstCaseVariance() {
			t.Errorf("t=%v: var %v, want %v", ti, acc.Variance(), want)
		}
	}
}

func TestHybridVarianceConstantAboveEpsStar(t *testing.T) {
	// The optimal alpha cancels the t^2 terms: for eps > eps* the hybrid
	// variance is independent of t.
	for _, eps := range []float64{0.7, 1, 2, 5} {
		m, _ := NewHybrid(eps)
		v0 := m.Variance(0)
		for _, ti := range []float64{0.1, 0.5, 0.9, 1} {
			if !almostEqual(m.Variance(ti), v0, 1e-9*v0) {
				t.Errorf("eps=%v: Var(%v)=%v != Var(0)=%v", eps, ti, m.Variance(ti), v0)
			}
		}
	}
}

func TestHybridWorstCaseMatchesEq8(t *testing.T) {
	star := mathx.EpsStar()
	for _, eps := range []float64{0.3, star, 0.8, 1.29, 2, 4, 8} {
		m, _ := NewHybrid(eps)
		var want float64
		if eps > star {
			e2 := math.Exp(eps / 2)
			e1 := math.Exp(eps)
			want = (e2+3)/(3*e2*(e2-1)) + (e1+1)*(e1+1)/(e2*(e1-1)*(e1-1))
		} else {
			e1 := math.Exp(eps)
			b := (e1 + 1) / (e1 - 1)
			want = b * b
		}
		if !almostEqual(m.WorstCaseVariance(), want, 1e-9*want) {
			t.Errorf("eps=%v: worst case %v, want Eq.8 value %v", eps, m.WorstCaseVariance(), want)
		}
	}
}

func TestHybridCorollary1Dominance(t *testing.T) {
	// Corollary 1: for eps > eps*, HM's worst case is strictly below both
	// PM's and Duchi's; at or below eps*, it equals Duchi's and is below
	// PM's.
	star := mathx.EpsStar()
	for eps := 0.05; eps <= 8; eps += 0.05 {
		hm, _ := NewHybrid(eps)
		pm, _ := NewPiecewise(eps)
		du, _ := duchi.NewOneDim(eps)
		h, p, d := hm.WorstCaseVariance(), pm.WorstCaseVariance(), du.WorstCaseVariance()
		if eps > star {
			if h >= p || h >= d {
				t.Errorf("eps=%v: HM %v not below PM %v and Duchi %v", eps, h, p, d)
			}
		} else {
			if !almostEqual(h, d, 1e-9*d) || h >= p {
				t.Errorf("eps=%v: HM %v should equal Duchi %v and be below PM %v", eps, h, d, p)
			}
		}
	}
}

func TestHybridOptimalAlphaMinimizesWorstCase(t *testing.T) {
	// Lemma 3: sweeping alpha over a grid should not find a mixing
	// coefficient with a smaller worst-case variance than Eq. 7's.
	for _, eps := range []float64{0.3, 0.61, 1, 2, 5} {
		opt, _ := NewHybrid(eps)
		best := opt.WorstCaseVariance()
		for a := 0.0; a <= 1.0001; a += 0.01 {
			m, err := NewHybridAlpha(eps, math.Min(a, 1))
			if err != nil {
				t.Fatal(err)
			}
			if m.WorstCaseVariance() < best-1e-9 {
				t.Errorf("eps=%v: alpha=%v beats optimal (%v < %v)", eps, a, m.WorstCaseVariance(), best)
			}
		}
	}
}

func TestHybridSupportBound(t *testing.T) {
	m, _ := NewHybrid(1)
	pm, _ := NewPiecewise(1)
	du, _ := duchi.NewOneDim(1)
	want := math.Max(pm.SupportBound(), du.Bound())
	if m.SupportBound() != want {
		t.Errorf("SupportBound = %v, want %v", m.SupportBound(), want)
	}
	r := rng.New(12)
	for i := 0; i < 20000; i++ {
		if x := m.Perturb(0.2, r); math.Abs(x) > want+1e-12 {
			t.Fatalf("output %v beyond support bound %v", x, want)
		}
	}
}

func TestHybridAlphaZeroIsDuchi(t *testing.T) {
	// With alpha = 0 the hybrid must behave exactly like Duchi's
	// mechanism on the same PRNG stream.
	m, _ := NewHybridAlpha(1, 0)
	du, _ := duchi.NewOneDim(1)
	for seed := uint64(0); seed < 20; seed++ {
		r1, r2 := rng.New(seed), rng.New(seed)
		// Consume the alpha coin from r1's stream first.
		_ = rng.Bernoulli(r1, 0)
		got := m.Perturb(0.4, rng.New(seed))
		want := du.Perturb(0.4, rng.New(seed))
		_ = r1
		_ = r2
		// Identical streams: the first Bernoulli in Perturb uses the
		// same draw. alpha=0 means the coin is never true, but it does
		// not consume a draw (Bernoulli(p<=0) short-circuits), so the
		// sequences align exactly.
		if got != want {
			t.Fatalf("seed %d: hybrid(alpha=0) %v != duchi %v", seed, got, want)
		}
	}
}
