package duchi

import (
	"math"
	"testing"
	"testing/quick"

	"ldp/internal/mech"
	"ldp/internal/rng"
	"ldp/internal/stattest"
)

func TestNewOneDimInvalidEpsilon(t *testing.T) {
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewOneDim(eps); err == nil {
			t.Errorf("NewOneDim(%v): expected error", eps)
		}
	}
}

func TestOneDimOutputsTwoPoints(t *testing.T) {
	m, err := NewOneDim(1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	want := m.Bound()
	for i := 0; i < 1000; i++ {
		got := m.Perturb(0.3, r)
		if math.Abs(got) != want {
			t.Fatalf("output %v not in {-%v, %v}", got, want, want)
		}
	}
}

func TestOneDimBoundValue(t *testing.T) {
	// Bound = (e^eps+1)/(e^eps-1).
	m, _ := NewOneDim(math.Log(3)) // e^eps = 3 => bound = 2
	if !almostEqual(m.Bound(), 2, 1e-12) {
		t.Errorf("Bound = %v, want 2", m.Bound())
	}
}

func TestOneDimUnbiased(t *testing.T) {
	r := rng.New(2)
	const n = 400000
	for _, eps := range []float64{0.5, 1, 4} {
		m, _ := NewOneDim(eps)
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

func TestOneDimEmpiricalVarianceMatchesEq4(t *testing.T) {
	r := rng.New(3)
	const n = 400000
	m, _ := NewOneDim(2)
	for _, ti := range []float64{0, 0.5, 1} {
		var acc stattest.Running
		for i := 0; i < n; i++ {
			acc.Add(m.Perturb(ti, r))
		}
		want := m.Variance(ti)
		if math.Abs(acc.Variance()-want) > 0.03*m.WorstCaseVariance() {
			t.Errorf("t=%v: empirical var %v, want %v", ti, acc.Variance(), want)
		}
	}
}

func TestOneDimExactLDPRatio(t *testing.T) {
	// The two-point output distribution makes the LDP check analytic:
	// the worst-case ratio of output probabilities over input pairs is
	// exactly e^eps, attained at t=1 vs t=-1.
	for _, eps := range []float64{0.3, 1, 3} {
		m, _ := NewOneDim(eps)
		pPlus := func(t float64) float64 { return m.slope*t + 0.5 }
		worst := 0.0
		for _, a := range []float64{-1, -0.5, 0, 0.5, 1} {
			for _, b := range []float64{-1, -0.5, 0, 0.5, 1} {
				r1 := pPlus(a) / pPlus(b)
				r2 := (1 - pPlus(a)) / (1 - pPlus(b))
				worst = math.Max(worst, math.Max(r1, r2))
			}
		}
		if worst > math.Exp(eps)+1e-9 {
			t.Errorf("eps=%v: worst ratio %v exceeds e^eps=%v", eps, worst, math.Exp(eps))
		}
		if math.Abs(worst-math.Exp(eps)) > 1e-9 {
			t.Errorf("eps=%v: worst ratio %v, want exactly e^eps=%v", eps, worst, math.Exp(eps))
		}
	}
}

func TestOneDimClampsInput(t *testing.T) {
	m, _ := NewOneDim(1)
	r := rng.New(4)
	// t=5 clamps to 1: P(+bound) = slope + 0.5.
	const n = 200000
	plus := 0
	for i := 0; i < n; i++ {
		if m.Perturb(5, r) > 0 {
			plus++
		}
	}
	want := m.slope + 0.5
	got := float64(plus) / n
	if math.Abs(got-want) > 5*math.Sqrt(want*(1-want)/n) {
		t.Errorf("P(+) = %v, want %v (clamped input)", got, want)
	}
}

func TestCdSmallValues(t *testing.T) {
	cases := []struct {
		d    int
		want float64
	}{
		{1, 1}, {2, 3}, {3, 2}, {4, 11.0 / 3}, {5, 8.0 / 3},
	}
	for _, c := range cases {
		if got := Cd(c.d); !almostEqual(got, c.want, 1e-9*c.want) {
			t.Errorf("Cd(%d) = %v, want %v", c.d, got, c.want)
		}
	}
	if !math.IsNaN(Cd(0)) {
		t.Error("Cd(0) should be NaN")
	}
}

func TestCdGrowsLikeSqrtD(t *testing.T) {
	// By Stirling, C_d ~ sqrt(pi d / 2)/ ... grows O(sqrt(d)); make sure
	// the log-space computation stays finite and monotone-ish at large d.
	prev := 0.0
	for _, d := range []int{11, 31, 51, 71, 91, 301, 1001} {
		got := Cd(d)
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("Cd(%d) not finite: %v", d, got)
		}
		if got < prev {
			t.Errorf("Cd(%d) = %v < Cd at previous odd d = %v", d, got, prev)
		}
		prev = got
	}
}

func TestBMatchesOneDim(t *testing.T) {
	for _, eps := range []float64{0.5, 1, 2} {
		m, _ := NewOneDim(eps)
		if got := B(eps, 1); !almostEqual(got, m.Bound(), 1e-12) {
			t.Errorf("B(%v,1) = %v, want %v", eps, got, m.Bound())
		}
	}
}

func TestNewMultiValidation(t *testing.T) {
	if _, err := NewMulti(0, 4); err == nil {
		t.Error("expected error for eps=0")
	}
	if _, err := NewMulti(1, 0); err == nil {
		t.Error("expected error for d=0")
	}
}

func TestMultiOutputsCorners(t *testing.T) {
	m, err := NewMulti(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	in := []float64{0.1, -0.9, 0.5, 0, 1}
	for i := 0; i < 500; i++ {
		out := m.PerturbVector(in, r)
		if len(out) != 5 {
			t.Fatalf("len(out) = %d", len(out))
		}
		for _, v := range out {
			if math.Abs(v) != m.Bound() {
				t.Fatalf("coordinate %v not at ±B = ±%v", v, m.Bound())
			}
		}
	}
}

func TestMultiPanicsOnWrongLength(t *testing.T) {
	m, _ := NewMulti(1, 3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong tuple length")
		}
	}()
	m.PerturbVector([]float64{0, 0}, rng.New(6))
}

func TestMultiUnbiasedOddD(t *testing.T) {
	testMultiUnbiased(t, 3, 2.0, []float64{0.8, -0.3, 0.1})
}

func TestMultiUnbiasedEvenD(t *testing.T) {
	testMultiUnbiased(t, 4, 1.0, []float64{0.8, -0.3, 0.1, -1})
}

func testMultiUnbiased(t *testing.T, d int, eps float64, in []float64) {
	t.Helper()
	m, err := NewMulti(eps, d)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	const n = 300000
	sums := make([]float64, d)
	for i := 0; i < n; i++ {
		out := m.PerturbVector(in, r)
		for j, v := range out {
			sums[j] += v
		}
	}
	for j := range sums {
		got := sums[j] / n
		tol := 5 * math.Sqrt(m.WorstCaseCoordinateVariance()/n)
		if math.Abs(got-in[j]) > tol {
			t.Errorf("d=%d coord %d: mean %v, want %v +- %v", d, j, got, in[j], tol)
		}
	}
}

func TestMultiCoordinateVarianceMatchesEq13(t *testing.T) {
	m, _ := NewMulti(2, 4)
	r := rng.New(8)
	in := []float64{0, 0.5, -0.7, 1}
	const n = 300000
	accs := make([]stattest.Running, 4)
	for i := 0; i < n; i++ {
		out := m.PerturbVector(in, r)
		for j, v := range out {
			accs[j].Add(v)
		}
	}
	for j := range accs {
		want := m.CoordinateVariance(in[j])
		got := accs[j].Variance()
		if math.Abs(got-want) > 0.03*m.WorstCaseCoordinateVariance() {
			t.Errorf("coord %d: var %v, want %v", j, got, want)
		}
	}
}

func TestMultiUnbiasedProperty(t *testing.T) {
	// Cheap property check over random small configurations: the mean of
	// many perturbations tracks the input within a loose band.
	f := func(seed uint64, dRaw uint8, tRaw int8) bool {
		d := int(dRaw%6) + 1
		in := make([]float64, d)
		in[0] = float64(tRaw) / 128
		m, err := NewMulti(1.5, d)
		if err != nil {
			return false
		}
		r := rng.New(seed)
		const n = 60000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += m.PerturbVector(in, r)[0]
		}
		tol := 6 * math.Sqrt(m.WorstCaseCoordinateVariance()/n)
		return math.Abs(sum/n-in[0]) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestComposedWithOneDim(t *testing.T) {
	// The composition wrapper from package mech should run OneDim at eps/d
	// per coordinate and remain unbiased.
	factory := func(eps float64) (mech.Mechanism, error) { return NewOneDim(eps) }
	c, err := mech.NewComposed(factory, 2.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Inner().Epsilon() != 0.5 {
		t.Errorf("inner epsilon = %v, want 0.5", c.Inner().Epsilon())
	}
	r := rng.New(9)
	in := []float64{0.5, -0.5, 0, 1}
	const n = 200000
	sums := make([]float64, 4)
	for i := 0; i < n; i++ {
		for j, v := range c.PerturbVector(in, r) {
			sums[j] += v
		}
	}
	for j := range sums {
		got := sums[j] / n
		tol := 5 * math.Sqrt(c.CoordinateVariance(in[j])/n)
		if math.Abs(got-in[j]) > tol {
			t.Errorf("coord %d: mean %v, want %v +- %v", j, got, in[j], tol)
		}
	}
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
