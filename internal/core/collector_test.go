package core

import (
	"math"
	"testing"
	"testing/quick"

	"ldp/internal/mech"
	"ldp/internal/rng"
	"ldp/internal/stattest"
)

func pmFactory(eps float64) (mech.Mechanism, error) { return NewPiecewise(eps) }
func hmFactory(eps float64) (mech.Mechanism, error) { return NewHybrid(eps) }

func TestKForRule(t *testing.T) {
	cases := []struct {
		eps  float64
		d    int
		want int
	}{
		{0.5, 10, 1},
		{2.4, 10, 1},
		{2.5, 10, 1},
		{2.6, 10, 1},
		{5, 10, 2},
		{7.5, 10, 3},
		{7.6, 10, 3},
		{10, 10, 4},
		{100, 10, 10}, // capped at d
		{100, 3, 3},
		{0.1, 1, 1},
		{1, 0, 1}, // max(1, ...) applies last
	}
	for _, c := range cases {
		if got := KFor(c.eps, c.d); got != c.want {
			t.Errorf("KFor(%v, %d) = %d, want %d", c.eps, c.d, got, c.want)
		}
	}
}

func TestKForMonotoneProperty(t *testing.T) {
	f := func(e1, e2 uint8, dRaw uint8) bool {
		d := int(dRaw%20) + 1
		a, b := float64(e1)/10, float64(e2)/10
		if a == 0 {
			a = 0.1
		}
		if b == 0 {
			b = 0.1
		}
		if a > b {
			a, b = b, a
		}
		return KFor(a, d) <= KFor(b, d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNumericCollectorValidation(t *testing.T) {
	if _, err := NewNumericCollector(pmFactory, 0, 4); err == nil {
		t.Error("want error for eps=0")
	}
	if _, err := NewNumericCollector(pmFactory, 1, 0); err == nil {
		t.Error("want error for d=0")
	}
	if _, err := NewNumericCollectorK(pmFactory, 1, 4, 5); err == nil {
		t.Error("want error for k>d")
	}
	if _, err := NewNumericCollectorK(pmFactory, 1, 4, 0); err == nil {
		t.Error("want error for k=0")
	}
}

// TestSamplerCategoricalOnly: without a numeric mechanism the sampler
// still fixes k, the budget per sampled attribute and the sample itself.
func TestSamplerCategoricalOnly(t *testing.T) {
	s, err := NewSampler(nil, 8, 10, KFor(8, 10))
	if err != nil {
		t.Fatal(err)
	}
	if s.Inner() != nil || s.Dim() != 10 || s.K() != 3 || s.Epsilon() != 8 || s.Budget() != 8.0/3 {
		t.Fatalf("sampler: inner %v, d %d, k %d, eps %v, budget %v", s.Inner(), s.Dim(), s.K(), s.Epsilon(), s.Budget())
	}
	seen := map[int]bool{}
	for _, j := range s.Sample(rng.New(3)) {
		if j < 0 || j >= 10 || seen[j] {
			t.Fatalf("sampled position %d out of range or repeated", j)
		}
		seen[j] = true
	}
	if len(seen) != 3 {
		t.Fatalf("sampled %d positions, want 3", len(seen))
	}
}

func TestNumericCollectorSparsity(t *testing.T) {
	c, err := NewNumericCollector(pmFactory, 6, 8) // k = 2
	if err != nil {
		t.Fatal(err)
	}
	if c.K() != 2 {
		t.Fatalf("K = %d, want 2", c.K())
	}
	r := rng.New(20)
	in := make([]float64, 8)
	for i := range in {
		in[i] = 0.5
	}
	for trial := 0; trial < 200; trial++ {
		out := c.PerturbVector(in, r)
		nonzero := 0
		for _, v := range out {
			if v != 0 {
				nonzero++
			}
		}
		// PM output is continuous so sampled coordinates are almost
		// surely nonzero.
		if nonzero != 2 {
			t.Fatalf("nonzero coordinates = %d, want 2", nonzero)
		}
	}
}

func TestNumericCollectorBudgetSplit(t *testing.T) {
	c, _ := NewNumericCollector(pmFactory, 6, 8)
	if !almostEqual(c.Inner().Epsilon(), 3, 1e-12) {
		t.Errorf("inner budget = %v, want 3 (eps/k)", c.Inner().Epsilon())
	}
}

func TestNumericCollectorUnbiased(t *testing.T) {
	for _, factory := range []mech.Factory{pmFactory, hmFactory} {
		c, err := NewNumericCollector(factory, 4, 5) // k = 1
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(21)
		in := []float64{0.8, -0.3, 0.1, 1, -1}
		const n = 300000
		sums := make([]float64, 5)
		for i := 0; i < n; i++ {
			for j, v := range c.PerturbVector(in, r) {
				sums[j] += v
			}
		}
		for j := range sums {
			got := sums[j] / n
			tol := 5 * math.Sqrt(c.CoordinateVariance(in[j])/n)
			if math.Abs(got-in[j]) > tol {
				t.Errorf("%s coord %d: mean %v, want %v +- %v", c.Name(), j, got, in[j], tol)
			}
		}
	}
}

func TestNumericCollectorVarianceMatchesEq14(t *testing.T) {
	// Empirical per-coordinate variance must match the closed form, which
	// for a PM inner mechanism is exactly Eq. 14.
	c, _ := NewNumericCollector(pmFactory, 4, 5) // k=1
	r := rng.New(22)
	in := []float64{0, 0.5, -0.7, 1, 0.2}
	const n = 300000
	accs := make([]stattest.Running, 5)
	for i := 0; i < n; i++ {
		for j, v := range c.PerturbVector(in, r) {
			accs[j].Add(v)
		}
	}
	for j := range accs {
		want := c.CoordinateVariance(in[j])
		if math.Abs(accs[j].Variance()-want) > 0.04*c.WorstCaseCoordinateVariance() {
			t.Errorf("coord %d: var %v, want %v", j, accs[j].Variance(), want)
		}
	}
}

func TestEq14ClosedForm(t *testing.T) {
	// CoordinateVariance with PM inner == the paper's Eq. 14 written out.
	const eps, d = 4.0, 5
	c, _ := NewNumericCollector(pmFactory, eps, d)
	k := float64(c.K())
	e := math.Exp(eps / (2 * k))
	for _, ti := range []float64{0, 0.4, 1} {
		want := float64(d)*(e+3)/(3*k*(e-1)*(e-1)) +
			(float64(d)*e/(k*(e-1))-1)*ti*ti
		if got := c.CoordinateVariance(ti); !almostEqual(got, want, 1e-9*want) {
			t.Errorf("t=%v: CoordinateVariance = %v, want Eq.14 = %v", ti, got, want)
		}
	}
}

// TestPerturbVectorInto checks the append-style buffer-reuse contract:
// identical output to PerturbVector for the same PRNG stream, capacity
// reuse when the buffer is large enough, and stale-value clearing.
func TestPerturbVectorInto(t *testing.T) {
	const d = 12
	c, err := NewNumericCollector(pmFactory, 1, d)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, d)
	for j := range in {
		in[j] = math.Tanh(float64(j) - 5)
	}
	want := c.PerturbVector(in, rng.New(42))
	got := c.PerturbVectorInto(nil, in, rng.New(42))
	for j := range want {
		if want[j] != got[j] {
			t.Fatalf("coordinate %d: Into %v != PerturbVector %v", j, got[j], want[j])
		}
	}

	// A poisoned reused buffer must come back fully overwritten, in the
	// same storage.
	buf := make([]float64, d)
	for j := range buf {
		buf[j] = 99
	}
	out := c.PerturbVectorInto(buf, in, rng.New(42))
	if &out[0] != &buf[0] {
		t.Error("Into did not reuse the buffer's storage")
	}
	for j := range want {
		if out[j] != want[j] {
			t.Fatalf("reused buffer coordinate %d: %v != %v (stale value survived?)", j, out[j], want[j])
		}
	}

	// A too-small buffer grows; a longer buffer is truncated to Dim.
	if got := c.PerturbVectorInto(make([]float64, 0, 2), in, rng.New(7)); len(got) != d {
		t.Fatalf("short buffer: len %d, want %d", len(got), d)
	}
	if got := c.PerturbVectorInto(make([]float64, 3*d), in, rng.New(7)); len(got) != d {
		t.Fatalf("long buffer: len %d, want %d", len(got), d)
	}

	// The optional-interface dispatcher finds the fast path.
	if got := mech.PerturbInto(c, buf, in, rng.New(42)); &got[0] != &buf[0] {
		t.Error("mech.PerturbInto did not dispatch to PerturbVectorInto")
	}
}

func TestNumericCollectorPanicsOnWrongLength(t *testing.T) {
	c, _ := NewNumericCollector(pmFactory, 1, 3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.PerturbVector([]float64{1, 2}, rng.New(23))
}

func TestNumericCollectorKAblationSanity(t *testing.T) {
	// The Eq. 12 k should be at least as good (in worst-case variance) as
	// the extreme alternatives k=1 and k=d when they differ from it.
	const eps, d = 7.5, 10 // KFor = 3
	best, _ := NewNumericCollector(pmFactory, eps, d)
	for _, k := range []int{1, d} {
		alt, err := NewNumericCollectorK(pmFactory, eps, d, k)
		if err != nil {
			t.Fatal(err)
		}
		if alt.WorstCaseCoordinateVariance() < best.WorstCaseCoordinateVariance()-1e-9 {
			t.Errorf("k=%d beats Eq.12's k=%d: %v < %v", k, best.K(),
				alt.WorstCaseCoordinateVariance(), best.WorstCaseCoordinateVariance())
		}
	}
}
