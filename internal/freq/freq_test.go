package freq

import (
	"math"
	"testing"
	"testing/quick"

	"ldp/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func oracles(t *testing.T, eps float64, k int) []Oracle {
	t.Helper()
	oue, err := NewOUE(eps, k)
	if err != nil {
		t.Fatal(err)
	}
	sue, err := NewSUE(eps, k)
	if err != nil {
		t.Fatal(err)
	}
	grr, err := NewGRR(eps, k)
	if err != nil {
		t.Fatal(err)
	}
	return []Oracle{oue, sue, grr}
}

func TestConstructorsValidate(t *testing.T) {
	if _, err := NewOUE(0, 4); err == nil {
		t.Error("OUE: want error for eps=0")
	}
	if _, err := NewOUE(1, 1); err == nil {
		t.Error("OUE: want error for k=1")
	}
	if _, err := NewSUE(-1, 4); err == nil {
		t.Error("SUE: want error for eps<0")
	}
	if _, err := NewSUE(1, 0); err == nil {
		t.Error("SUE: want error for k=0")
	}
	if _, err := NewGRR(math.NaN(), 4); err == nil {
		t.Error("GRR: want error for NaN eps")
	}
	if _, err := NewGRR(1, 1); err == nil {
		t.Error("GRR: want error for k=1")
	}
}

func TestBitset(t *testing.T) {
	b := NewBitset(130)
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
		if !b.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if b.Count() != 4 {
		t.Errorf("Count = %d, want 4", b.Count())
	}
	if b.Get(1) || b.Get(128) {
		t.Error("unexpected bit set")
	}
	c := b.Clone()
	c.Set(1)
	if b.Get(1) {
		t.Error("Clone aliases the original")
	}
}

func TestSupportProbsSeparation(t *testing.T) {
	// All oracles need p > q for the estimator to be well-defined.
	for _, o := range oracles(t, 1, 8) {
		p, q := o.SupportProbs()
		if p <= q {
			t.Errorf("%s: p=%v <= q=%v", o.Name(), p, q)
		}
	}
}

func TestGRRSupportProbs(t *testing.T) {
	g, _ := NewGRR(math.Log(3), 4) // e^eps = 3
	p, q := g.SupportProbs()
	if !almostEqual(p, 0.5, 1e-12) { // 3/(3+3)
		t.Errorf("p = %v, want 0.5", p)
	}
	if !almostEqual(q, 1.0/6, 1e-12) {
		t.Errorf("q = %v, want 1/6", q)
	}
}

func TestOUEBitProbabilities(t *testing.T) {
	o, _ := NewOUE(1, 4)
	r := rng.New(1)
	const n = 200000
	ones := make([]int, 4)
	for i := 0; i < n; i++ {
		resp := o.Perturb(2, r)
		for v := 0; v < 4; v++ {
			if resp.Bits.Get(v) {
				ones[v]++
			}
		}
	}
	p, q := o.SupportProbs()
	for v := 0; v < 4; v++ {
		want := q
		if v == 2 {
			want = p
		}
		got := float64(ones[v]) / n
		if math.Abs(got-want) > 5*math.Sqrt(want*(1-want)/n) {
			t.Errorf("bit %d rate = %v, want %v", v, got, want)
		}
	}
}

func TestEstimatorUnbiasedAllOracles(t *testing.T) {
	// Population with known frequencies; every oracle's debiased
	// estimates must match within sampling noise.
	truth := []float64{0.5, 0.3, 0.15, 0.05}
	const n = 150000
	for _, o := range oracles(t, 1.5, len(truth)) {
		r := rng.New(42)
		est := NewEstimator(o)
		for i := 0; i < n; i++ {
			v := pickValue(truth, r)
			est.Add(o.Perturb(v, r))
		}
		got := est.Estimates()
		for v, want := range truth {
			tol := 6 * math.Sqrt(TheoreticalVariance(o, want, n))
			if math.Abs(got[v]-want) > tol {
				t.Errorf("%s value %d: est %v, want %v +- %v", o.Name(), v, got[v], want, tol)
			}
		}
	}
}

func pickValue(freqs []float64, r *rng.Rand) int {
	u := r.Float64()
	acc := 0.0
	for v, f := range freqs {
		acc += f
		if u < acc {
			return v
		}
	}
	return len(freqs) - 1
}

func TestEstimatorEmpiricalVarianceMatchesTheory(t *testing.T) {
	// Repeated estimation of a single value's frequency: the spread of the
	// estimates should match TheoreticalVariance.
	o, _ := NewOUE(1, 4)
	r := rng.New(7)
	truth := []float64{0.4, 0.3, 0.2, 0.1}
	const n, reps = 2000, 300
	sumSq := 0.0
	for rep := 0; rep < reps; rep++ {
		est := NewEstimator(o)
		for i := 0; i < n; i++ {
			est.Add(o.Perturb(pickValue(truth, r), r))
		}
		d := est.Estimates()[0] - truth[0]
		sumSq += d * d
	}
	got := sumSq / reps
	want := TheoreticalVariance(o, truth[0], n)
	if math.Abs(got-want) > 0.25*want {
		t.Errorf("empirical MSE %v, want ~%v", got, want)
	}
}

func TestOUEBeatsSUEAndGRRLargeDomain(t *testing.T) {
	// OUE's worst-case variance should beat SUE always, and GRR once the
	// domain is large relative to e^eps.
	const eps, k = 1.0, 32
	oue, _ := NewOUE(eps, k)
	sue, _ := NewSUE(eps, k)
	grr, _ := NewGRR(eps, k)
	vOUE := TheoreticalVariance(oue, 0, 1000)
	vSUE := TheoreticalVariance(sue, 0, 1000)
	vGRR := TheoreticalVariance(grr, 0, 1000)
	if vOUE >= vSUE {
		t.Errorf("OUE var %v >= SUE var %v", vOUE, vSUE)
	}
	if vOUE >= vGRR {
		t.Errorf("OUE var %v >= GRR var %v at k=%d", vOUE, vGRR, k)
	}
}

func TestGRRBeatsOUESmallDomain(t *testing.T) {
	// For k < 3e^eps + 2 (roughly), GRR is the better oracle; at k=2,
	// eps=2 this clearly holds.
	oue, _ := NewOUE(2, 2)
	grr, _ := NewGRR(2, 2)
	if TheoreticalVariance(grr, 0, 1000) >= TheoreticalVariance(oue, 0, 1000) {
		t.Error("GRR should beat OUE on a binary domain at eps=2")
	}
}

func TestPerturbClampsOutOfRange(t *testing.T) {
	for _, o := range oracles(t, 1, 4) {
		r := rng.New(3)
		// Must not panic, and must produce valid responses.
		for _, v := range []int{-5, 4, 100} {
			resp := o.Perturb(v, r)
			if resp.Bits == nil && (resp.Value < 0 || resp.Value >= 4) {
				t.Errorf("%s: out-of-range response value %d", o.Name(), resp.Value)
			}
		}
	}
}

func TestEstimatorMerge(t *testing.T) {
	o, _ := NewOUE(1, 4)
	r := rng.New(8)
	whole := NewEstimator(o)
	a, b := NewEstimator(o), NewEstimator(o)
	for i := 0; i < 2000; i++ {
		resp := o.Perturb(i%4, r)
		whole.Add(resp)
		if i%2 == 0 {
			a.Add(resp)
		} else {
			b.Add(resp)
		}
	}
	a.Merge(b)
	if a.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), whole.N())
	}
	ea, ew := a.Estimates(), whole.Estimates()
	for v := range ea {
		if !almostEqual(ea[v], ew[v], 1e-12) {
			t.Errorf("value %d: merged %v, whole %v", v, ea[v], ew[v])
		}
	}
}

func TestEstimatorEmpty(t *testing.T) {
	o, _ := NewOUE(1, 3)
	for _, v := range NewEstimator(o).Estimates() {
		if v != 0 {
			t.Error("empty estimator should return zeros")
		}
	}
}

func TestGRRLDPRatioExact(t *testing.T) {
	// GRR's output distribution is discrete; max ratio over inputs is
	// p/q' where q' is the off-value probability = e^eps exactly.
	g, _ := NewGRR(1.3, 7)
	p, _ := g.SupportProbs()
	off := (1 - p) / 6
	if ratio := p / off; !almostEqual(ratio, math.Exp(1.3), 1e-9) {
		t.Errorf("ratio = %v, want e^1.3 = %v", ratio, math.Exp(1.3))
	}
}

func TestUnaryEncodingLDPRatio(t *testing.T) {
	// For unary encodings the likelihood ratio of a full response vector
	// factorizes; the worst case over two inputs v != v' is
	// (p(1-q))/(q(1-p)) which must be <= e^eps.
	for _, eps := range []float64{0.5, 1, 2} {
		oue, _ := NewOUE(eps, 4)
		sue, _ := NewSUE(eps, 4)
		for _, o := range []Oracle{oue, sue} {
			p, q := o.SupportProbs()
			ratio := (p * (1 - q)) / (q * (1 - p))
			if ratio > math.Exp(eps)+1e-9 {
				t.Errorf("%s eps=%v: ratio %v > e^eps %v", o.Name(), eps, ratio, math.Exp(eps))
			}
		}
	}
}

func TestEstimatesSumNearOne(t *testing.T) {
	// Frequencies over the full domain should sum to ~1 after debiasing.
	o, _ := NewGRR(2, 5)
	r := rng.New(9)
	truth := []float64{0.2, 0.2, 0.2, 0.2, 0.2}
	est := NewEstimator(o)
	for i := 0; i < 100000; i++ {
		est.Add(o.Perturb(pickValue(truth, r), r))
	}
	sum := 0.0
	for _, v := range est.Estimates() {
		sum += v
	}
	if math.Abs(sum-1) > 0.02 {
		t.Errorf("estimates sum = %v, want ~1", sum)
	}
}

// TestDebiasViewMatchesEstimates pins the lazy debiasing view against
// Estimator.Estimates bit-for-bit: the snapshot query path debiases
// through views, so any drift between the two would silently change
// query answers.
func TestDebiasViewMatchesEstimates(t *testing.T) {
	for _, mk := range []func() Oracle{
		func() Oracle { o, _ := NewOUE(1, 10); return o },
		func() Oracle { o, _ := NewSUE(1, 10); return o },
		func() Oracle { o, _ := NewGRR(1, 10); return o },
	} {
		o := mk()
		est := NewEstimator(o)
		r := rng.New(21)
		for i := 0; i < 5000; i++ {
			est.Add(o.Perturb(r.IntN(10), r))
		}
		want := est.Estimates()
		view := est.CountsView()
		if view.N() != est.N() || view.Len() != 10 {
			t.Fatalf("%s: view shape N=%d len=%d", o.Name(), view.N(), view.Len())
		}
		for v := range want {
			if got := view.Estimate(v); got != want[v] {
				t.Errorf("%s value %d: view %v != estimates %v", o.Name(), v, got, want[v])
			}
		}
		appended := view.AppendEstimates(make([]float64, 0, 10))
		for v := range want {
			if appended[v] != want[v] {
				t.Errorf("%s value %d: appended %v != estimates %v", o.Name(), v, appended[v], want[v])
			}
		}
		// A detached view over copied counts answers identically.
		detached := NewDebiasView(o, est.Counts(), est.N())
		for v := range want {
			if detached.Estimate(v) != want[v] {
				t.Errorf("%s value %d: detached view drifted", o.Name(), v)
			}
		}
		if c := view.Count(3); c != est.Counts()[3] {
			t.Errorf("%s: Count(3) = %v, want %v", o.Name(), c, est.Counts()[3])
		}
	}

	// Empty views estimate zero everywhere, like an empty estimator.
	o, _ := NewOUE(1, 4)
	empty := NewEstimator(o).CountsView()
	for v := 0; v < 4; v++ {
		if empty.Estimate(v) != 0 {
			t.Errorf("empty view estimate(%d) = %v, want 0", v, empty.Estimate(v))
		}
	}
}

func TestOracleDeterministicGivenSeed(t *testing.T) {
	f := func(seed uint64, v uint8) bool {
		o, _ := NewOUE(1, 8)
		a := o.Perturb(int(v%8), rng.New(seed))
		b := o.Perturb(int(v%8), rng.New(seed))
		for i := range a.Bits {
			if a.Bits[i] != b.Bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
