package erm

import (
	"math"
	"testing"

	"ldp/internal/core"
	"ldp/internal/dataset"
	"ldp/internal/mech"
	"ldp/internal/rng"
)

func pmFactory(eps float64) (mech.Mechanism, error) { return core.NewPiecewise(eps) }

// numericalGradient approximates the gradient of Loss by central finite
// differences.
func numericalGradient(task Task, beta, x []float64, y, lambda float64) []float64 {
	const h = 1e-6
	out := make([]float64, len(beta))
	for i := range beta {
		bp := append([]float64(nil), beta...)
		bm := append([]float64(nil), beta...)
		bp[i] += h
		bm[i] -= h
		out[i] = (Loss(task, bp, x, y, lambda) - Loss(task, bm, x, y, lambda)) / (2 * h)
	}
	return out
}

func TestGradientMatchesFiniteDifferences(t *testing.T) {
	r := rng.New(1)
	for _, task := range []Task{LinearRegression, LogisticRegression, SVM} {
		for trial := 0; trial < 20; trial++ {
			d := 4
			beta := make([]float64, d)
			x := make([]float64, d)
			for i := 0; i < d; i++ {
				beta[i] = rng.Uniform(r, -1, 1)
				x[i] = rng.Uniform(r, -1, 1)
			}
			y := 1.0
			if task == LinearRegression {
				y = rng.Uniform(r, -1, 1)
			} else if rng.Bernoulli(r, 0.5) {
				y = -1
			}
			// Hinge loss is non-differentiable at margin 1; skip trials
			// too close to the kink.
			if task == SVM && math.Abs(1-y*Dot(x, beta)) < 1e-3 {
				continue
			}
			got := Gradient(task, beta, x, y, 1e-2, make([]float64, d))
			want := numericalGradient(task, beta, x, y, 1e-2)
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-4 {
					t.Errorf("%v trial %d coord %d: grad %v, numeric %v", task, trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestLossStability(t *testing.T) {
	// Logistic loss must not overflow for extreme margins.
	beta := []float64{100}
	if l := Loss(LogisticRegression, beta, []float64{1}, -1, 0); math.IsInf(l, 0) || math.IsNaN(l) {
		t.Errorf("loss overflow: %v", l)
	}
	if l := Loss(LogisticRegression, beta, []float64{1}, 1, 0); l < 0 || l > 1e-10 {
		t.Errorf("loss at huge positive margin should be ~0, got %v", l)
	}
}

func TestTaskString(t *testing.T) {
	if LinearRegression.String() != "linreg" || LogisticRegression.String() != "logreg" || SVM.String() != "svm" {
		t.Error("unexpected task names")
	}
	if LinearRegression.IsClassification() || !SVM.IsClassification() {
		t.Error("IsClassification wrong")
	}
}

// syntheticClassification builds a linearly separable-ish dataset with
// margin noise.
func syntheticClassification(n, d int, seed uint64) []dataset.ERMExample {
	w := make([]float64, d)
	for i := range w {
		w[i] = math.Pow(-1, float64(i)) * (0.5 + 0.5*float64(i%3))
	}
	out := make([]dataset.ERMExample, n)
	for i := range out {
		r := rng.NewStream(seed, uint64(i))
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Uniform(r, -1, 1)
		}
		y := 1.0
		if Dot(w, x)+0.1*r.NormFloat64() < 0 {
			y = -1
		}
		out[i] = dataset.ERMExample{X: x, YCls: y, YReg: mechClamp(Dot(w, x) / float64(d))}
	}
	return out
}

func mechClamp(v float64) float64 { return mech.Clamp1(v) }

func TestNonPrivateLogisticLearnsSeparableData(t *testing.T) {
	ex := syntheticClassification(20000, 6, 2)
	cfg := Config{Task: LogisticRegression, Lambda: 1e-4, Eta: 1, GroupSize: 50}
	beta, err := Train(cfg, ex[:16000], nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rate := MisclassificationRate(beta, ex[16000:]); rate > 0.12 {
		t.Errorf("non-private logistic misclassification = %v, want < 0.12", rate)
	}
}

func TestNonPrivateSVMLearnsSeparableData(t *testing.T) {
	ex := syntheticClassification(20000, 6, 4)
	cfg := Config{Task: SVM, Lambda: 1e-4, Eta: 0.5, GroupSize: 50}
	beta, err := Train(cfg, ex[:16000], nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rate := MisclassificationRate(beta, ex[16000:]); rate > 0.12 {
		t.Errorf("non-private SVM misclassification = %v, want < 0.12", rate)
	}
}

func TestNonPrivateLinearRegressionRecoversModel(t *testing.T) {
	// y = x'w with small noise; SGD should drive test MSE well below the
	// variance of y.
	const d = 5
	w := []float64{0.3, -0.2, 0.1, 0.25, -0.15}
	n := 30000
	ex := make([]dataset.ERMExample, n)
	varY := 0.0
	for i := range ex {
		r := rng.NewStream(8, uint64(i))
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Uniform(r, -1, 1)
		}
		y := Dot(w, x) + 0.02*r.NormFloat64()
		ex[i] = dataset.ERMExample{X: x, YReg: mechClamp(y), YCls: 1}
		varY += y * y
	}
	varY /= float64(n)
	cfg := Config{Task: LinearRegression, Lambda: 1e-4, Eta: 0.5, GroupSize: 30}
	beta, err := Train(cfg, ex[:24000], nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	mse := RegressionMSE(beta, ex[24000:])
	if mse > varY/5 {
		t.Errorf("MSE %v should be far below Var[y] %v", mse, varY)
	}
}

func TestLDPTrainingApproachesNonPrivateAtHighEps(t *testing.T) {
	ex := syntheticClassification(30000, 6, 10)
	cfg := Config{Task: LogisticRegression, Lambda: 1e-4, Eta: 1, GroupSize: 300}
	nonPriv, err := Train(cfg, ex[:24000], nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	pert, err := core.NewNumericCollector(pmFactory, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	priv, err := Train(cfg, ex[:24000], pert, 11)
	if err != nil {
		t.Fatal(err)
	}
	rNP := MisclassificationRate(nonPriv, ex[24000:])
	rP := MisclassificationRate(priv, ex[24000:])
	if rP > rNP+0.15 {
		t.Errorf("eps=8 LDP rate %v too far above non-private %v", rP, rNP)
	}
}

func TestTrainValidation(t *testing.T) {
	ex := syntheticClassification(100, 3, 12)
	if _, err := Train(Config{Task: SVM, Eta: 1, GroupSize: 10}, nil, nil, 1); err != ErrNoExamples {
		t.Errorf("want ErrNoExamples, got %v", err)
	}
	if _, err := Train(Config{Task: SVM, Eta: 0, GroupSize: 10}, ex, nil, 1); err == nil {
		t.Error("want error for eta=0")
	}
	if _, err := Train(Config{Task: SVM, Eta: 1, GroupSize: 0}, ex, nil, 1); err == nil {
		t.Error("want error for group size 0")
	}
	if _, err := Train(Config{Task: SVM, Eta: 1, GroupSize: 1000}, ex, nil, 1); err == nil {
		t.Error("want error for group larger than dataset")
	}
	if _, err := Train(Config{Task: SVM, Eta: 1, Lambda: -1, GroupSize: 10}, ex, nil, 1); err == nil {
		t.Error("want error for negative lambda")
	}
	pert, _ := core.NewNumericCollector(pmFactory, 1, 99)
	if _, err := Train(Config{Task: SVM, Eta: 1, GroupSize: 10}, ex, pert, 1); err == nil {
		t.Error("want error for dimension mismatch")
	}
}

func TestTrainDeterministic(t *testing.T) {
	ex := syntheticClassification(2000, 4, 13)
	cfg := Config{Task: LogisticRegression, Lambda: 1e-4, Eta: 1, GroupSize: 100}
	pert, _ := core.NewNumericCollector(pmFactory, 2, 4)
	a, err := Train(cfg, ex, pert, 77)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(cfg, ex, pert, 77)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("training must be deterministic for a fixed seed")
		}
	}
}

func TestDefaultGroupSize(t *testing.T) {
	if g := DefaultGroupSize(100000, 90, 0.5); g < 64 {
		t.Errorf("group size %d too small", g)
	}
	// Must leave at least 4 iterations.
	if g := DefaultGroupSize(1000, 90, 0.1); g > 250 {
		t.Errorf("group size %d exceeds n/4", g)
	}
	if g := DefaultGroupSize(100000, 4, 8); g != 64 {
		t.Errorf("floor group size = %d, want 64", g)
	}
	// d = 0 has k = 1 and no variance, so the size is the floor, not the
	// platform's conversion of a NaN.
	if g := DefaultGroupSize(1000, 0, 1); g != 64 {
		t.Errorf("d=0 group size = %d, want 64", g)
	}
}

func TestEvaluateSplits(t *testing.T) {
	ex := syntheticClassification(5000, 4, 14)
	cfg := Config{Task: LogisticRegression, Lambda: 1e-4, Eta: 1, GroupSize: 50}
	evals, err := EvaluateSplits(cfg, ex, nil, 3, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 3 {
		t.Fatalf("got %d evals, want 3", len(evals))
	}
	for _, e := range evals {
		if e.Misclassification < 0 || e.Misclassification > 0.5 {
			t.Errorf("misclassification %v out of plausible range", e.Misclassification)
		}
	}
	if _, err := EvaluateSplits(cfg, ex[:5], nil, 2, 1); err == nil {
		t.Error("want error for tiny dataset")
	}
}

func TestClippingBoundsPerturberInput(t *testing.T) {
	// With clipping on (default), the vector handed to the perturber must
	// be in [-1,1]^d. Use a probe perturber to verify.
	probe := &probePerturber{d: 3}
	ex := syntheticClassification(300, 3, 16)
	cfg := Config{Task: LinearRegression, Lambda: 0, Eta: 5, GroupSize: 10}
	if _, err := Train(cfg, ex, probe, 17); err != nil {
		t.Fatal(err)
	}
	if !probe.sawCalls {
		t.Fatal("probe never called")
	}
	if probe.sawOutOfRange {
		t.Error("clipped gradients escaped [-1,1]")
	}
}

type probePerturber struct {
	d             int
	sawCalls      bool
	sawOutOfRange bool
}

func (p *probePerturber) Name() string     { return "probe" }
func (p *probePerturber) Epsilon() float64 { return 1 }
func (p *probePerturber) Dim() int         { return p.d }
func (p *probePerturber) PerturbVector(t []float64, _ *rng.Rand) []float64 {
	p.sawCalls = true
	for _, v := range t {
		if v < -1 || v > 1 {
			p.sawOutOfRange = true
		}
	}
	out := make([]float64, len(t))
	copy(out, t)
	return out
}

func TestMetricsEmptyInputs(t *testing.T) {
	if MisclassificationRate([]float64{1}, nil) != 0 {
		t.Error("empty misclassification should be 0")
	}
	if RegressionMSE([]float64{1}, nil) != 0 {
		t.Error("empty MSE should be 0")
	}
}
