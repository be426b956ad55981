package ldp

import (
	"math"
	"testing"
)

func TestHistogramFacade(t *testing.T) {
	col, err := NewHistogramCollector(2, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	est := NewHistogramEstimator(col)
	r := NewRand(1)
	const n = 50000
	for i := 0; i < n; i++ {
		est.Add(col.Perturb(0.4*r.NormFloat64(), r))
	}
	smoothed := est.Smoothed()
	sum := 0.0
	for _, f := range smoothed {
		if f < 0 {
			t.Fatal("negative smoothed frequency")
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("smoothed histogram sums to %v", sum)
	}
	// Symmetric population: median near 0.
	if med := est.Quantile(0.5); math.Abs(med) > 0.2 {
		t.Errorf("median = %v, want ~0", med)
	}
}

func TestHistogramFacadeWithGRR(t *testing.T) {
	col, err := NewHistogramCollector(2, 4, GRR)
	if err != nil {
		t.Fatal(err)
	}
	if col.Oracle().Name() != "grr" {
		t.Errorf("oracle = %s, want grr", col.Oracle().Name())
	}
}

func TestProjectSimplexFacade(t *testing.T) {
	p := ProjectSimplex([]float64{0.9, 0.3, -0.1})
	sum := 0.0
	for _, x := range p {
		if x < 0 {
			t.Fatal("negative projection entry")
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("projection sums to %v", sum)
	}
}

func TestAuditFacade(t *testing.T) {
	pm, err := NewPiecewise(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Audit(pm, AuditConfig{Samples: 30000, Bins: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated {
		t.Errorf("PM flagged by audit: %s", res)
	}
	if res.Epsilon != 1 {
		t.Errorf("audit epsilon = %v", res.Epsilon)
	}
	if res.EmpiricalEps < 0 || res.EmpiricalEps > 1 {
		t.Errorf("empirical eps %v outside [0, eps]", res.EmpiricalEps)
	}
	if _, err := Audit(pm, AuditConfig{Samples: 10, Bins: 40}); err == nil {
		t.Error("Samples < Bins must be rejected")
	}
}

func TestSnapshotThroughFacade(t *testing.T) {
	s, err := NewSchema(
		Attribute{Name: "x", Kind: Numeric},
		Attribute{Name: "c", Kind: Categorical, Cardinality: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(s, 1, WithMechanism(PM), WithOracle(OUE))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRand(4)
	for i := 0; i < 500; i++ {
		tup := NewTuple(s)
		tup.Num[0] = 0.25
		tup.Cat[1] = i % 3
		rep, err := p.JointTask().Randomize(tup, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := New(s, 1, WithMechanism(PM), WithOracle(OUE))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.MergeState(p.StateSnapshot()); err != nil {
		t.Fatal(err)
	}
	a, _ := p.Snapshot().Mean("x")
	b, _ := fresh.Snapshot().Mean("x")
	if a != b || fresh.N() != 500 {
		t.Errorf("restored state: mean %v (N %d), want %v (N 500)", b, fresh.N(), a)
	}
}
