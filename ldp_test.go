package ldp

import (
	"math"
	"testing"
)

// The facade tests exercise the public API end to end; detailed behaviour
// is covered by the internal package suites.

func TestFacadeSingleAttribute(t *testing.T) {
	for _, newMech := range []func(float64) (Mechanism, error){
		func(e float64) (Mechanism, error) { return NewPiecewise(e) },
		func(e float64) (Mechanism, error) { return NewHybrid(e) },
		func(e float64) (Mechanism, error) { return NewDuchi(e) },
		func(e float64) (Mechanism, error) { return NewLaplace(e) },
		func(e float64) (Mechanism, error) { return NewSCDF(e) },
		func(e float64) (Mechanism, error) { return NewStaircase(e) },
	} {
		m, err := newMech(1)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRand(1)
		const n = 150000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += m.Perturb(0.3, r)
		}
		got := sum / n
		tol := 6 * math.Sqrt(m.WorstCaseVariance()/n)
		if math.Abs(got-0.3) > tol {
			t.Errorf("%s: mean %v, want 0.3 +- %v", m.Name(), got, tol)
		}
	}
}

func TestFacadeCollectorPipeline(t *testing.T) {
	s, err := NewSchema(
		Attribute{Name: "x", Kind: Numeric},
		Attribute{Name: "c", Kind: Categorical, Cardinality: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(s, 2, WithMechanism(PM), WithOracle(OUE))
	if err != nil {
		t.Fatal(err)
	}
	joint := p.JointTask()
	r := NewRand(2)
	const n = 60000
	trueSum := 0.0
	counts := make([]float64, 3)
	for i := 0; i < n; i++ {
		tup := NewTuple(s)
		tup.Num[0] = -0.4
		tup.Cat[1] = i % 3
		trueSum += tup.Num[0]
		counts[tup.Cat[1]]++
		rep, err := joint.Randomize(tup, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	res := p.Snapshot()
	mean, err := res.Mean("x")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-trueSum/n) > 0.1 {
		t.Errorf("mean estimate %v, want %v", mean, trueSum/n)
	}
	freqs, err := res.Freq("c")
	if err != nil {
		t.Fatal(err)
	}
	for v, f := range freqs {
		if math.Abs(f-counts[v]/n) > 0.1 {
			t.Errorf("freq[%d] = %v, want %v", v, f, counts[v]/n)
		}
	}
}

func TestFacadeWireRoundTrip(t *testing.T) {
	s, err := NewSchema(Attribute{Name: "x", Kind: Numeric})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	tup := NewTuple(s)
	tup.Num[0] = 0.5

	// Routed and joint-task reports both round-trip through the envelope.
	prep, err := p.Randomize(tup, NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	jrep, err := p.JointTask().Randomize(tup, NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []Report{prep, jrep} {
		frame, err := EncodeReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeReport(frame)
		if err != nil {
			t.Fatal(err)
		}
		if got.Task != rep.Task || len(got.Entries) != 1 || got.Entries[0].Value != rep.Entries[0].Value {
			t.Errorf("%v envelope round trip mismatch", rep.Task)
		}
	}
}

func TestFacadeConstants(t *testing.T) {
	if math.Abs(EpsStar()-0.61) > 0.01 {
		t.Errorf("EpsStar = %v", EpsStar())
	}
	if math.Abs(EpsSharp()-1.29) > 0.01 {
		t.Errorf("EpsSharp = %v", EpsSharp())
	}
	if KFor(5, 10) != 2 {
		t.Errorf("KFor(5,10) = %d", KFor(5, 10))
	}
}

func TestFacadeStreamsIndependent(t *testing.T) {
	a, b := NewRandStream(1, 0), NewRandStream(1, 1)
	if a.Uint64() == b.Uint64() {
		t.Error("streams should differ")
	}
}
