package dataset

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"

	"ldp/internal/rng"
	"ldp/internal/stattest"
)

func TestSourcesStayInDomain(t *testing.T) {
	sources := []*Source{
		NewGaussianSource(16, 0.5),
		NewUniformSource(16),
		NewPowerLawSource(16),
	}
	r := rng.New(1)
	buf := make([]float64, 16)
	for _, s := range sources {
		if s.Dim() != 16 {
			t.Errorf("%s: Dim = %d", s.Name(), s.Dim())
		}
		for i := 0; i < 2000; i++ {
			s.Fill(buf, r)
			for _, v := range buf {
				if v < -1 || v > 1 {
					t.Fatalf("%s: value %v outside [-1,1]", s.Name(), v)
				}
			}
		}
	}
}

func TestGaussianSourceMean(t *testing.T) {
	s := NewGaussianSource(4, 1.0/3)
	r := rng.New(2)
	buf := make([]float64, 4)
	var acc stattest.Running
	for i := 0; i < 100000; i++ {
		s.Fill(buf, r)
		acc.Add(buf[0])
	}
	// Truncation pulls the mean slightly toward 0; just check closeness.
	if math.Abs(acc.Mean()-1.0/3) > 0.01 {
		t.Errorf("mean = %v, want ~1/3", acc.Mean())
	}
}

func TestCensusSchemas(t *testing.T) {
	br, mx := NewBR(), NewMX()
	if got := br.Schema().Dim(); got != 16 {
		t.Errorf("BR dim = %d, want 16", got)
	}
	if got := len(br.Schema().NumericIdx()); got != 6 {
		t.Errorf("BR numeric attrs = %d, want 6", got)
	}
	if got := len(br.Schema().CategoricalIdx()); got != 10 {
		t.Errorf("BR categorical attrs = %d, want 10", got)
	}
	if got := mx.Schema().Dim(); got != 19 {
		t.Errorf("MX dim = %d, want 19", got)
	}
	if got := len(mx.Schema().NumericIdx()); got != 5 {
		t.Errorf("MX numeric attrs = %d, want 5", got)
	}
	if got := len(mx.Schema().CategoricalIdx()); got != 14 {
		t.Errorf("MX categorical attrs = %d, want 14", got)
	}
}

func TestERMDimsMatchPaper(t *testing.T) {
	// Section VI-B: after one-hot encoding BR has d=90, MX has d=94.
	if got := NewBR().ERMDim(); got != 90 {
		t.Errorf("BR ERM dim = %d, want 90", got)
	}
	if got := NewMX().ERMDim(); got != 94 {
		t.Errorf("MX ERM dim = %d, want 94", got)
	}
}

func TestCensusTuplesValid(t *testing.T) {
	for _, c := range []*Census{NewBR(), NewMX()} {
		for i := 0; i < 5000; i++ {
			r := rng.NewStream(7, uint64(i))
			tup := c.Tuple(r)
			if err := tup.Check(c.Schema()); err != nil {
				t.Fatalf("%s user %d: %v", c.Name(), i, err)
			}
		}
	}
}

func TestCensusDeterministic(t *testing.T) {
	c := NewBR()
	a := c.Tuple(rng.NewStream(3, 42))
	b := c.Tuple(rng.NewStream(3, 42))
	for i := range a.Num {
		if a.Num[i] != b.Num[i] || a.Cat[i] != b.Cat[i] {
			t.Fatal("same stream must give identical tuples")
		}
	}
}

func TestCensusIncomeSkewedSmall(t *testing.T) {
	// The normalized income should be concentrated at small magnitudes
	// (log-normal raw incomes far below the cap) — the regime the paper
	// highlights for PM/HM.
	c := NewBR()
	var vals []float64
	for i := 0; i < 20000; i++ {
		vals = append(vals, c.Tuple(rng.NewStream(11, uint64(i))).Num[c.IncomeAttr()])
	}
	sort.Float64s(vals)
	med := vals[len(vals)/2]
	if med > -0.2 {
		t.Errorf("income median = %v, expected well below 0 (skewed)", med)
	}
	// But the attribute must not be constant: some earners approach 1.
	if vals[len(vals)-1] < 0.5 {
		t.Errorf("max income = %v, expected a heavy upper tail", vals[len(vals)-1])
	}
}

func TestCensusCorrelationEducationIncome(t *testing.T) {
	// The latent factor must couple education and income (needed for the
	// ERM tasks to be learnable).
	c := NewBR()
	var edu, inc []float64
	for i := 0; i < 20000; i++ {
		tup := c.Tuple(rng.NewStream(13, uint64(i)))
		edu = append(edu, tup.Num[3])
		inc = append(inc, tup.Num[1])
	}
	if corr := pearson(edu, inc); corr < 0.2 {
		t.Errorf("education-income correlation = %v, want > 0.2", corr)
	}
}

func pearson(a, b []float64) float64 {
	var ra, rb stattest.Running
	for i := range a {
		ra.Add(a[i])
		rb.Add(b[i])
	}
	ma, mb := ra.Mean(), rb.Mean()
	var num, va, vb float64
	for i := range a {
		num += (a[i] - ma) * (b[i] - mb)
		va += (a[i] - ma) * (a[i] - ma)
		vb += (b[i] - mb) * (b[i] - mb)
	}
	return num / math.Sqrt(va*vb)
}

func TestIncomeThresholdBalancesClasses(t *testing.T) {
	for _, c := range []*Census{NewBR(), NewMX()} {
		pos := 0
		const n = 20000
		for i := 0; i < n; i++ {
			ex := c.EncodeERM(c.Tuple(rng.NewStream(17, uint64(i))))
			if ex.YCls > 0 {
				pos++
			}
		}
		frac := float64(pos) / n
		if frac < 0.4 || frac > 0.6 {
			t.Errorf("%s: positive class fraction = %v, want ~0.5", c.Name(), frac)
		}
	}
}

func TestIncomeThresholdCached(t *testing.T) {
	c := NewBR()
	a := c.IncomeThreshold()
	b := c.IncomeThreshold()
	if a != b {
		t.Error("threshold must be cached and stable")
	}
	if a <= -1 || a >= 1 {
		t.Errorf("threshold %v outside (-1,1)", a)
	}
}

func TestEncodeERMShape(t *testing.T) {
	c := NewMX()
	ex := c.EncodeERM(c.Tuple(rng.NewStream(19, 0)))
	if len(ex.X) != c.ERMDim() {
		t.Fatalf("len(X) = %d, want %d", len(ex.X), c.ERMDim())
	}
	for _, v := range ex.X {
		if v < -1 || v > 1 {
			t.Fatalf("feature %v outside [-1,1]", v)
		}
	}
	if ex.YCls != 1 && ex.YCls != -1 {
		t.Fatalf("YCls = %v", ex.YCls)
	}
	if ex.YReg < -1 || ex.YReg > 1 {
		t.Fatalf("YReg = %v", ex.YReg)
	}
}

func TestEncodeERMOneHotInvariant(t *testing.T) {
	// Each categorical block has at most one bit set, and the last value
	// maps to the all-zero block.
	c := NewBR()
	tup := c.Tuple(rng.NewStream(23, 5))
	// Force a known categorical value: attribute "gender" (index 6), k=2,
	// so its block is a single binary feature at x index 5 (after the 5
	// non-income numeric features).
	tup.Cat[6] = 1 // last value -> reference level, bit must be 0
	if got := c.EncodeERM(tup).X[5]; got != 0 {
		t.Errorf("reference level bit = %v, want 0", got)
	}
	tup.Cat[6] = 0
	if got := c.EncodeERM(tup).X[5]; got != 1 {
		t.Errorf("first level bit = %v, want 1", got)
	}
}

func TestERMExamplesDeterministic(t *testing.T) {
	c := NewBR()
	a := c.ERMExamples(50, 99)
	b := c.ERMExamples(50, 99)
	for i := range a {
		if a[i].YReg != b[i].YReg || a[i].YCls != b[i].YCls {
			t.Fatal("ERMExamples must be deterministic in the seed")
		}
	}
}

func TestQuickMedian(t *testing.T) {
	cases := [][]float64{
		{3},
		{2, 1},
		{5, 1, 4, 2, 3},
		{1, 1, 1, 1},
		{-2, 7, 0, 7, -5, 3, 3},
	}
	for _, xs := range cases {
		cp := append([]float64(nil), xs...)
		got := quickMedian(cp)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		want := sorted[len(sorted)/2]
		if got != want {
			t.Errorf("quickMedian(%v) = %v, want %v", xs, got, want)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	c := NewBR()
	var buf bytes.Buffer
	const n = 200
	if err := WriteCSV(&buf, c, n, 31); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, c.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("read %d tuples, want %d", len(got), n)
	}
	want := c.Tuple(rng.NewStream(31, 0))
	for j := range want.Num {
		if math.Abs(got[0].Num[j]-want.Num[j]) > 1e-6 || got[0].Cat[j] != want.Cat[j] {
			t.Fatalf("tuple 0 attr %d: got (%v,%d), want (%v,%d)",
				j, got[0].Num[j], got[0].Cat[j], want.Num[j], want.Cat[j])
		}
	}
}

func TestReadCSVRejectsBadInput(t *testing.T) {
	c := NewBR()
	s := c.Schema()
	if _, err := ReadCSV(strings.NewReader(""), s); err == nil {
		t.Error("empty input should error")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n"), s); err == nil {
		t.Error("wrong column count should error")
	}
	// Correct header but a bad numeric cell.
	var buf bytes.Buffer
	if err := WriteCSV(&buf, c, 1, 1); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(buf.String(), "\n", 2)
	bad := lines[0] + "\n" + strings.Replace(lines[1], ",", ",not-a-number", 1)
	_ = bad
	badRow := lines[0] + "\nx" + lines[1][1:]
	if _, err := ReadCSV(strings.NewReader(badRow), s); err == nil {
		t.Error("malformed numeric cell should error")
	}
	// Out-of-domain value.
	cols := make([]string, s.Dim())
	for i := range cols {
		cols[i] = "0"
	}
	cols[0] = "7" // numeric out of [-1,1]
	rec := lines[0] + "\n" + strings.Join(cols, ",") + "\n"
	if _, err := ReadCSV(strings.NewReader(rec), s); err == nil {
		t.Error("out-of-domain value should error")
	}
	// Header name mismatch.
	hdr := strings.Replace(lines[0], "age", "AGE", 1)
	if _, err := ReadCSV(strings.NewReader(hdr+"\n"), s); err == nil {
		t.Error("header mismatch should error")
	}
}

func TestZipfWeightsSkewed(t *testing.T) {
	w := zipfWeights(5, 1.0)
	for i := 1; i < len(w); i++ {
		if w[i] >= w[i-1] {
			t.Errorf("weights not decreasing: %v", w)
		}
	}
}
