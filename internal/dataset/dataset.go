// Package dataset provides the workloads of the paper's Section VI:
//
//   - synthetic census populations shaped like the IPUMS BR and MX
//     extracts the paper uses (the real extracts are not redistributable,
//     and the experiments compare mechanisms on one population, so they
//     need the extracts' schema shape, not their records): BR has 16
//     attributes (6 numeric + 10 categorical), MX has 19 (5 numeric + 14
//     categorical), and after the Section VI-B one-hot encoding their ERM
//     dimensionalities are 90 and 94, exactly as in the paper;
//   - the purely numeric synthetic sources of Figures 5 and 6: truncated
//     Gaussian N(mu, 1/16), uniform on [-1,1], and the power law
//     ~ c(x+2)^{-10};
//   - the ERM encoding (one-hot categorical expansion, income as the
//     dependent variable) and CSV import/export.
//
// Generation is deterministic: each user's record is a pure function of a
// caller-supplied PRNG, so harness code derives one rng stream per user and
// results are independent of goroutine scheduling.
package dataset

import (
	"math"
	"sync"

	"ldp/internal/rng"
	"ldp/internal/schema"
)

// Source is a purely numeric tuple generator with values in [-1, 1]^d
// (Figures 5 and 6 workloads).
type Source struct {
	name string
	d    int
	fill func(dst []float64, r *rng.Rand)
}

// Name returns the source identifier.
func (s *Source) Name() string { return s.name }

// Dim returns the tuple dimensionality.
func (s *Source) Dim() int { return s.d }

// Fill writes one tuple into dst (length Dim()).
func (s *Source) Fill(dst []float64, r *rng.Rand) { s.fill(dst, r) }

// NewGaussianSource returns a d-dimensional source whose coordinates are
// i.i.d. N(mu, 1/16) truncated to [-1, 1] (the Figure 5 workload; the
// paper's text says standard deviation 1/4).
func NewGaussianSource(d int, mu float64) *Source {
	return &Source{
		name: "gaussian",
		d:    d,
		fill: func(dst []float64, r *rng.Rand) {
			for i := range dst {
				dst[i] = rng.TruncGauss(r, mu, 0.25, -1, 1)
			}
		},
	}
}

// NewUniformSource returns a d-dimensional source uniform on [-1, 1]^d
// (Figure 6a).
func NewUniformSource(d int) *Source {
	return &Source{
		name: "uniform",
		d:    d,
		fill: func(dst []float64, r *rng.Rand) {
			for i := range dst {
				dst[i] = rng.Uniform(r, -1, 1)
			}
		},
	}
}

// NewPowerLawSource returns a d-dimensional source with i.i.d. coordinates
// from the density proportional to (x+2)^{-10} on [-1, 1] (Figure 6b).
func NewPowerLawSource(d int) *Source {
	return &Source{
		name: "powerlaw",
		d:    d,
		fill: func(dst []float64, r *rng.Rand) {
			for i := range dst {
				dst[i] = rng.PowerLaw(r)
			}
		},
	}
}

// catSpec describes one categorical attribute of a census: skewed base
// weights over its values and a tilt coefficient coupling it to the
// latent socioeconomic factor (so attributes are mutually correlated, as
// in real census data).
type catSpec struct {
	name    string
	weights []float64
	zTilt   float64
}

// Census is a synthetic census population generator over a mixed schema.
type Census struct {
	name  string
	sch   *schema.Schema
	cats  []catSpec // aligned with the categorical attributes, in order
	nNum  int
	incAt int // index of the income attribute in the schema

	thresholdOnce sync.Once
	threshold     float64 // classification threshold for income (median)
}

// Name returns "br" or "mx".
func (c *Census) Name() string { return c.name }

// Schema returns the census schema.
func (c *Census) Schema() *schema.Schema { return c.sch }

// IncomeAttr returns the schema index of the income attribute (the ERM
// dependent variable).
func (c *Census) IncomeAttr() int { return c.incAt }

func uniformWeights(k int) []float64 {
	w := make([]float64, k)
	for i := range w {
		w[i] = 1
	}
	return w
}

// zipfWeights returns weights proportional to 1/(i+1)^s — a skewed
// popularity profile typical of census categoricals (region, language...).
func zipfWeights(k int, s float64) []float64 {
	w := make([]float64, k)
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
	}
	return w
}

// NewBR returns the BR-like census: 16 attributes, 6 numeric and 10
// categorical; one-hot ERM dimensionality 90 (5 numeric features + 85
// binaries), matching the paper's BR extract.
func NewBR() *Census {
	cats := []catSpec{
		{"gender", uniformWeights(2), 0},
		{"marital", []float64{5, 4, 1.5, 1, 0.5}, 0.2},
		{"region", zipfWeights(27, 1.1), 0},
		{"education", zipfWeights(11, 0.8), 0.9},
		{"employment", []float64{6, 2, 1, 1, 0.6, 0.3, 0.2}, 0.6},
		{"religion", zipfWeights(8, 1.4), 0},
		{"urban", []float64{8, 2}, 0.3},
		{"ownership", []float64{7, 2.5, 1}, 0.4},
		{"language", zipfWeights(10, 2.0), 0},
		{"occupation", zipfWeights(20, 0.9), 0.7},
	}
	return newCensus("br", 6, cats)
}

// NewMX returns the MX-like census: 19 attributes, 5 numeric and 14
// categorical; one-hot ERM dimensionality 94 (4 numeric features + 90
// binaries), matching the paper's MX extract.
func NewMX() *Census {
	cats := []catSpec{
		{"gender", uniformWeights(2), 0},
		{"marital", []float64{5, 4, 1.5, 1, 0.5}, 0.2},
		{"state", zipfWeights(32, 1.0), 0},
		{"literacy", []float64{9, 1}, 0.8},
		{"education", zipfWeights(11, 0.8), 0.9},
		{"employment", []float64{6, 2, 1, 1, 0.6, 0.3, 0.2}, 0.6},
		{"religion", zipfWeights(6, 1.6), 0},
		{"indigenous", []float64{8.5, 1.5}, -0.4},
		{"urban", []float64{7.5, 2.5}, 0.3},
		{"ownership", []float64{7, 2.5, 1}, 0.4},
		{"occupation", zipfWeights(15, 0.9), 0.7},
		{"industry", zipfWeights(10, 0.8), 0.5},
		{"disability", []float64{9.3, 0.7}, -0.2},
		{"migrant", zipfWeights(5, 1.8), 0.1},
	}
	return newCensus("mx", 5, cats)
}

// numericNames are the numeric attribute names shared by both censuses;
// BR additionally has "children". Income is attribute index 1.
var numericNames = []string{"age", "income", "hours", "eduyears", "famsize", "children"}

func newCensus(name string, nNum int, cats []catSpec) *Census {
	attrs := make([]schema.Attribute, 0, nNum+len(cats))
	for i := 0; i < nNum; i++ {
		attrs = append(attrs, schema.Attribute{Name: numericNames[i], Kind: schema.Numeric})
	}
	for _, cs := range cats {
		attrs = append(attrs, schema.Attribute{
			Name:        cs.name,
			Kind:        schema.Categorical,
			Cardinality: len(cs.weights),
		})
	}
	sch, err := schema.New(attrs...)
	if err != nil {
		// The specs above are static; a failure here is a programming
		// error, not an input error.
		panic("dataset: invalid built-in census schema: " + err.Error())
	}
	return &Census{name: name, sch: sch, cats: cats, nNum: nNum, incAt: 1}
}

// sampleCat draws a categorical value with the spec's weights tilted by the
// user's latent factor z: w_i' = w_i * exp(zTilt * z * i / k).
func sampleCat(spec catSpec, z float64, r *rng.Rand) int {
	k := len(spec.weights)
	if spec.zTilt == 0 {
		return sampleWeights(spec.weights, r)
	}
	w := make([]float64, k)
	for i := range w {
		w[i] = spec.weights[i] * math.Exp(spec.zTilt*z*float64(i)/float64(k))
	}
	return sampleWeights(w, r)
}

func sampleWeights(w []float64, r *rng.Rand) int {
	total := 0.0
	for _, x := range w {
		total += x
	}
	u := r.Float64() * total
	acc := 0.0
	for i, x := range w {
		acc += x
		if u < acc {
			return i
		}
	}
	return len(w) - 1
}

// incomeMax is the fixed normalization cap for raw income (in the
// generator's abstract currency units); values above it clip to 1 after
// normalization, mimicking the paper's domain normalization.
const incomeMax = 60000.0

// Tuple generates one user record from the caller's PRNG stream.
//
// A latent socioeconomic factor z couples education, employment, hours and
// income, so the ERM tasks have learnable signal; raw income is log-normal
// (heavy tailed), which after normalization concentrates most values at
// small magnitudes — the regime where PM/HM shine (Section III-B).
func (c *Census) Tuple(r *rng.Rand) schema.Tuple {
	t := schema.NewTuple(c.sch)
	z := r.NormFloat64()

	ageYears := rng.TruncGauss(r, 38, 15, 16, 95)
	eduYears := rng.TruncGauss(r, 9+2.2*z, 2.5, 0, 18)
	hours := rng.TruncGauss(r, 38+3*z, 10, 0, 90)
	famsize := rng.TruncGauss(r, 4-0.5*z, 1.6, 1, 12)
	logInc := 7.2 + 0.55*z + 0.09*eduYears + 0.016*ageYears -
		0.00021*(ageYears-47)*(ageYears-47) + 0.45*r.NormFloat64()
	income := math.Exp(logInc)

	// Normalize to [-1, 1].
	t.Num[0] = mathClamp(2*(ageYears-16)/(95-16)-1, -1, 1)
	t.Num[1] = mathClamp(2*income/incomeMax-1, -1, 1)
	t.Num[2] = mathClamp(2*hours/90-1, -1, 1)
	t.Num[3] = mathClamp(2*eduYears/18-1, -1, 1)
	t.Num[4] = mathClamp(2*(famsize-1)/11-1, -1, 1)
	if c.nNum > 5 {
		children := rng.TruncGauss(r, 1.6-0.3*z, 1.4, 0, 10)
		t.Num[5] = mathClamp(2*children/10-1, -1, 1)
	}

	for i, spec := range c.cats {
		t.Cat[c.nNum+i] = sampleCat(spec, z, r)
	}
	return t
}

func mathClamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// IncomeThreshold returns the population median of the normalized income
// attribute, used to binarize income for the classification tasks
// (Section VI-B maps incomes above the mean to 1; the generator's median is
// a more robust cut for a heavy-tailed attribute and keeps classes
// balanced). The value is estimated once from 200k records under a fixed
// seed and cached.
func (c *Census) IncomeThreshold() float64 {
	c.thresholdOnce.Do(func() {
		const n = 200000
		vals := make([]float64, n)
		for i := range vals {
			r := rng.NewStream(0xC0FFEE, uint64(i))
			vals[i] = c.Tuple(r).Num[c.incAt]
		}
		c.threshold = quickMedian(vals)
	})
	return c.threshold
}

// quickMedian computes the median via Hoare-partition quickselect (the
// input is scratch and may be reordered).
func quickMedian(xs []float64) float64 {
	k := len(xs) / 2
	lo, hi := 0, len(xs)-1
	for lo < hi {
		j := partition(xs, lo, hi)
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	return xs[k]
}

// partition is the canonical Hoare partition: after it returns j, every
// element of xs[lo..j] is <= every element of xs[j+1..hi].
func partition(xs []float64, lo, hi int) int {
	pivot := xs[lo+(hi-lo)/2]
	i, j := lo-1, hi+1
	for {
		for {
			i++
			if xs[i] >= pivot {
				break
			}
		}
		for {
			j--
			if xs[j] <= pivot {
				break
			}
		}
		if i >= j {
			return j
		}
		xs[i], xs[j] = xs[j], xs[i]
	}
}
