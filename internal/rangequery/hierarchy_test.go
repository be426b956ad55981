package rangequery

import (
	"math"
	"math/bits"
	"testing"

	"ldp/internal/rng"
	"ldp/internal/schema"
)

// TestDecomposeExhaustive checks, for every bucket range of several
// power-of-two domains up to B=256, that the canonical cover (a) exactly
// partitions the range, (b) uses at most 2*log2(B) nodes, and (c) never
// emits the root.
func TestDecomposeExhaustive(t *testing.T) {
	for _, b := range []int{2, 4, 16, 64, 256} {
		logB := bits.Len(uint(b)) - 1
		for lo := 0; lo < b; lo++ {
			for hi := lo; hi < b; hi++ {
				nodes, err := Decompose(b, lo, hi)
				if err != nil {
					t.Fatalf("B=%d Decompose(%d,%d): %v", b, lo, hi, err)
				}
				if len(nodes) > 2*logB {
					t.Fatalf("B=%d [%d,%d]: %d nodes > 2*log2(B) = %d",
						b, lo, hi, len(nodes), 2*logB)
				}
				covered := make([]bool, b)
				for _, n := range nodes {
					if n.Depth < 1 || n.Depth > logB {
						t.Fatalf("B=%d [%d,%d]: node depth %d outside [1,%d]", b, lo, hi, n.Depth, logB)
					}
					size := b >> n.Depth
					for i := n.Index * size; i < (n.Index+1)*size; i++ {
						if i < 0 || i >= b || covered[i] {
							t.Fatalf("B=%d [%d,%d]: node (%d,%d) covers bucket %d twice or out of range",
								b, lo, hi, n.Depth, n.Index, i)
						}
						covered[i] = true
					}
				}
				for i := 0; i < b; i++ {
					if covered[i] != (i >= lo && i <= hi) {
						t.Fatalf("B=%d [%d,%d]: bucket %d covered=%v", b, lo, hi, i, covered[i])
					}
				}
			}
		}
	}
}

func TestDecomposeErrors(t *testing.T) {
	if _, err := Decompose(10, 0, 5); err == nil {
		t.Error("want error for non-power-of-two domain")
	}
	for _, c := range [][2]int{{-1, 3}, {3, 2}, {0, 8}} {
		if _, err := Decompose(8, c[0], c[1]); err == nil {
			t.Errorf("Decompose(8,%d,%d): want error", c[0], c[1])
		}
	}
}

func TestHierCollectorConstruction(t *testing.T) {
	if _, err := NewHierCollector(0, 64, nil); err == nil {
		t.Error("want error for eps=0")
	}
	if _, err := NewHierCollector(1, 48, nil); err == nil {
		t.Error("want error for non-power-of-two buckets")
	}
	c, err := NewHierCollector(1, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Depths() != 6 {
		t.Errorf("Depths() = %d, want 6", c.Depths())
	}
	for l := 1; l <= 6; l++ {
		if k := c.Oracle(l).Cardinality(); k != 1<<l {
			t.Errorf("depth %d oracle cardinality = %d, want %d", l, k, 1<<l)
		}
		if e := c.Oracle(l).Epsilon(); e != 1 {
			t.Errorf("depth %d oracle eps = %v, want full budget 1", l, e)
		}
	}
}

func TestHierPerturbDepthsAndClamping(t *testing.T) {
	c, err := NewHierCollector(1, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	seen := map[int]bool{}
	for i := 0; i < 500; i++ {
		rep := c.Perturb(-3, r) // clamped to bucket 0
		if rep.Depth < 1 || rep.Depth > c.Depths() {
			t.Fatalf("depth %d outside [1,%d]", rep.Depth, c.Depths())
		}
		seen[rep.Depth] = true
	}
	for l := 1; l <= c.Depths(); l++ {
		if !seen[l] {
			t.Errorf("depth %d never sampled in 500 perturbs", l)
		}
	}
	if rep := c.Perturb(99, r); rep.Depth < 1 {
		t.Error("out-of-range bucket must clamp, not break")
	}
}

func TestHierEstimatorRejectsBadDepth(t *testing.T) {
	c := hierCollector(t, 1, 16)
	st := c.NewState()
	for _, depth := range []int{0, 5} {
		if err := add(c, st, Report{Kind: KindHier, Depth: depth}); err == nil {
			t.Errorf("want error for depth %d outside [1,4]", depth)
		}
	}
	if st.N != 0 {
		t.Errorf("rejected reports must not count: N = %d", st.N)
	}
}

// hierCollector builds a range collector over one numeric attribute with
// grids disabled: the hierarchical interval oracle on its own, its reports
// folded into the level columns of attribute 0.
func hierCollector(t testing.TB, eps float64, buckets int) *Collector {
	t.Helper()
	s, err := schema.New(schema.Attribute{Name: "x", Kind: schema.Numeric})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCollector(s, eps, Config{Buckets: buckets, GridFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// hierRun simulates n users drawn from a fixed synthetic distribution
// through the hierarchy's randomizer, folding their reports into st, and
// returns the empirical bucket histogram of the population it saw.
func hierRun(t *testing.T, c *Collector, st *AccState, n int, seed uint64) []float64 {
	t.Helper()
	h := c.Hierarchy()
	truth := make([]float64, h.Buckets())
	for i := 0; i < n; i++ {
		r := rng.NewStream(seed, uint64(i))
		v := rng.TruncGauss(r, 0.2, 0.4, -1, 1)
		b := bucketOf(v, h.Buckets())
		truth[b]++
		hr := h.Perturb(b, r)
		if err := add(c, st, Report{Kind: KindHier, Depth: hr.Depth, Resp: hr.Resp}); err != nil {
			t.Fatal(err)
		}
	}
	for b := range truth {
		truth[b] /= float64(n)
	}
	return truth
}

func spanTruth(truth []float64, lo, hi int) float64 {
	s := 0.0
	for b := lo; b <= hi; b++ {
		s += truth[b]
	}
	return s
}

// TestHierUnbiased checks that the hierarchical range estimate is
// unbiased: averaged over independent runs, the estimate of a fixed span
// matches the empirical truth well within the predicted standard error.
func TestHierUnbiased(t *testing.T) {
	const (
		eps  = 1.0
		B    = 64
		n    = 20_000
		runs = 25
	)
	c := hierCollector(t, eps, B)
	lo, hi := 10, 41 // unaligned span: exercises a deep decomposition
	var meanEst, meanTruth float64
	for run := 0; run < runs; run++ {
		st := c.NewState()
		truth := hierRun(t, c, st, n, uint64(1000+run))
		got, err := c.View(st).Hier(0).SpanMass(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		meanEst += got
		meanTruth += spanTruth(truth, lo, hi)
	}
	meanEst /= runs
	meanTruth /= runs
	if diff := math.Abs(meanEst - meanTruth); diff > 0.05 {
		t.Errorf("mean estimate %.4f vs truth %.4f over %d runs: |bias| %.4f > 0.05",
			meanEst, meanTruth, runs, diff)
	}
}

// TestHierMSEShrinksWithN checks the acceptance criterion that MSE shrinks
// as the population grows: n=1e4 vs n=1e5 at eps=1.
func TestHierMSEShrinksWithN(t *testing.T) {
	if testing.Short() {
		t.Skip("population sweep is slow")
	}
	const (
		eps  = 1.0
		B    = 64
		runs = 6
	)
	c := hierCollector(t, eps, B)
	queries := [][2]int{{0, 31}, {5, 20}, {13, 50}, {32, 63}, {7, 56}}
	mse := func(n int, seedBase uint64) float64 {
		sum := 0.0
		for run := 0; run < runs; run++ {
			st := c.NewState()
			truth := hierRun(t, c, st, n, seedBase+uint64(run))
			view := c.View(st).Hier(0)
			for _, q := range queries {
				got, err := view.SpanMass(q[0], q[1])
				if err != nil {
					t.Fatal(err)
				}
				d := got - spanTruth(truth, q[0], q[1])
				sum += d * d
			}
		}
		return sum / float64(runs*len(queries))
	}
	small := mse(10_000, 10)
	large := mse(100_000, 20)
	if large >= small*0.6 {
		t.Errorf("MSE did not shrink with n: n=1e4 MSE %.3g, n=1e5 MSE %.3g", small, large)
	}
}

// TestHierViewMatchesEstimator pins a hierarchy view against the eager
// reference estimators fed the same reports.
func TestHierViewMatchesEstimator(t *testing.T) {
	c := hierCollector(t, 1, 32)
	st, ref := c.NewState(), newRefAcc(c)
	r := rng.New(42)
	for i := 0; i < 2000; i++ {
		hr := c.Hierarchy().Perturb(r.IntN(32), r)
		rep := Report{Kind: KindHier, Depth: hr.Depth, Resp: hr.Resp}
		if err := add(c, st, rep); err != nil {
			t.Fatal(err)
		}
		ref.add(rep)
	}
	view := c.View(st).Hier(0)
	for _, q := range [][2]int{{0, 31}, {3, 17}, {8, 8}, {16, 31}} {
		a, err := ref.spanMass(0, q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		b, err := view.SpanMass(q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 1e-12 {
			t.Errorf("span [%d,%d]: estimator %.6f != view %.6f", q[0], q[1], a, b)
		}
	}
}

// TestHierMerge: the sum of two folded states answers every depth
// exactly like one state that folded both populations.
func TestHierMerge(t *testing.T) {
	c := hierCollector(t, 1, 16)
	a, b, whole := c.NewState(), c.NewState(), c.NewState()
	hierRun(t, c, a, 1000, 1)
	hierRun(t, c, b, 1000, 2)
	hierRun(t, c, whole, 1000, 1)
	hierRun(t, c, whole, 1000, 2)
	merged := sumStates(a, b)
	if merged.N != a.N+b.N || merged.N != 2000 {
		t.Errorf("merged N = %d, want %d", merged.N, a.N+b.N)
	}
	assertViewsIdentical(t, c.View(merged), c.View(whole))
}

func TestHierFullDomainNearOne(t *testing.T) {
	c := hierCollector(t, 1, 64)
	st := c.NewState()
	hierRun(t, c, st, 30_000, 77)
	got, err := c.View(st).Hier(0).SpanMass(0, 63)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 0.15 {
		t.Errorf("full-domain mass = %.4f, want ~1", got)
	}
}
