package rangequery

import (
	"math"
	"testing"

	"ldp/internal/rng"
	"ldp/internal/schema"
)

func TestGridCollectorConstruction(t *testing.T) {
	if _, err := NewGridCollector(0, 8, nil); err == nil {
		t.Error("want error for eps=0")
	}
	if _, err := NewGridCollector(1, 1, nil); err == nil {
		t.Error("want error for 1 cell per axis")
	}
	c, err := NewGridCollector(1, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k := c.Oracle().Cardinality(); k != 64 {
		t.Errorf("oracle cardinality = %d, want g^2 = 64", k)
	}
}

func TestCellOf(t *testing.T) {
	c, err := NewGridCollector(1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		x, y float64
		want int
	}{
		{-1, -1, 0},
		{-1, 1, 3},
		{1, -1, 12},
		{1, 1, 15},
		{0, 0, 10},           // both in cell 2 of 4
		{-2, 5, 3},           // clamped
		{0.49, -0.51, 8 + 0}, // x cell 2, y cell 0
	}
	for _, tc := range cases {
		if got := c.CellOf(tc.x, tc.y); got != tc.want {
			t.Errorf("CellOf(%v,%v) = %d, want %d", tc.x, tc.y, got, tc.want)
		}
	}
}

// gridCollector builds a range collector over two numeric attributes
// that routes every user to the one pair's g x g grid: the grid oracle on
// its own, its reports folded into grid column 0.
func gridCollector(t testing.TB, eps float64, cells int) *Collector {
	t.Helper()
	s, err := schema.New(
		schema.Attribute{Name: "x", Kind: schema.Numeric},
		schema.Attribute{Name: "y", Kind: schema.Numeric},
	)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCollector(s, eps, Config{Buckets: 2, GridCells: cells, GridFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// gridRun simulates n users with correlated coordinates through the grid
// randomizer, folding their reports into st, and returns the empirical
// cell histogram of the population.
func gridRun(t *testing.T, c *Collector, st *AccState, n int, seed uint64) []float64 {
	t.Helper()
	gc := c.Grid()
	g := gc.Cells()
	truth := make([]float64, g*g)
	for i := 0; i < n; i++ {
		r := rng.NewStream(seed, uint64(i))
		x := rng.TruncGauss(r, 0.3, 0.35, -1, 1)
		y := mechClamp(x/2 + 0.3*r.NormFloat64())
		truth[gc.CellOf(x, y)]++
		if err := add(c, st, Report{Kind: KindGrid, Resp: gc.Perturb(x, y, r)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range truth {
		truth[i] /= float64(n)
	}
	return truth
}

func mechClamp(v float64) float64 {
	if v < -1 {
		return -1
	}
	if v > 1 {
		return 1
	}
	return v
}

// TestGridJointConsistent checks the acceptance criterion: post-processed
// grid answers are non-negative and the joint sums to at most one —
// Norm-Sub in fact normalizes it to exactly one.
func TestGridJointConsistent(t *testing.T) {
	c := gridCollector(t, 1, 8)
	for _, n := range []int{0, 10, 5000} {
		st := c.NewState()
		gridRun(t, c, st, n, 99)
		joint := c.View(st).GridFor(0).Joint()
		sum := 0.0
		for i, f := range joint {
			if f < 0 {
				t.Fatalf("n=%d: joint[%d] = %v < 0 after Norm-Sub", n, i, f)
			}
			sum += f
		}
		if sum > 1+1e-9 {
			t.Errorf("n=%d: joint sums to %v > 1", n, sum)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("n=%d: Norm-Sub should normalize to 1, got %v", n, sum)
		}
	}
}

func TestGridRectMassAccuracy(t *testing.T) {
	const (
		eps = 1.0
		n   = 50_000
	)
	c := gridCollector(t, eps, 8)
	st := c.NewState()
	truth := gridRun(t, c, st, n, 3)
	est := c.View(st).GridFor(0)
	g := est.Cells()
	// Cell-aligned rectangle: x cells [4,6], y cells [3,5].
	trueMass := 0.0
	for cx := 4; cx <= 6; cx++ {
		for cy := 3; cy <= 5; cy++ {
			trueMass += truth[cx*g+cy]
		}
	}
	w := 2 / float64(g)
	got := est.RectMass(-1+4*w, -1+7*w, -1+3*w, -1+6*w)
	if math.Abs(got-trueMass) > 0.08 {
		t.Errorf("rect mass = %.4f, true %.4f", got, trueMass)
	}
	// Whole square has mass 1 under the consistent joint.
	if whole := est.RectMass(-1, 1, -1, 1); math.Abs(whole-1) > 1e-9 {
		t.Errorf("whole-square mass = %v, want 1", whole)
	}
}

func TestGridRectMassEdgeCases(t *testing.T) {
	c := gridCollector(t, 1, 4)
	est := c.View(c.NewState()).GridFor(0)
	if m := est.RectMass(0.5, -0.5, -1, 1); m != 0 {
		t.Errorf("inverted x range: mass %v, want 0", m)
	}
	if m := est.RectMass(-1, 1, 0.3, 0.3); m != 0 {
		t.Errorf("empty y range: mass %v, want 0", m)
	}
}

// TestGridMerge: the sum of two folded states answers exactly like one
// state that folded both populations.
func TestGridMerge(t *testing.T) {
	c := gridCollector(t, 1, 4)
	a, b, whole := c.NewState(), c.NewState(), c.NewState()
	gridRun(t, c, a, 500, 1)
	gridRun(t, c, b, 700, 2)
	gridRun(t, c, whole, 500, 1)
	gridRun(t, c, whole, 700, 2)
	merged := sumStates(a, b)
	if merged.N != 1200 || merged.Grids[0].N != 1200 {
		t.Errorf("merged N = %d (grid %d), want 1200", merged.N, merged.Grids[0].N)
	}
	assertViewsIdentical(t, c.View(merged), c.View(whole))
}
