package rangequery

import (
	"math"
	"testing"

	"ldp/internal/freq"
	"ldp/internal/rng"
	"ldp/internal/schema"
)

func TestNewCollectorValidation(t *testing.T) {
	s := twoNumSchema(t)
	if _, err := NewCollector(s, 1, Config{Buckets: 100}); err == nil {
		t.Error("want error for non-power-of-two buckets")
	}
	if _, err := NewCollector(s, 1, Config{GridFraction: 1.5}); err == nil {
		t.Error("want error for GridFraction > 1")
	}
	catOnly, err := schema.New(schema.Attribute{Name: "c", Kind: schema.Categorical, Cardinality: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCollector(catOnly, 1, Config{}); err == nil {
		t.Error("want error for schema without numeric attributes")
	}
}

func TestCollectorDefaults(t *testing.T) {
	c, err := NewCollector(twoNumSchema(t), 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Hierarchy().Buckets() != 256 {
		t.Errorf("default buckets = %d, want 256", c.Hierarchy().Buckets())
	}
	if c.Grid() == nil || c.Grid().Cells() != 8 {
		t.Error("default grid should be enabled at g=8 for two numeric attributes")
	}
	if c.GridFraction() != 0.5 {
		t.Errorf("default grid fraction = %v, want 0.5", c.GridFraction())
	}
	if len(c.Pairs()) != 1 || c.Pairs()[0] != [2]int{0, 1} {
		t.Errorf("pairs = %v, want [[0 1]]", c.Pairs())
	}
}

func TestCollectorGridDisabled(t *testing.T) {
	// Explicitly disabled.
	c, err := NewCollector(twoNumSchema(t), 1, Config{GridFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Grid() != nil || c.GridFraction() != 0 {
		t.Error("GridFraction < 0 must disable grids")
	}
	// Implicitly disabled: only one numeric attribute, no pairs.
	one, err := schema.New(
		schema.Attribute{Name: "x", Kind: schema.Numeric},
		schema.Attribute{Name: "c", Kind: schema.Categorical, Cardinality: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	c, err = NewCollector(one, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Grid() != nil {
		t.Error("single numeric attribute must disable grids")
	}
}

func TestPerturbRouting(t *testing.T) {
	s := twoNumSchema(t)
	c, err := NewCollector(s, 1, Config{Buckets: 32, GridCells: 4})
	if err != nil {
		t.Fatal(err)
	}
	tp := schema.NewTuple(s)
	tp.Num[0], tp.Num[1] = 0.4, -0.2
	r := rng.New(5)
	var nHier, nGrid int
	for i := 0; i < 2000; i++ {
		rep, err := c.Perturb(tp, r)
		if err != nil {
			t.Fatal(err)
		}
		switch rep.Kind {
		case KindHier:
			nHier++
			if rep.Attr != 0 && rep.Attr != 1 {
				t.Fatalf("hier report for attribute %d, want a numeric attribute", rep.Attr)
			}
		case KindGrid:
			nGrid++
			if rep.Pair != 0 {
				t.Fatalf("grid report for pair %d, want 0", rep.Pair)
			}
		default:
			t.Fatalf("unknown report kind %d", rep.Kind)
		}
	}
	if nHier == 0 || nGrid == 0 {
		t.Fatalf("routing starved a task: hier=%d grid=%d", nHier, nGrid)
	}
	// 50/50 split: each side should get roughly half.
	if nGrid < 800 || nGrid > 1200 {
		t.Errorf("grid share %d/2000 far from the configured 0.5", nGrid)
	}
}

func TestPerturbRejectsBadTuple(t *testing.T) {
	s := twoNumSchema(t)
	c, err := NewCollector(s, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tp := schema.NewTuple(s)
	tp.Num[0] = 3 // outside [-1, 1]
	if _, err := c.Perturb(tp, rng.New(1)); err == nil {
		t.Error("want error for out-of-domain tuple")
	}
}

// add validates rep and folds it into st, as the pipeline's ingest does.
func add(c *Collector, st *AccState, rep Report) error {
	if err := c.Validate(rep); err != nil {
		return err
	}
	c.Fold(st, rep)
	return nil
}

func TestAggregatorRejectsBadReports(t *testing.T) {
	s := twoNumSchema(t)
	c, err := NewCollector(s, 1, Config{Buckets: 16})
	if err != nil {
		t.Fatal(err)
	}
	st := c.NewState()
	if err := add(c, st, Report{Kind: KindHier, Attr: 2, Depth: 1}); err == nil {
		t.Error("want error for hier report on categorical attribute")
	}
	if err := add(c, st, Report{Kind: KindHier, Attr: 0, Depth: 99}); err == nil {
		t.Error("want error for bad depth")
	}
	if err := add(c, st, Report{Kind: KindGrid, Pair: 5}); err == nil {
		t.Error("want error for out-of-range pair")
	}
	if err := add(c, st, Report{Kind: ReportKind(9)}); err == nil {
		t.Error("want error for unknown kind")
	}
	if st.N != 0 {
		t.Errorf("rejected reports must not count: N = %d", st.N)
	}

	// Responses whose bitset does not match the oracle domain (e.g. a
	// crafted network frame) must be rejected, not panic downstream.
	if err := add(c, st, Report{Kind: KindHier, Attr: 0, Depth: 1, Resp: freq.Response{Bits: freq.NewBitset(0)}}); err == nil {
		t.Error("want error for empty bitset on a 2-node depth")
	}
	if err := add(c, st, Report{Kind: KindHier, Attr: 0, Depth: 4, Resp: freq.Response{Bits: freq.NewBitset(129)}}); err == nil {
		t.Error("want error for bitset wider than the depth's domain")
	}
	if err := add(c, st, Report{Kind: KindGrid, Pair: 0, Resp: freq.Response{Bits: freq.NewBitset(999)}}); err == nil {
		t.Error("want error for oversized grid bitset")
	}

	noGrid, err := NewCollector(s, 1, Config{GridFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	ng := noGrid.NewState()
	if err := add(noGrid, ng, Report{Kind: KindGrid, Pair: 0}); err == nil {
		t.Error("want error for grid report when grids are disabled")
	}
	if _, err := noGrid.View(ng).Range2D(0, 1, -1, 1, -1, 1); err == nil {
		t.Error("want error for Range2D when grids are disabled")
	}
}

// endToEnd simulates a population through the full collector path,
// folding every report into st, and returns the raw values for ground
// truth.
func endToEnd(t *testing.T, s *schema.Schema, c *Collector, st *AccState, n int, seed uint64) [][2]float64 {
	t.Helper()
	vals := make([][2]float64, n)
	for i := 0; i < n; i++ {
		r := rng.NewStream(seed, uint64(i))
		tp := schema.NewTuple(s)
		x := rng.TruncGauss(r, 0.1, 0.4, -1, 1)
		y := mechClamp(-x/2 + 0.25*r.NormFloat64())
		tp.Num[0], tp.Num[1] = x, y
		tp.Cat[2] = r.IntN(5)
		vals[i] = [2]float64{x, y}
		rep, err := c.Perturb(tp, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := add(c, st, rep); err != nil {
			t.Fatal(err)
		}
	}
	return vals
}

func TestEndToEndRangeQueries(t *testing.T) {
	const (
		eps = 1.0
		n   = 100_000
	)
	s := twoNumSchema(t)
	c, err := NewCollector(s, eps, Config{Buckets: 64, GridCells: 8})
	if err != nil {
		t.Fatal(err)
	}
	st := c.NewState()
	vals := endToEnd(t, s, c, st, n, 11)
	if st.N != n {
		t.Fatalf("aggregator saw %d reports, want %d", st.N, n)
	}
	agg := c.View(st)

	// 1-D: P(x in [-0.25, 0.5]), endpoints on bucket boundaries (B=64).
	xlo, xhi := -0.25, 0.5
	trueX := 0.0
	for _, v := range vals {
		if v[0] >= xlo && v[0] <= xhi {
			trueX++
		}
	}
	trueX /= n
	gotX, err := agg.Range1D(0, xlo, xhi)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotX-trueX) > 0.15 {
		t.Errorf("Range1D = %.4f, true %.4f", gotX, trueX)
	}

	// 2-D: P(x in [0, 0.75] AND y in [-0.5, 0.25]) on g=8 cell boundaries.
	trueXY := 0.0
	for _, v := range vals {
		if v[0] >= 0 && v[0] <= 0.75 && v[1] >= -0.5 && v[1] <= 0.25 {
			trueXY++
		}
	}
	trueXY /= n
	gotXY, err := agg.Range2D(0, 1, 0, 0.75, -0.5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotXY-trueXY) > 0.1 {
		t.Errorf("Range2D = %.4f, true %.4f", gotXY, trueXY)
	}

	// Swapped attribute order answers the same query.
	swapped, err := agg.Range2D(1, 0, -0.5, 0.25, 0, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(swapped-gotXY) > 1e-12 {
		t.Errorf("Range2D order-sensitivity: %.6f vs %.6f", swapped, gotXY)
	}

	// Error paths.
	if _, err := agg.Range1D(2, -1, 1); err == nil {
		t.Error("want error for Range1D on categorical attribute")
	}
	if got, err := agg.Range1D(0, 0.5, -0.5); err != nil || got != 0 {
		t.Errorf("empty range: got (%v, %v), want (0, nil)", got, err)
	}
}

// TestAggregatorMerge: the elementwise sum of two folded states answers
// every query exactly like one state that folded all their reports.
func TestAggregatorMerge(t *testing.T) {
	s := twoNumSchema(t)
	c, err := NewCollector(s, 1, Config{Buckets: 32, GridCells: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, b, whole := c.NewState(), c.NewState(), c.NewState()
	endToEnd(t, s, c, a, 6000, 21)
	endToEnd(t, s, c, b, 4000, 22)
	endToEnd(t, s, c, whole, 6000, 21)
	endToEnd(t, s, c, whole, 4000, 22)
	merged := sumStates(a, b)
	if merged.N != 10_000 {
		t.Errorf("merged N = %d, want 10000", merged.N)
	}
	assertViewsIdentical(t, c.View(merged), c.View(whole))
	got, err := c.View(merged).Range1D(0, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 0.25 {
		t.Errorf("merged full-domain mass %.4f, want ~1", got)
	}
}
