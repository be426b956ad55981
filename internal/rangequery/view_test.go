package rangequery

import (
	"math"
	"sync"
	"testing"

	"ldp/internal/freq"
	"ldp/internal/hist"
	"ldp/internal/rng"
	"ldp/internal/schema"
)

func viewTestCollector(t *testing.T) *Collector {
	t.Helper()
	s, err := schema.New(
		schema.Attribute{Name: "x", Kind: schema.Numeric},
		schema.Attribute{Name: "y", Kind: schema.Numeric},
		schema.Attribute{Name: "c", Kind: schema.Categorical, Cardinality: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewCollector(s, 1, Config{Buckets: 16, GridCells: 4})
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// refAcc is the eager estimator path, kept as a test-only reference for
// the views: one freq.Estimator per hierarchy level and per grid, filled
// by Estimator.Add, and read at every query through Decompose (1-D) or
// hist.NormSub of Estimates (2-D). It shares no code with Fold or View.
type refAcc struct {
	col    *Collector
	levels map[[2]int]*freq.Estimator // by (schema attribute, depth)
	grids  []*freq.Estimator          // by pair
}

func newRefAcc(c *Collector) *refAcc {
	r := &refAcc{col: c, levels: map[[2]int]*freq.Estimator{}}
	for _, attr := range c.numeric {
		for d := 1; d <= c.Hierarchy().Depths(); d++ {
			r.levels[[2]int{attr, d}] = freq.NewEstimator(c.Hierarchy().Oracle(d))
		}
	}
	if g := c.Grid(); g != nil {
		for range c.Pairs() {
			r.grids = append(r.grids, freq.NewEstimator(g.Oracle()))
		}
	}
	return r
}

func (r *refAcc) add(rep Report) {
	if rep.Kind == KindHier {
		r.levels[[2]int{rep.Attr, rep.Depth}].Add(rep.Resp)
	} else {
		r.grids[rep.Pair].Add(rep.Resp)
	}
}

// spanMass sums the node estimates of the bucket span's canonical cover,
// clamped into [0, 1].
func (r *refAcc) spanMass(attr, lo, hi int) (float64, error) {
	nodes, err := Decompose(r.col.Hierarchy().Buckets(), lo, hi)
	if err != nil {
		return 0, err
	}
	mass := 0.0
	for _, n := range nodes {
		mass += r.levels[[2]int{attr, n.Depth}].Estimates()[n.Index]
	}
	return math.Min(1, math.Max(0, mass)), nil
}

func (r *refAcc) range1D(attr int, lo, hi float64) (float64, error) {
	b0, b1, ok := r.col.Discretizer().Span(lo, hi)
	if !ok {
		return 0, nil
	}
	return r.spanMass(attr, b0, b1)
}

func (r *refAcc) rectMass(p int, xlo, xhi, ylo, yhi float64) float64 {
	return rectMass(hist.NormSub(r.grids[p].Estimates()), r.col.Grid().Cells(), xlo, xhi, ylo, yhi)
}

// sumStates returns the elementwise sum of two states of one collector,
// the merge the pipeline performs across shards and aggregators.
func sumStates(a, b *AccState) *AccState {
	out := cloneState(a)
	out.N += b.N
	for _, pair := range [][2][]freq.CountState{{out.Levels, b.Levels}, {out.Grids, b.Grids}} {
		for i, cs := range pair[1] {
			for v, c := range cs.Counts {
				pair[0][i].Counts[v] += c
			}
			pair[0][i].N += cs.N
		}
	}
	return out
}

// cloneState deep-copies a state.
func cloneState(st *AccState) *AccState {
	return &AccState{N: st.N, Levels: freq.CloneCols(st.Levels), Grids: freq.CloneCols(st.Grids)}
}

// TestViewMatchesAccumulator pins the View of folded count columns
// against the reference estimators fed the same reports: every 1-D and
// 2-D answer must agree to within float roundoff, for a unary-encoding
// (OUE) and a value-type (GRR) oracle.
func TestViewMatchesAccumulator(t *testing.T) {
	grr := func(e float64, k int) (freq.Oracle, error) { return freq.NewGRR(e, k) }
	for _, oracle := range []freq.Factory{nil, grr} {
		col := viewTestCollector(t)
		if oracle != nil {
			var err error
			if col, err = NewCollector(col.Schema(), 1, Config{Buckets: 16, GridCells: 4, Oracle: oracle}); err != nil {
				t.Fatal(err)
			}
		}
		st, ref := col.NewState(), newRefAcc(col)
		r := rng.New(5)
		tup := schema.NewTuple(col.Schema())
		for i := 0; i < 4000; i++ {
			tup.Num[0] = rng.Uniform(r, -1, 1)
			tup.Num[1] = rng.Uniform(r, -0.5, 1)
			rep, err := col.Perturb(tup, r)
			if err != nil {
				t.Fatal(err)
			}
			if err := add(col, st, rep); err != nil {
				t.Fatal(err)
			}
			ref.add(rep)
		}
		assertViewMatchesRef(t, col.View(st), ref)
	}
}

// assertViewMatchesRef compares a view's 1-D and 2-D answers, and its
// error surfaces, against the reference estimators.
func assertViewMatchesRef(t *testing.T, v *View, ref *refAcc) {
	t.Helper()
	col := ref.col
	if v.N() != 4000 {
		t.Fatalf("view N = %d, want 4000", v.N())
	}
	queries := [][2]float64{{-1, 1}, {-0.6, 0.2}, {0.11, 0.13}, {0.5, -0.5}}
	for attr := 0; attr < 2; attr++ {
		for _, q := range queries {
			want, err1 := ref.range1D(attr, q[0], q[1])
			got, err2 := v.Range1D(attr, q[0], q[1])
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("attr %d %v: error mismatch (%v vs %v)", attr, q, err1, err2)
			}
			if math.Abs(want-got) > 1e-12 {
				t.Errorf("attr %d range %v: estimator %.9f != view %.9f", attr, q, want, got)
			}
		}
	}
	for _, q := range [][4]float64{{-1, 1, -1, 1}, {-0.4, 0.3, 0, 0.9}, {0.2, 0.21, -0.9, -0.8}} {
		want := ref.rectMass(0, q[0], q[1], q[2], q[3])
		got, err := v.Range2D(0, 1, q[0], q[1], q[2], q[3])
		if err != nil {
			t.Fatalf("2-D %v: %v", q, err)
		}
		if math.Abs(want-got) > 1e-12 {
			t.Errorf("2-D %v: estimator %.9f != view %.9f", q, want, got)
		}
		// The argument order is free.
		swapped, err := v.Range2D(1, 0, q[2], q[3], q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		if swapped != got {
			t.Errorf("2-D %v: swapped order %.9f != %.9f", q, swapped, got)
		}
	}

	// Error surfaces.
	if _, err := v.Range1D(2, -1, 1); err == nil {
		t.Error("Range1D on a categorical attribute should error")
	}
	if _, err := v.Range1D(99, -1, 1); err == nil {
		t.Error("Range1D on an out-of-range attribute should error")
	}
	if v.Hier(0) == nil || v.Hier(2) != nil || v.Hier(-1) != nil {
		t.Error("Hier accessor shape wrong")
	}
	if v.GridFor(0) == nil || v.GridFor(99) != nil {
		t.Error("GridFor accessor shape wrong")
	}
	if v.Collector() != col {
		t.Error("Collector accessor lost the configuration")
	}
}

// TestHierViewSpanMassExhaustive pins the allocation-free inline dyadic
// walk of HierView.SpanMass against the Decompose-based reference over
// every (lo, hi) pair of the domain, including the error cases.
func TestHierViewSpanMassExhaustive(t *testing.T) {
	c := hierCollector(t, 1, 16)
	st, ref := c.NewState(), newRefAcc(c)
	r := rng.New(9)
	for i := 0; i < 3000; i++ {
		hr := c.Hierarchy().Perturb(r.IntN(16), r)
		rep := Report{Kind: KindHier, Depth: hr.Depth, Resp: hr.Resp}
		if err := add(c, st, rep); err != nil {
			t.Fatal(err)
		}
		ref.add(rep)
	}
	view := c.View(st).Hier(0)
	for lo := 0; lo < 16; lo++ {
		for hi := lo; hi < 16; hi++ {
			want, err := ref.spanMass(0, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			got, err := view.SpanMass(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(want-got) > 1e-12 {
				t.Fatalf("span [%d,%d]: estimator %.9f != view %.9f", lo, hi, want, got)
			}
		}
	}
	for _, q := range [][2]int{{-1, 3}, {0, 16}, {5, 4}} {
		if _, err := view.SpanMass(q[0], q[1]); err == nil {
			t.Errorf("span [%d,%d] accepted", q[0], q[1])
		}
	}
}

// TestGridViewMatchesEstimator pins the grid view against the reference
// estimator, including the Joint copy semantics.
func TestGridViewMatchesEstimator(t *testing.T) {
	c := gridCollector(t, 1, 4)
	st, ref := c.NewState(), newRefAcc(c)
	r := rng.New(3)
	for i := 0; i < 2000; i++ {
		rep := Report{Kind: KindGrid, Resp: c.Grid().Perturb(rng.Uniform(r, -1, 1), rng.Uniform(r, -1, 1), r)}
		if err := add(c, st, rep); err != nil {
			t.Fatal(err)
		}
		ref.add(rep)
	}
	v := c.View(st).GridFor(0)
	if v.Cells() != 4 {
		t.Fatalf("cells = %d, want 4", v.Cells())
	}
	for _, q := range [][4]float64{{-1, 1, -1, 1}, {-0.3, 0.8, -1, 0}, {0, 0.1, 0.1, 0.2}} {
		want := ref.rectMass(0, q[0], q[1], q[2], q[3])
		got := v.RectMass(q[0], q[1], q[2], q[3])
		if math.Abs(want-got) > 1e-12 {
			t.Errorf("rect %v: estimator %.9f != view %.9f", q, want, got)
		}
	}
	j := v.Joint()
	j[0] = 99 // the returned histogram is a copy
	if v.Joint()[0] == 99 {
		t.Error("Joint returned the view's internal slice")
	}
}

// derivedSlots lists the slots of a view that hold a derived estimate:
// level slots by flat index (Collector.LevelIndex) and grids by pair.
func derivedSlots(v *View) (levels, grids map[int]bool) {
	levels, grids = map[int]bool{}, map[int]bool{}
	for _, attr := range v.col.numeric {
		for d, s := range v.Hier(attr).levels {
			if s.est.Load() != nil {
				levels[v.col.LevelIndex(attr, d+1)] = true
			}
		}
	}
	for p, g := range v.grids {
		if g.s.est.Load() != nil {
			grids[p] = true
		}
	}
	return levels, grids
}

// readAll makes one 1-D read per attribute and one 2-D read, deriving
// some of the view's slots.
func readAll(t *testing.T, v *View) {
	t.Helper()
	for _, attr := range []int{0, 1} {
		if _, err := v.Range1D(attr, -0.3, 0.55); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.Range2D(0, 1, -0.5, 0.5, 0, 1); err != nil {
		t.Fatal(err)
	}
}

// assertViewsIdentical compares every depth estimate and every consistent
// grid of two views bit for bit, deriving every slot of both.
func assertViewsIdentical(t *testing.T, got, want *View) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("N: %d != %d", got.N(), want.N())
	}
	for _, attr := range want.col.numeric {
		gh, wh := got.Hier(attr), want.Hier(attr)
		for l := 1; l <= len(wh.levels); l++ {
			gl, wl := gh.depth(l), wh.depth(l)
			for i := range wl {
				if gl[i] != wl[i] {
					t.Fatalf("attr %d depth %d[%d]: %v != %v", attr, l, i, gl[i], wl[i])
				}
			}
		}
	}
	for p := range want.grids {
		gj, wj := got.GridFor(p).Joint(), want.GridFor(p).Joint()
		for i := range wj {
			if gj[i] != wj[i] {
				t.Fatalf("grid %d joint[%d]: %v != %v", p, i, gj[i], wj[i])
			}
		}
	}
}

// TestViewDerivesOnFirstRead pins the lazy slots: a fresh view has derived
// nothing, a 1-D read derives exactly the depths of its attribute that the
// range's dyadic cover touches, a 2-D read derives only its pair's grid,
// and a repeated read derives nothing more.
func TestViewDerivesOnFirstRead(t *testing.T) {
	col := viewTestCollector(t)
	st := col.NewState()
	foldTracked(t, col, st, rng.New(41), 2000, map[int]bool{}, map[int]bool{})
	v := col.View(st)
	if lv, gv := derivedSlots(v); len(lv)+len(gv) != 0 {
		t.Fatalf("fresh view derived levels %v grids %v", lv, gv)
	}

	lo, hi := -0.55, 0.55
	b0, b1, _ := col.Discretizer().Span(lo, hi)
	nodes, err := Decompose(col.Hierarchy().Buckets(), b0, b1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{}
	for _, n := range nodes {
		want[col.LevelIndex(1, n.Depth)] = true
	}
	if len(want) < 2 || len(want) == col.Hierarchy().Depths() {
		t.Fatalf("cover of [%d,%d] touches depths %v; want a proper subset of several", b0, b1, want)
	}
	for round := 0; round < 2; round++ {
		if _, err := v.Range1D(1, lo, hi); err != nil {
			t.Fatal(err)
		}
		lv, gv := derivedSlots(v)
		if len(lv) != len(want) || len(gv) != 0 {
			t.Fatalf("after 1-D read: levels %v grids %v, want levels %v", lv, gv, want)
		}
		for li := range want {
			if !lv[li] {
				t.Fatalf("after 1-D read: levels %v, want %v", lv, want)
			}
		}
	}

	if _, err := v.Range2D(1, 0, -0.5, 0.5, 0, 1); err != nil {
		t.Fatal(err)
	}
	if lv, gv := derivedSlots(v); len(lv) != len(want) || len(gv) != 1 || !gv[0] {
		t.Fatalf("after 2-D read: levels %v grids %v", lv, gv)
	}
}

// TestViewConcurrentFirstRead races many goroutines on the first read of
// one depth and one grid of a fresh view: every reader must get the one
// slice the slot publishes, bit-identical to a serial derivation on
// another view of the same counts. CI runs it under the race detector.
func TestViewConcurrentFirstRead(t *testing.T) {
	// A wide domain makes each derivation long enough for readers to race.
	s, err := schema.New(
		schema.Attribute{Name: "x", Kind: schema.Numeric},
		schema.Attribute{Name: "y", Kind: schema.Numeric},
	)
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewCollector(s, 1, Config{Buckets: 1 << 13, GridCells: 48})
	if err != nil {
		t.Fatal(err)
	}
	st := col.NewState()
	foldTracked(t, col, st, rng.New(43), 300, map[int]bool{}, map[int]bool{})
	ref := col.View(st)
	want1, err := ref.Range1D(0, -0.8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := ref.Range2D(0, 1, -0.5, 0.5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	v := col.View(st)
	const readers = 8
	var (
		start, done sync.WaitGroup
		got1, got2  [readers]float64
		depth       [readers][]float64
		joint       [readers][]float64
	)
	start.Add(1)
	for i := 0; i < readers; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got1[i], _ = v.Range1D(0, -0.8, 0.3)
			got2[i], _ = v.Range2D(0, 1, -0.5, 0.5, 0, 1)
			depth[i] = v.Hier(0).depth(col.Hierarchy().Depths())
			joint[i] = v.GridFor(0).s.derived(consistent)
		}()
	}
	start.Done()
	done.Wait()
	for i := 0; i < readers; i++ {
		if got1[i] != want1 || got2[i] != want2 {
			t.Fatalf("reader %d: 1-D %v 2-D %v, want %v %v", i, got1[i], got2[i], want1, want2)
		}
		if &depth[i][0] != &depth[0][0] || &joint[i][0] != &joint[0][0] {
			t.Fatalf("reader %d got a different slice than reader 0", i)
		}
	}
	assertViewsIdentical(t, v, ref)
}
