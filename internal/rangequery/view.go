package rangequery

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"ldp/internal/freq"
)

// View is an immutable query snapshot of one aggregation domain's range-
// query state. It is made of slots — one per depth of every numeric
// attribute's hierarchy and one per pair's 2-D grid — and each slot holds a
// copy of its support counts and reporter count taken when the view was
// built. A slot derives its debiased depth estimates, or its Norm-Sub-
// consistent grid, on the first read that needs them and shares them with
// every later read, so building a view costs a copy of its counts and a
// query pays only for the slots it touches: the first Range1D or Range2D
// over a slot allocates its estimate, and later reads are lookups with no
// lock and no allocation. Each slot's derivation depends on that slot's
// counts alone, so when it happens cannot change an answer. One View can
// serve any number of concurrent queries. Build one with Collector.View or
// Collector.RebuildView.
type View struct {
	col   *Collector
	n     int64
	hier  []*HierView // indexed by schema attribute; nil for non-numeric
	grids []*GridView // aligned with col.pairs; nil when grids are disabled
}

// View copies st's support counts into an immutable query view; no slot
// is derived yet. st must be shaped for the collector (NewState), and the
// caller must exclude concurrent folds into it for the duration of the
// call.
func (c *Collector) View(st *AccState) *View { return c.RebuildView(nil, st, nil, nil) }

// errNaNEndpoint rejects a NaN range endpoint: NaN orders with nothing, so
// unlike ±Inf it can neither clamp into [-1, 1] nor bound a range.
var errNaNEndpoint = errors.New("rangequery: range endpoint is NaN")

// Collector returns the collector configuration the view was built from.
func (v *View) Collector() *Collector { return v.col }

// N returns the number of reports behind the view.
func (v *View) N() int64 { return v.n }

// Hier returns the snapshotted hierarchical view of numeric attribute attr
// (schema index), or nil if the attribute has none.
func (v *View) Hier(attr int) *HierView {
	if attr < 0 || attr >= len(v.hier) {
		return nil
	}
	return v.hier[attr]
}

// GridFor returns the snapshotted grid view of pair index p (see
// Collector.Pairs), or nil when grids are disabled.
func (v *View) GridFor(p int) *GridView {
	if v.grids == nil || p < 0 || p >= len(v.grids) {
		return nil
	}
	return v.grids[p]
}

// Range1D estimates the fraction of users whose numeric attribute attr
// (schema index) lies in [lo, hi] from the attribute's per-depth
// estimates, deriving any depth the range's dyadic cover reads for the
// first time in this view. A NaN endpoint is an error; ±Inf clamps to the
// domain.
func (v *View) Range1D(attr int, lo, hi float64) (float64, error) {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return 0, errNaNEndpoint
	}
	hv := v.Hier(attr)
	if hv == nil {
		return 0, fmt.Errorf("rangequery: attribute %d is not a numeric attribute of the schema", attr)
	}
	b0, b1, ok := v.col.disc.Span(lo, hi)
	if !ok {
		return 0, nil
	}
	return hv.SpanMass(b0, b1)
}

// Range2D estimates the fraction of users with attribute ai in [alo, ahi]
// AND attribute aj in [blo, bhi] from the pair's consistent grid, deriving
// the grid if this is its first read in this view. The attribute order is
// free. A NaN endpoint is an error; ±Inf clamps to the domain.
func (v *View) Range2D(ai, aj int, alo, ahi, blo, bhi float64) (float64, error) {
	if math.IsNaN(alo) || math.IsNaN(ahi) || math.IsNaN(blo) || math.IsNaN(bhi) {
		return 0, errNaNEndpoint
	}
	if v.grids == nil {
		return 0, fmt.Errorf("rangequery: 2-D grids are disabled in this collector")
	}
	if aj < ai {
		ai, aj = aj, ai
		alo, ahi, blo, bhi = blo, bhi, alo, ahi
	}
	for p, pair := range v.col.pairs {
		if pair[0] == ai && pair[1] == aj {
			return v.grids[p].RectMass(alo, ahi, blo, bhi), nil
		}
	}
	return 0, fmt.Errorf("rangequery: no grid for attribute pair (%d,%d)", ai, aj)
}

// slot is one component of a view: a copy of one count column's support
// counts and reporter count taken at build, and the estimate derived from
// them on first read.
type slot struct {
	counts freq.DebiasView
	est    atomic.Pointer[[]float64]
}

// newSlot copies count column cs, which oracle o's reports filled, into a
// fresh, underived slot.
func newSlot(o freq.Oracle, cs *CountState) *slot {
	return &slot{counts: freq.NewDebiasView(o, append([]float64(nil), cs.Counts...), cs.N)}
}

// derived returns the slot's estimate, computing it with derive on the
// first call. Racing first readers may each run derive on the same
// immutable counts, so they compute the same bits; the first to publish
// wins and every caller returns its slice, which callers must not modify.
func (s *slot) derived(derive func(freq.DebiasView) []float64) []float64 {
	if p := s.est.Load(); p != nil {
		return *p
	}
	out := derive(s.counts)
	if !s.est.CompareAndSwap(nil, &out) {
		return *s.est.Load()
	}
	return out
}
