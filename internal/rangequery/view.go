package rangequery

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// View is an immutable query-optimized snapshot of one aggregation
// domain's range-query state: every attribute's per-depth interval
// estimates and every pair's Norm-Sub-consistent 2-D grid, debiased once
// at construction. Range1D and Range2D are pure lookups — no locks, no
// estimator rebuild, no allocation — so one View can serve an arbitrary
// number of concurrent queries at the cost of a single precomputation per
// aggregation epoch. Build one with Accumulator.View.
type View struct {
	col   *Collector
	n     int64
	hier  []*HierView // indexed by schema attribute; nil for non-numeric
	grids []*GridView // aligned with col.pairs; nil when grids are disabled
}

// View snapshots the accumulator's estimates into an immutable query view.
// The caller must exclude concurrent folds for the duration of the call
// (the pipeline holds its shard locks).
func (a *Accumulator) View() *View {
	v := &View{col: a.col, n: a.n, hier: make([]*HierView, a.col.disc.src.Dim())}
	for attr, est := range a.hier {
		v.hier[attr] = est.View()
	}
	if a.grids != nil {
		v.grids = make([]*GridView, len(a.grids))
		for i, g := range a.grids {
			v.grids[i] = g.View()
		}
	}
	return v
}

// ViewWith snapshots like View but spreads the per-attribute hierarchy
// debiasing and per-grid Norm-Sub derivations over up to workers
// goroutines. Each component view is computed by the same deterministic
// code on the same inputs as the serial path and lands in its own slot,
// so the result is bit-identical to View(); workers <= 1 (or fewer jobs
// than workers would split usefully) just runs View. The same exclusion
// rules as View apply.
func (a *Accumulator) ViewWith(workers int) *View {
	jobs := len(a.col.numeric) + len(a.grids)
	if workers > jobs {
		workers = jobs
	}
	if workers <= 1 {
		return a.View()
	}
	v := &View{col: a.col, n: a.n, hier: make([]*HierView, a.col.disc.src.Dim())}
	if a.grids != nil {
		v.grids = make([]*GridView, len(a.grids))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= jobs {
					return
				}
				if j < len(a.col.numeric) {
					attr := a.col.numeric[j]
					v.hier[attr] = a.hier[attr].View()
				} else {
					p := j - len(a.col.numeric)
					v.grids[p] = a.grids[p].View()
				}
			}
		}()
	}
	wg.Wait()
	return v
}

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
// (schema index) lies in [lo, hi] from the precomputed per-depth
// estimates: a pure lookup with zero allocation.
func (v *View) Range1D(attr int, lo, hi float64) (float64, error) {
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
// AND attribute aj in [blo, bhi] from the pair's precomputed consistent
// grid: a pure lookup with zero allocation. The attribute order is free.
func (v *View) Range2D(ai, aj int, alo, ahi, blo, bhi float64) (float64, error) {
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
