package rangequery

import (
	"fmt"
	"math"
)

// AccState is the exported raw aggregate of an Accumulator: the support
// counts and reporter counts of every per-depth hierarchy estimator and
// every pair grid, in a fixed order derived from the collector
// configuration (numeric attributes in schema order, depths ascending,
// then pairs in Collector.Pairs order). All of it is additive — two
// states built from the same collector configuration combine by
// elementwise summation — which is what lets a fleet of edge aggregators
// fold into a root without touching estimator internals.
type AccState struct {
	// N is the total number of range reports folded in.
	N int64
	// Levels holds one entry per (numeric attribute, depth), attribute-
	// major: for attribute i of the collector's numeric list and depth d
	// in [1, log2 B], Levels[i*depths + d-1].
	Levels []CountState
	// Grids holds one entry per attribute pair, aligned with
	// Collector.Pairs. Empty when 2-D grids are disabled.
	Grids []CountState
}

// CountState is one frequency estimator's raw aggregate: per-domain-value
// support counts plus the reporter count they were accumulated over.
type CountState struct {
	Counts []float64
	N      int64
}

// addInto folds src into dst elementwise; shapes must already match.
func (c *CountState) addInto(dst *CountState) {
	for i, v := range c.Counts {
		dst.Counts[i] += v
	}
	dst.N += c.N
}

// ExportState deep-copies the accumulator's raw aggregate state. The
// caller is responsible for excluding concurrent writers (the sharded
// pipeline calls it under the shard lock).
func (a *Accumulator) ExportState() *AccState {
	depths := a.col.hier.depths
	st := &AccState{
		N:      a.n,
		Levels: make([]CountState, len(a.col.numeric)*depths),
	}
	for i, attr := range a.col.numeric {
		est := a.hier[attr]
		for d, l := range est.levels {
			st.Levels[i*depths+d] = CountState{Counts: l.Counts(), N: l.N()}
		}
	}
	if a.grids != nil {
		st.Grids = make([]CountState, len(a.grids))
		for i, g := range a.grids {
			st.Grids[i] = CountState{Counts: g.inner.Counts(), N: g.inner.N()}
		}
	}
	return st
}

// CheckState validates a state's shape and values against the collector
// configuration: every level and grid must be present with the exact
// domain size, counts must be finite and non-negative (support counts are
// monotone sums of 0/1 indicators; a negative or non-finite count can only
// come from a corrupt or malicious snapshot), and reporter counts must be
// non-negative.
func (c *Collector) CheckState(st *AccState) error {
	if st == nil {
		return fmt.Errorf("rangequery: nil state")
	}
	if st.N < 0 {
		return fmt.Errorf("rangequery: negative report count %d", st.N)
	}
	depths := c.hier.depths
	if len(st.Levels) != len(c.numeric)*depths {
		return fmt.Errorf("rangequery: state has %d hierarchy levels, want %d",
			len(st.Levels), len(c.numeric)*depths)
	}
	for i := range st.Levels {
		want := 1 << (i%depths + 1)
		if err := checkCountState(&st.Levels[i], want); err != nil {
			return fmt.Errorf("rangequery: hierarchy level %d: %w", i, err)
		}
	}
	wantGrids := 0
	if c.grid != nil {
		wantGrids = len(c.pairs)
	}
	if len(st.Grids) != wantGrids {
		return fmt.Errorf("rangequery: state has %d grids, want %d", len(st.Grids), wantGrids)
	}
	for i := range st.Grids {
		g := c.grid.cells
		if err := checkCountState(&st.Grids[i], g*g); err != nil {
			return fmt.Errorf("rangequery: grid %d: %w", i, err)
		}
	}
	return nil
}

func checkCountState(c *CountState, domain int) error {
	if len(c.Counts) != domain {
		return fmt.Errorf("domain %d, want %d", len(c.Counts), domain)
	}
	if c.N < 0 {
		return fmt.Errorf("negative reporter count %d", c.N)
	}
	for _, v := range c.Counts {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("count %v is negative or non-finite", v)
		}
	}
	return nil
}

// AddState validates st against the accumulator's configuration and folds
// it in. The caller is responsible for excluding concurrent writers.
func (a *Accumulator) AddState(st *AccState) error {
	if err := a.col.CheckState(st); err != nil {
		return err
	}
	depths := a.col.hier.depths
	for i, attr := range a.col.numeric {
		est := a.hier[attr]
		for d := range est.levels {
			s := &st.Levels[i*depths+d]
			if err := est.levels[d].AddCounts(s.Counts, s.N); err != nil {
				return fmt.Errorf("rangequery: fold level: %w", err)
			}
		}
	}
	for i := range st.Grids {
		s := &st.Grids[i]
		if err := a.grids[i].inner.AddCounts(s.Counts, s.N); err != nil {
			return fmt.Errorf("rangequery: fold grid: %w", err)
		}
	}
	a.n += st.N
	return nil
}

// Sub returns the elementwise difference cur - prev, the delta an edge
// ships after prev was already acknowledged. A nil prev returns a deep
// copy of cur. Shapes must match (both built from the same collector
// configuration).
func (cur *AccState) Sub(prev *AccState) (*AccState, error) {
	if prev == nil {
		return cur.Clone(), nil
	}
	if len(cur.Levels) != len(prev.Levels) || len(cur.Grids) != len(prev.Grids) {
		return nil, fmt.Errorf("rangequery: subtracting states of different shapes")
	}
	out := &AccState{
		N:      cur.N - prev.N,
		Levels: make([]CountState, len(cur.Levels)),
		Grids:  make([]CountState, len(cur.Grids)),
	}
	var err error
	for i := range cur.Levels {
		if out.Levels[i], err = subCountState(&cur.Levels[i], &prev.Levels[i]); err != nil {
			return nil, err
		}
	}
	for i := range cur.Grids {
		if out.Grids[i], err = subCountState(&cur.Grids[i], &prev.Grids[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func subCountState(cur, prev *CountState) (CountState, error) {
	if len(cur.Counts) != len(prev.Counts) {
		return CountState{}, fmt.Errorf("rangequery: subtracting counts of different domains")
	}
	out := CountState{Counts: make([]float64, len(cur.Counts)), N: cur.N - prev.N}
	for i, v := range cur.Counts {
		out.Counts[i] = v - prev.Counts[i]
	}
	return out, nil
}

// Add folds o into the state elementwise. Shapes and domains must match;
// on a mismatch Add returns an error and leaves the state unchanged.
func (st *AccState) Add(o *AccState) error {
	if o == nil {
		return nil
	}
	if len(st.Levels) != len(o.Levels) || len(st.Grids) != len(o.Grids) {
		return fmt.Errorf("rangequery: adding states of different shapes")
	}
	if !sameDomains(st.Levels, o.Levels) || !sameDomains(st.Grids, o.Grids) {
		return fmt.Errorf("rangequery: adding counts of different domains")
	}
	for i := range o.Levels {
		o.Levels[i].addInto(&st.Levels[i])
	}
	for i := range o.Grids {
		o.Grids[i].addInto(&st.Grids[i])
	}
	st.N += o.N
	return nil
}

// sameDomains reports whether two equally long count lists have the same
// domain slot by slot, so Add can check everything before it adds anything.
func sameDomains(a, b []CountState) bool {
	for i := range a {
		if len(a[i].Counts) != len(b[i].Counts) {
			return false
		}
	}
	return true
}

// Clone deep-copies the state.
func (st *AccState) Clone() *AccState {
	out := &AccState{
		N:      st.N,
		Levels: make([]CountState, len(st.Levels)),
		Grids:  make([]CountState, len(st.Grids)),
	}
	for i := range st.Levels {
		out.Levels[i] = cloneCountState(&st.Levels[i])
	}
	for i := range st.Grids {
		out.Grids[i] = cloneCountState(&st.Grids[i])
	}
	return out
}

func cloneCountState(c *CountState) CountState {
	counts := make([]float64, len(c.Counts))
	copy(counts, c.Counts)
	return CountState{Counts: counts, N: c.N}
}
