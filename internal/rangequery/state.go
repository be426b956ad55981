package rangequery

import (
	"fmt"
	"math"

	"ldp/internal/freq"
)

// AccState is the range task's raw aggregate: the support counts and
// reporter counts of every hierarchy level and every pair grid, each one
// frequency oracle's count column, in a fixed order derived from the
// collector configuration (numeric attributes in schema order, depths
// ascending, then pairs in Collector.Pairs order). Collector.Fold adds
// reports into it and Collector.View answers queries from it. All of it
// is additive — two states built from the same collector configuration
// combine by elementwise summation — which is what lets shards sum into
// one aggregate and a fleet of edge aggregators fold into a root.
type AccState struct {
	// N is the total number of range reports folded in.
	N int64
	// Levels holds one entry per (numeric attribute, depth), attribute-
	// major: for attribute i of the collector's numeric list and depth d
	// in [1, log2 B], Levels[i*depths + d-1] (see Collector.LevelIndex).
	Levels []CountState
	// Grids holds one entry per attribute pair, aligned with
	// Collector.Pairs. Empty when 2-D grids are disabled.
	Grids []CountState
}

// CountState is one frequency oracle's raw aggregate: per-domain-value
// support counts plus the reporter count they were accumulated over.
type CountState struct {
	Counts []float64
	N      int64
}

// NewState returns a zero state shaped for the collector: a 2^d-value
// column for every depth d of every numeric attribute's hierarchy, and a
// g^2-cell column for every pair grid.
func (c *Collector) NewState() *AccState {
	depths := c.hier.depths
	st := &AccState{Levels: make([]CountState, c.LevelSlots()), Grids: make([]CountState, c.GridSlots())}
	for i := range st.Levels {
		st.Levels[i].Counts = make([]float64, 1<<(i%depths+1))
	}
	for i := range st.Grids {
		st.Grids[i].Counts = make([]float64, c.grid.cells*c.grid.cells)
	}
	return st
}

// Fold adds one report that has already passed Validate into st, which
// must be shaped for the collector: the report's level or grid column
// gains the response's support (every set bit of a unary-encoded
// response, or the one value of a GRR response) and one reporter. It
// returns that column's index, in Levels for a hierarchy report (its
// LevelIndex) and in Grids for a grid report (its pair). It does not
// re-check the report, so the batch ingest path validates lock-free up
// front and folds inside the shard critical section.
func (c *Collector) Fold(st *AccState, rep Report) int {
	i, cols := rep.Pair, st.Grids
	if rep.Kind == KindHier {
		i, cols = c.numPos[rep.Attr]*c.hier.depths+rep.Depth-1, st.Levels
	}
	cs := &cols[i]
	if rep.Resp.Bits != nil {
		freq.FoldBits(cs.Counts, rep.Resp.Bits)
	} else {
		cs.Counts[rep.Resp.Value]++
	}
	cs.N++
	st.N++
	return i
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

// Sub returns the elementwise difference cur - prev, the delta an edge
// ships after prev was already acknowledged. A nil prev returns a deep
// copy of cur. Shapes must match (both built from the same collector
// configuration).
func (cur *AccState) Sub(prev *AccState) (*AccState, error) {
	if prev == nil {
		return cur.Clone(), nil
	}
	if !cur.SameShape(prev) {
		return nil, fmt.Errorf("rangequery: subtracting states of different shapes")
	}
	out := &AccState{
		N:      cur.N - prev.N,
		Levels: make([]CountState, len(cur.Levels)),
		Grids:  make([]CountState, len(cur.Grids)),
	}
	for i := range cur.Levels {
		out.Levels[i] = subCountState(&cur.Levels[i], &prev.Levels[i])
	}
	for i := range cur.Grids {
		out.Grids[i] = subCountState(&cur.Grids[i], &prev.Grids[i])
	}
	return out, nil
}

func subCountState(cur, prev *CountState) CountState {
	out := CountState{Counts: make([]float64, len(cur.Counts)), N: cur.N - prev.N}
	for i, v := range cur.Counts {
		out.Counts[i] = v - prev.Counts[i]
	}
	return out
}

// SameShape reports whether o has the same shape as st: as many levels
// and grids, each with the same domain, so one adds into the other
// elementwise.
func (st *AccState) SameShape(o *AccState) bool {
	return len(st.Levels) == len(o.Levels) && len(st.Grids) == len(o.Grids) &&
		sameDomains(st.Levels, o.Levels) && sameDomains(st.Grids, o.Grids)
}

// sameDomains reports whether two equally long count lists have the same
// domain slot by slot.
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
