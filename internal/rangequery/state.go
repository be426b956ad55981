package rangequery

import (
	"fmt"

	"ldp/internal/freq"
)

// AccState is the range task's raw aggregate: the support counts and
// reporter counts of every hierarchy level and every pair grid, each one
// frequency oracle's count column, in a fixed order derived from the
// collector configuration (numeric attributes in schema order, depths
// ascending, then pairs in Collector.Pairs order). Collector.Fold adds
// reports into it and Collector.View answers queries from it. All of it
// is additive — two states built from the same collector configuration
// combine column by column (freq.AddCols) — which is what lets shards sum
// into one aggregate and a fleet of edge aggregators fold into a root.
type AccState struct {
	// N is the total number of range reports folded in.
	N int64
	// Levels holds one entry per (numeric attribute, depth), attribute-
	// major: for attribute i of the collector's numeric list and depth d
	// in [1, log2 B], Levels[i*depths + d-1] (see Collector.LevelIndex).
	Levels []freq.CountState
	// Grids holds one entry per attribute pair, aligned with
	// Collector.Pairs. Empty when 2-D grids are disabled.
	Grids []freq.CountState
}

// domain returns the number of values of level slot i, or with grid set
// of grid slot i: 2^d for depth d, g^2 for a g x g grid.
func (c *Collector) domain(grid bool, i int) int {
	if grid {
		return c.grid.cells * c.grid.cells
	}
	return 1 << (i%c.hier.depths + 1)
}

// NewState returns a zero state shaped for the collector: a 2^d-value
// column for every depth d of every numeric attribute's hierarchy, and a
// g^2-cell column for every pair grid.
func (c *Collector) NewState() *AccState {
	st := &AccState{Levels: make([]freq.CountState, c.LevelSlots()), Grids: make([]freq.CountState, c.GridSlots())}
	for f, cols := range [2][]freq.CountState{st.Levels, st.Grids} {
		for i := range cols {
			cols[i].Counts = make([]float64, c.domain(f == 1, i))
		}
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
// domain size and pass freq.CountState.Check (finite, non-negative
// counts and reporter counts; a negative or non-finite count can only come
// from a corrupt or malicious snapshot).
func (c *Collector) CheckState(st *AccState) error {
	if st == nil {
		return fmt.Errorf("rangequery: nil state")
	}
	if st.N < 0 {
		return fmt.Errorf("rangequery: negative report count %d", st.N)
	}
	for f, fam := range [2]struct {
		name string
		cols []freq.CountState
		want int
	}{{"hierarchy level", st.Levels, c.LevelSlots()}, {"grid", st.Grids, c.GridSlots()}} {
		if len(fam.cols) != fam.want {
			return fmt.Errorf("rangequery: state has %d %ss, want %d", len(fam.cols), fam.name, fam.want)
		}
		for i := range fam.cols {
			if err := fam.cols[i].Check(c.domain(f == 1, i)); err != nil {
				return fmt.Errorf("rangequery: %s %d: %w", fam.name, i, err)
			}
		}
	}
	return nil
}
