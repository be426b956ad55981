// Package rangequery answers 1-D and 2-D range queries over numeric
// attributes under eps-local differential privacy, the workload of Yang et
// al., "Answering Multi-Dimensional Range Queries under Local Differential
// Privacy" (VLDB 2021), built on the repository's frequency oracles.
//
// Each numeric attribute is discretized onto a B-bucket domain
// (Discretizer). One-dimensional ranges are served by a hierarchical
// interval oracle (HierCollector/HierEstimator): users report a dyadic
// interval at a uniformly sampled tree depth and the aggregator composes
// any range from the O(log B) nodes of its canonical cover. Two-
// dimensional ranges are served by uniform g x g grids over attribute
// pairs (GridCollector/GridEstimator) with Norm-Sub consistency
// post-processing shared with package hist.
//
// The top-level Collector implements the user side end to end: every user
// is routed to exactly one sub-task — a (attribute, depth) interval report
// or an attribute-pair cell report — so each report consumes the full
// budget eps, in the attribute-sampling spirit of the paper's Algorithm 4
// and the RS+FD line. Accumulator is the matching server side; the
// sharded pipeline guards one per shard. Collector.Validate and
// Collector.CheckState check a report or an exported state against the
// configuration alone, so ingest and merges check without any estimator.
package rangequery

import (
	"fmt"

	"ldp/internal/freq"
	"ldp/internal/rng"
	"ldp/internal/schema"
)

// Config tunes the range-query collector. The zero value selects the
// defaults documented on each field.
type Config struct {
	// Buckets is the leaf domain size B of the 1-D hierarchies; it must
	// be a power of two >= 2. 0 means 256.
	Buckets int
	// GridCells is the per-axis resolution g of the 2-D grids. 0 means 8.
	GridCells int
	// Oracle builds the frequency oracle used by every sub-task; nil
	// means OUE.
	Oracle freq.Factory
	// GridFraction is the probability a user is routed to a 2-D grid
	// task rather than a 1-D hierarchy task. 0 means a 50/50 split when
	// the schema has at least two numeric attributes; a negative value
	// disables 2-D grids entirely.
	GridFraction float64
}

// ReportKind says which sub-task a range report answers.
type ReportKind uint8

const (
	// KindHier is a 1-D hierarchical interval report.
	KindHier ReportKind = iota
	// KindGrid is a 2-D grid cell report.
	KindGrid
)

// Report is one user's randomized range-query submission: a frequency-
// oracle response about either a dyadic interval of one attribute (Kind
// KindHier; Attr and Depth are set) or a grid cell of one attribute pair
// (Kind KindGrid; Pair indexes Collector.Pairs()).
type Report struct {
	Kind  ReportKind
	Attr  int
	Depth int
	Pair  int
	Resp  freq.Response
}

// Collector randomizes user tuples into range reports. It is safe for
// concurrent use; all mutable state lives in the caller-supplied PRNG.
type Collector struct {
	disc    *Discretizer
	eps     float64
	numeric []int    // schema indices of numeric attributes
	numPos  []int    // schema attr -> position in numeric (-1 for others)
	pairs   [][2]int // numeric attribute pairs (i < j), schema indices
	hier    *HierCollector
	grid    *GridCollector // nil when grids are disabled
	pGrid   float64
}

// NewCollector builds the range-query collector for the numeric attributes
// of schema s at total budget eps.
func NewCollector(s *schema.Schema, eps float64, cfg Config) (*Collector, error) {
	if cfg.Buckets == 0 {
		cfg.Buckets = 256
	}
	if cfg.GridCells == 0 {
		cfg.GridCells = 8
	}
	disc, err := NewDiscretizer(s, cfg.Buckets)
	if err != nil {
		return nil, err
	}
	numeric := s.NumericIdx()
	if len(numeric) == 0 {
		return nil, fmt.Errorf("rangequery: schema has no numeric attributes")
	}
	var pairs [][2]int
	for i := 0; i < len(numeric); i++ {
		for j := i + 1; j < len(numeric); j++ {
			pairs = append(pairs, [2]int{numeric[i], numeric[j]})
		}
	}
	pGrid := cfg.GridFraction
	switch {
	case pGrid < 0, len(pairs) == 0:
		pGrid = 0
	case pGrid == 0:
		pGrid = 0.5
	case pGrid > 1:
		return nil, fmt.Errorf("rangequery: GridFraction %v > 1", cfg.GridFraction)
	}
	hier, err := NewHierCollector(eps, cfg.Buckets, cfg.Oracle)
	if err != nil {
		return nil, err
	}
	numPos := make([]int, s.Dim())
	for i := range numPos {
		numPos[i] = -1
	}
	for pos, attr := range numeric {
		numPos[attr] = pos
	}
	c := &Collector{disc: disc, eps: eps, numeric: numeric, numPos: numPos, pairs: pairs, hier: hier, pGrid: pGrid}
	if pGrid > 0 {
		c.grid, err = NewGridCollector(eps, cfg.GridCells, cfg.Oracle)
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Schema returns the source schema.
func (c *Collector) Schema() *schema.Schema { return c.disc.src }

// Discretizer returns the bucketized view of the schema.
func (c *Collector) Discretizer() *Discretizer { return c.disc }

// Epsilon returns the total per-user budget.
func (c *Collector) Epsilon() float64 { return c.eps }

// Hierarchy returns the shared 1-D interval collector.
func (c *Collector) Hierarchy() *HierCollector { return c.hier }

// Grid returns the shared 2-D grid collector, or nil when grids are
// disabled (GridFraction < 0 or fewer than two numeric attributes).
func (c *Collector) Grid() *GridCollector { return c.grid }

// Pairs returns the attribute pairs served by 2-D grids, as schema index
// pairs (i < j) aligned with Report.Pair.
func (c *Collector) Pairs() [][2]int { return c.pairs }

// GridFraction returns the probability a user is routed to a grid task.
func (c *Collector) GridFraction() float64 { return c.pGrid }

// Perturb routes one user to a uniformly chosen sub-task and randomizes
// their tuple into a range report under eps-LDP.
func (c *Collector) Perturb(t schema.Tuple, r *rng.Rand) (Report, error) {
	if err := t.Check(c.disc.src); err != nil {
		return Report{}, err
	}
	if c.grid != nil && rng.Bernoulli(r, c.pGrid) {
		p := r.IntN(len(c.pairs))
		i, j := c.pairs[p][0], c.pairs[p][1]
		return Report{
			Kind: KindGrid,
			Pair: p,
			Resp: c.grid.Perturb(t.Num[i], t.Num[j], r),
		}, nil
	}
	attr := c.numeric[r.IntN(len(c.numeric))]
	hr := c.hier.Perturb(c.disc.BucketOf(t.Num[attr]), r)
	return Report{Kind: KindHier, Attr: attr, Depth: hr.Depth, Resp: hr.Resp}, nil
}

// Validate checks a range report against the collector configuration —
// a numeric attribute and a depth in [1, log2 B] for a hierarchy report,
// a pair index for a grid report, and a response shaped like the oracle's
// — without touching any estimator state. The configuration is immutable
// after construction, so Validate is safe for concurrent use (batch ingest
// validates a whole batch before folding any of it in).
func (c *Collector) Validate(rep Report) error {
	switch rep.Kind {
	case KindHier:
		if rep.Attr < 0 || rep.Attr >= len(c.numPos) || c.numPos[rep.Attr] < 0 {
			return fmt.Errorf("rangequery: report for non-numeric or out-of-range attribute %d", rep.Attr)
		}
		return c.hier.Check(HierReport{Depth: rep.Depth, Resp: rep.Resp})
	case KindGrid:
		if c.grid == nil {
			return fmt.Errorf("rangequery: grid report but grids are disabled")
		}
		if rep.Pair < 0 || rep.Pair >= len(c.pairs) {
			return fmt.Errorf("rangequery: report pair %d out of range [0,%d)", rep.Pair, len(c.pairs))
		}
		return c.grid.Check(rep.Resp)
	default:
		return fmt.Errorf("rangequery: unknown report kind %d", rep.Kind)
	}
}

// Accumulator is the unlocked estimator state for range reports: the
// per-attribute hierarchies and per-pair grids of one aggregation domain.
// It is not safe for concurrent use — callers provide their own locking
// (the sharded pipeline guards one Accumulator per shard with the shard
// lock).
type Accumulator struct {
	col   *Collector
	n     int64
	hier  map[int]*HierEstimator // keyed by schema attribute index
	grids []*GridEstimator       // aligned with col.pairs; nil when disabled
}

// NewAccumulator creates unlocked estimator state matching the collector's
// configuration.
func NewAccumulator(c *Collector) *Accumulator {
	a := &Accumulator{col: c, hier: make(map[int]*HierEstimator, len(c.numeric))}
	for _, attr := range c.numeric {
		a.hier[attr] = NewHierEstimator(c.hier)
	}
	if c.grid != nil {
		a.grids = make([]*GridEstimator, len(c.pairs))
		for i := range a.grids {
			a.grids[i] = NewGridEstimator(c.grid)
		}
	}
	return a
}

// Collector returns the collector configuration this accumulator matches.
func (a *Accumulator) Collector() *Collector { return a.col }

// N returns the number of reports folded in.
func (a *Accumulator) N() int64 { return a.n }

// Add validates and folds one report in.
func (a *Accumulator) Add(rep Report) error {
	if err := a.col.Validate(rep); err != nil {
		return err
	}
	a.FoldValidated(rep)
	return nil
}

// FoldValidated folds one report that has already passed
// Collector.Validate, without re-checking it: the batch ingest path
// validates lock-free up front and calls this inside the shard critical
// section.
func (a *Accumulator) FoldValidated(rep Report) {
	switch rep.Kind {
	case KindHier:
		a.hier[rep.Attr].levels[rep.Depth-1].Add(rep.Resp)
	case KindGrid:
		a.grids[rep.Pair].inner.Add(rep.Resp)
	}
	a.n++
}

// Merge folds another accumulator built from the same collector into this
// one. The source is only read; the caller is responsible for excluding
// concurrent writers on both sides.
func (a *Accumulator) Merge(o *Accumulator) {
	a.n += o.n
	for attr, est := range a.hier {
		est.Merge(o.hier[attr])
	}
	for i, g := range a.grids {
		g.Merge(o.grids[i])
	}
}

// Range1D estimates the fraction of users whose numeric attribute attr
// (schema index) lies in [lo, hi], from that attribute's hierarchical
// interval estimates. Query endpoints are rounded outward to bucket
// boundaries (see Discretizer.Span).
func (a *Accumulator) Range1D(attr int, lo, hi float64) (float64, error) {
	est, ok := a.hier[attr]
	if !ok {
		return 0, fmt.Errorf("rangequery: attribute %d is not a numeric attribute of the schema", attr)
	}
	b0, b1, ok := a.col.disc.Span(lo, hi)
	if !ok {
		return 0, nil
	}
	return est.SpanMass(b0, b1)
}

// Range2D estimates the fraction of users with attribute ai in [alo, ahi]
// AND attribute aj in [blo, bhi], from the pair's consistent 2-D grid.
// The attribute order is free: (ai, aj) and (aj, ai) answer the same
// query.
func (a *Accumulator) Range2D(ai, aj int, alo, ahi, blo, bhi float64) (float64, error) {
	if a.grids == nil {
		return 0, fmt.Errorf("rangequery: 2-D grids are disabled in this collector")
	}
	if aj < ai {
		ai, aj = aj, ai
		alo, ahi, blo, bhi = blo, bhi, alo, ahi
	}
	for p, pair := range a.col.pairs {
		if pair[0] == ai && pair[1] == aj {
			return a.grids[p].RectMass(alo, ahi, blo, bhi), nil
		}
	}
	return 0, fmt.Errorf("rangequery: no grid for attribute pair (%d,%d)", ai, aj)
}

// Hier returns the hierarchical estimator of numeric attribute attr
// (schema index), or nil if the attribute has none.
func (a *Accumulator) Hier(attr int) *HierEstimator { return a.hier[attr] }

// GridFor returns the grid estimator of pair index p (see
// Collector.Pairs), or nil when grids are disabled.
func (a *Accumulator) GridFor(p int) *GridEstimator {
	if a.grids == nil || p < 0 || p >= len(a.grids) {
		return nil
	}
	return a.grids[p]
}
