// Package rangequery answers 1-D and 2-D range queries over numeric
// attributes under eps-local differential privacy, the workload of Yang et
// al., "Answering Multi-Dimensional Range Queries under Local Differential
// Privacy" (VLDB 2021), built on the repository's frequency oracles.
//
// Each numeric attribute is discretized onto a B-bucket domain
// (Discretizer). One-dimensional ranges are served by a hierarchical
// interval oracle (HierCollector/HierView): users report a dyadic
// interval at a uniformly sampled tree depth and the aggregator composes
// any range from the O(log B) nodes of its canonical cover. Two-
// dimensional ranges are served by uniform g x g grids over attribute
// pairs (GridCollector/GridView) with Norm-Sub consistency
// post-processing shared with package hist.
//
// The top-level Collector implements the user side end to end: every user
// is routed to exactly one sub-task — a (attribute, depth) interval report
// or an attribute-pair cell report — so each report consumes the full
// budget eps, in the attribute-sampling spirit of the paper's Algorithm 4
// and the RS+FD line. The server side is plain count columns: an AccState
// holds one frequency oracle's support counts per hierarchy level and per
// grid, Collector.Fold adds a report into its column, states sum
// elementwise, and Collector.View debiases a copy of them on demand.
// Collector.Validate and Collector.CheckState check a report or a state
// against the configuration alone, so ingest and merges check before any
// count moves.
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
// — without touching any aggregate state. The configuration is immutable
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
