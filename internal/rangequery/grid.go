package rangequery

import (
	"fmt"

	"ldp/internal/freq"
	"ldp/internal/hist"
	"ldp/internal/mech"
	"ldp/internal/rng"
)

// The 2-D grid estimator answers conjunctive range queries over a pair of
// numeric attributes (Yang et al.'s two-dimensional grids, TDG): the unit
// square [-1,1]^2 is tiled by a uniform g x g grid, each user reports the
// cell containing their pair of values through a frequency oracle over the
// g^2 cell domain at the full budget, and the aggregator reads any
// rectangle off the debiased joint histogram. Coarse grids trade
// discretization bias for per-cell noise; g in the 8-16 range is the
// paper's sweet spot at moderate eps.

// GridCollector randomizes a pair of numeric values into a cell report.
// It is safe for concurrent use.
type GridCollector struct {
	eps    float64
	cells  int // per-axis resolution g
	oracle freq.Oracle
	bits   bool // whether the oracle responses carry bitsets
}

// NewGridCollector builds a g x g grid collector. factory chooses the
// frequency oracle over the g^2 cells (nil means OUE).
func NewGridCollector(eps float64, cells int, factory freq.Factory) (*GridCollector, error) {
	if err := mech.ValidateEpsilon(eps); err != nil {
		return nil, err
	}
	if cells < 2 {
		return nil, fmt.Errorf("rangequery: need >= 2 grid cells per axis, got %d", cells)
	}
	if factory == nil {
		factory = func(e float64, k int) (freq.Oracle, error) { return freq.NewOUE(e, k) }
	}
	o, err := factory(eps, cells*cells)
	if err != nil {
		return nil, err
	}
	return &GridCollector{eps: eps, cells: cells, oracle: o, bits: freq.UsesBitset(o)}, nil
}

// Epsilon returns the privacy budget.
func (c *GridCollector) Epsilon() float64 { return c.eps }

// Cells returns the per-axis resolution g.
func (c *GridCollector) Cells() int { return c.cells }

// Oracle returns the frequency oracle over the g^2 cell domain.
func (c *GridCollector) Oracle() freq.Oracle { return c.oracle }

// CellOf maps a value pair in [-1,1]^2 (clamped) to its flattened cell
// index cx*g + cy.
func (c *GridCollector) CellOf(x, y float64) int {
	return bucketOf(x, c.cells)*c.cells + bucketOf(y, c.cells)
}

// Perturb randomizes the pair's cell membership under eps-LDP.
func (c *GridCollector) Perturb(x, y float64, r *rng.Rand) freq.Response {
	return c.oracle.Perturb(c.CellOf(x, y), r)
}

// Check validates a response against the g^2 cell domain (decoded
// frames are attacker-controlled).
func (c *GridCollector) Check(resp freq.Response) error {
	return checkResponse(resp, c.cells*c.cells, c.bits)
}

// GridEstimator aggregates cell reports into a consistent joint histogram
// and answers rectangle queries. It is not safe for concurrent use; use
// one per goroutine and Merge.
type GridEstimator struct {
	col   *GridCollector
	inner *freq.Estimator
}

// NewGridEstimator creates an estimator bound to the collector's oracle.
func NewGridEstimator(c *GridCollector) *GridEstimator {
	return &GridEstimator{col: c, inner: freq.NewEstimator(c.oracle)}
}

// Add folds one response in, rejecting responses whose shape does not
// match the oracle.
func (e *GridEstimator) Add(resp freq.Response) error {
	if err := e.col.Check(resp); err != nil {
		return err
	}
	e.inner.Add(resp)
	return nil
}

// Merge combines another estimator built from the same collector.
func (e *GridEstimator) Merge(o *GridEstimator) { e.inner.Merge(o.inner) }

// N returns the number of responses aggregated.
func (e *GridEstimator) N() int64 { return e.inner.N() }

// Joint returns the consistent joint cell histogram: the debiased g^2
// frequency estimates post-processed with Norm-Sub, so every entry is
// non-negative and the total is exactly one. Index as [cx*g + cy].
func (e *GridEstimator) Joint() []float64 {
	return hist.NormSub(e.inner.Estimates())
}

// RectMass estimates the population mass of the rectangle
// [xlo, xhi] x [ylo, yhi] from the consistent joint histogram; cells
// partially covered contribute proportionally to their overlap area.
func (e *GridEstimator) RectMass(xlo, xhi, ylo, yhi float64) float64 {
	return rectMass(e.Joint(), e.col.cells, xlo, xhi, ylo, yhi)
}

// View snapshots the consistent joint histogram so that many rectangle
// queries can be served without re-debiasing or re-running Norm-Sub: the
// per-epoch precomputation a server answering heavy query traffic does
// once per view.
func (e *GridEstimator) View() *GridView {
	return &GridView{cells: e.col.cells, joint: e.Joint()}
}

// GridView is an immutable snapshot of a GridEstimator's Norm-Sub-
// consistent joint cell histogram. It is safe for concurrent use; queries
// allocate nothing.
type GridView struct {
	cells int
	joint []float64
}

// Cells returns the per-axis resolution g.
func (v *GridView) Cells() int { return v.cells }

// Joint returns a copy of the consistent joint cell histogram.
func (v *GridView) Joint() []float64 {
	out := make([]float64, len(v.joint))
	copy(out, v.joint)
	return out
}

// RectMass answers the rectangle [xlo, xhi] x [ylo, yhi] from the
// precomputed consistent histogram: a pure lookup loop, zero allocation.
func (v *GridView) RectMass(xlo, xhi, ylo, yhi float64) float64 {
	return rectMass(v.joint, v.cells, xlo, xhi, ylo, yhi)
}

// rectMass integrates the joint histogram over a clamped query rectangle;
// cells partially covered contribute proportionally to their overlap area.
func rectMass(joint []float64, g int, xlo, xhi, ylo, yhi float64) float64 {
	xlo, xhi = mech.Clamp1(xlo), mech.Clamp1(xhi)
	ylo, yhi = mech.Clamp1(ylo), mech.Clamp1(yhi)
	if xhi <= xlo || yhi <= ylo {
		return 0
	}
	w := 2 / float64(g)
	mass := 0.0
	for cx := 0; cx < g; cx++ {
		fx := overlap1(xlo, xhi, -1+float64(cx)*w, w)
		if fx <= 0 {
			continue
		}
		for cy := 0; cy < g; cy++ {
			fy := overlap1(ylo, yhi, -1+float64(cy)*w, w)
			if fy > 0 {
				mass += joint[cx*g+cy] * fx * fy
			}
		}
	}
	return mass
}

// overlap1 returns the fraction of the cell interval [cellLo, cellLo+w)
// covered by the query interval [lo, hi].
func overlap1(lo, hi, cellLo, w float64) float64 {
	a, b := lo, hi
	if cellLo > a {
		a = cellLo
	}
	if cellLo+w < b {
		b = cellLo + w
	}
	if b <= a {
		return 0
	}
	return (b - a) / w
}
