package rangequery

import (
	"fmt"

	"ldp/internal/freq"
	"ldp/internal/hist"
	"ldp/internal/mech"
	"ldp/internal/rng"
)

// The 2-D grid answers conjunctive range queries over a pair of
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

// GridView is an immutable snapshot of one pair grid's support counts.
// Its Norm-Sub-consistent joint cell histogram is derived on the first
// read and shared by every later one, which is then a lookup loop with no
// allocation. It is safe for concurrent use.
type GridView struct {
	cells int
	s     *slot
}

// Cells returns the per-axis resolution g.
func (v *GridView) Cells() int { return v.cells }

// Joint returns a copy of the consistent joint cell histogram, indexed
// [cx*g + cy]: every entry is non-negative and the total is one.
func (v *GridView) Joint() []float64 {
	return append([]float64(nil), v.s.derived(consistent)...)
}

// RectMass answers the rectangle [xlo, xhi] x [ylo, yhi] from the
// consistent histogram, deriving it if this is the view's first read.
func (v *GridView) RectMass(xlo, xhi, ylo, yhi float64) float64 {
	return rectMass(v.s.derived(consistent), v.cells, xlo, xhi, ylo, yhi)
}

// consistent derives a grid's joint histogram: the debiased cell
// estimates post-processed with Norm-Sub.
func consistent(c freq.DebiasView) []float64 { return hist.NormSub(debias(c)) }

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
