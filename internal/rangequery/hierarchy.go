package rangequery

import (
	"fmt"
	"math/bits"

	"ldp/internal/freq"
	"ldp/internal/mech"
	"ldp/internal/rng"
)

// The 1-D hierarchical interval oracle decomposes a B-bucket domain
// (B a power of two) into a complete binary tree of dyadic intervals:
// depth l (1 <= l <= log2 B) partitions the domain into 2^l nodes of
// B/2^l buckets each. Every user samples one depth uniformly and reports
// the node containing their bucket through a frequency oracle at the full
// budget eps; the aggregator answers an arbitrary bucket range by summing
// the estimates of the O(log B) nodes in its canonical dyadic cover
// (Hay et al. 2010; Yang et al.'s HIO under LDP).
//
// Compared to estimating the B leaf frequencies directly, the hierarchy
// pays a factor log2(B) in per-node users but caps the number of noisy
// terms per query at 2 log2(B) instead of O(B), which wins for all but
// the narrowest ranges.

// Node identifies one dyadic interval: at depth l, index i covers buckets
// [i*B/2^l, (i+1)*B/2^l). Depth 0 (the root) is never reported — its mass
// is 1 by definition.
type Node struct {
	Depth int
	Index int
}

// Decompose returns the canonical dyadic cover of the inclusive bucket
// range [lo, hi] in a domain of the given power-of-two size: greedily the
// largest aligned node that starts at the cursor and fits. The cover has
// at most 2*log2(buckets) nodes, all with Depth >= 1 (the full domain is
// returned as the two depth-1 halves).
func Decompose(buckets, lo, hi int) ([]Node, error) {
	if buckets < 2 || bits.OnesCount(uint(buckets)) != 1 {
		return nil, fmt.Errorf("rangequery: buckets must be a power of two >= 2, got %d", buckets)
	}
	if lo < 0 || hi >= buckets || lo > hi {
		return nil, fmt.Errorf("rangequery: bucket range [%d,%d] outside domain [0,%d]", lo, hi, buckets-1)
	}
	maxDepth := bits.Len(uint(buckets)) - 1
	var nodes []Node
	for lo <= hi {
		// Largest power-of-two block aligned at lo...
		size := lo & -lo
		if lo == 0 || size > buckets/2 {
			size = buckets / 2 // depth >= 1: never emit the root
		}
		// ...shrunk until it fits in the remaining range.
		for size > hi-lo+1 {
			size >>= 1
		}
		depth := maxDepth - (bits.Len(uint(size)) - 1)
		nodes = append(nodes, Node{Depth: depth, Index: lo / size})
		lo += size
	}
	return nodes, nil
}

// HierReport is one user's hierarchical interval report: a frequency-
// oracle response about the node containing the user's bucket at the
// sampled depth.
type HierReport struct {
	Depth int
	Resp  freq.Response
}

// HierCollector randomizes bucket indices into hierarchical interval
// reports. It is safe for concurrent use.
type HierCollector struct {
	eps     float64
	buckets int
	depths  int           // log2(buckets)
	oracles []freq.Oracle // oracles[l-1] serves depth l over 2^l nodes
	bits    bool          // whether the oracle responses carry bitsets
}

// NewHierCollector builds the interval oracle over a power-of-two bucket
// domain. factory chooses the frequency oracle per depth (nil means OUE);
// each depth runs at the full budget eps because every user reports
// exactly one depth.
func NewHierCollector(eps float64, buckets int, factory freq.Factory) (*HierCollector, error) {
	if err := mech.ValidateEpsilon(eps); err != nil {
		return nil, err
	}
	if buckets < 2 || bits.OnesCount(uint(buckets)) != 1 {
		return nil, fmt.Errorf("rangequery: buckets must be a power of two >= 2, got %d", buckets)
	}
	if factory == nil {
		factory = func(e float64, k int) (freq.Oracle, error) { return freq.NewOUE(e, k) }
	}
	depths := bits.Len(uint(buckets)) - 1
	oracles := make([]freq.Oracle, depths)
	for l := 1; l <= depths; l++ {
		o, err := factory(eps, 1<<l)
		if err != nil {
			return nil, fmt.Errorf("rangequery: oracle for depth %d: %w", l, err)
		}
		oracles[l-1] = o
	}
	return &HierCollector{
		eps:     eps,
		buckets: buckets,
		depths:  depths,
		oracles: oracles,
		bits:    freq.UsesBitset(oracles[0]),
	}, nil
}

// Epsilon returns the privacy budget.
func (c *HierCollector) Epsilon() float64 { return c.eps }

// Buckets returns the leaf domain size B.
func (c *HierCollector) Buckets() int { return c.buckets }

// Depths returns the number of reporting depths, log2(B).
func (c *HierCollector) Depths() int { return c.depths }

// Oracle returns the frequency oracle serving the given depth (1-based).
func (c *HierCollector) Oracle(depth int) freq.Oracle { return c.oracles[depth-1] }

// Perturb samples a tree depth uniformly and reports the dyadic ancestor
// of the (clamped) bucket at that depth under eps-LDP.
func (c *HierCollector) Perturb(bucket int, r *rng.Rand) HierReport {
	if bucket < 0 {
		bucket = 0
	}
	if bucket >= c.buckets {
		bucket = c.buckets - 1
	}
	depth := 1 + r.IntN(c.depths)
	node := bucket >> (c.depths - depth)
	return HierReport{Depth: depth, Resp: c.oracles[depth-1].Perturb(node, r)}
}

// Check validates a report against the collector configuration: a depth
// in [1, log2 B] and a response shaped like that depth's oracle.
func (c *HierCollector) Check(rep HierReport) error {
	if rep.Depth < 1 || rep.Depth > c.depths {
		return fmt.Errorf("rangequery: report depth %d outside [1,%d]", rep.Depth, c.depths)
	}
	return checkResponse(rep.Resp, 1<<rep.Depth, c.bits)
}

// HierEstimator aggregates hierarchical reports and answers range queries
// by dyadic decomposition. It is not safe for concurrent use; use one per
// goroutine and Merge.
type HierEstimator struct {
	col    *HierCollector
	levels []*freq.Estimator
}

// NewHierEstimator creates an estimator bound to the collector's oracles.
func NewHierEstimator(c *HierCollector) *HierEstimator {
	levels := make([]*freq.Estimator, c.depths)
	for i, o := range c.oracles {
		levels[i] = freq.NewEstimator(o)
	}
	return &HierEstimator{col: c, levels: levels}
}

// Add folds one report in.
func (e *HierEstimator) Add(rep HierReport) error {
	if err := e.col.Check(rep); err != nil {
		return err
	}
	e.levels[rep.Depth-1].Add(rep.Resp)
	return nil
}

// checkResponse guards the estimators against responses whose shape does
// not match the oracle — decoded network frames are attacker-controlled:
// an undersized bitset would panic deep inside freq.Estimator.Add, a
// bitset folded into a value-type (GRR) estimator would poison every
// domain value from one report, and an out-of-range value would silently
// skew the reporter count.
func checkResponse(resp freq.Response, cardinality int, wantBits bool) error {
	if wantBits {
		if resp.Bits == nil {
			return fmt.Errorf("rangequery: response is missing the oracle's bitset")
		}
		if len(resp.Bits) != freq.BitsetWords(cardinality) {
			return fmt.Errorf("rangequery: response bitset has %d words, oracle domain %d needs %d",
				len(resp.Bits), cardinality, freq.BitsetWords(cardinality))
		}
		return nil
	}
	if resp.Bits != nil {
		return fmt.Errorf("rangequery: unexpected bitset for a value-type oracle")
	}
	if resp.Value < 0 || resp.Value >= cardinality {
		return fmt.Errorf("rangequery: response value %d outside [0,%d)", resp.Value, cardinality)
	}
	return nil
}

// Merge combines another estimator built from the same collector.
func (e *HierEstimator) Merge(o *HierEstimator) {
	for i := range e.levels {
		e.levels[i].Merge(o.levels[i])
	}
}

// N returns the number of reports aggregated across all depths.
func (e *HierEstimator) N() int64 {
	var n int64
	for _, l := range e.levels {
		n += l.N()
	}
	return n
}

// NodeEstimate returns the debiased frequency estimate of one dyadic node,
// computed from the users that sampled its depth.
func (e *HierEstimator) NodeEstimate(n Node) float64 {
	return e.levels[n.Depth-1].Estimates()[n.Index]
}

// SpanMass estimates the population mass of the inclusive bucket range
// [lo, hi] by summing its canonical cover's node estimates, clamped into
// [0, 1]. The estimate before clamping is unbiased; its variance is the
// sum of at most 2*log2(B) node variances.
func (e *HierEstimator) SpanMass(lo, hi int) (float64, error) {
	nodes, err := Decompose(e.col.buckets, lo, hi)
	if err != nil {
		return 0, err
	}
	mass := 0.0
	// One Estimates() call per touched depth, not per node.
	byDepth := map[int][]float64{}
	for _, n := range nodes {
		est, ok := byDepth[n.Depth]
		if !ok {
			est = e.levels[n.Depth-1].Estimates()
			byDepth[n.Depth] = est
		}
		mass += est[n.Index]
	}
	if mass < 0 {
		mass = 0
	}
	if mass > 1 {
		mass = 1
	}
	return mass, nil
}

// Histogram returns the debiased leaf-level (depth log2 B) frequency
// estimates: the flat-domain view of the hierarchy, as a baseline and for
// consistency post-processing.
func (e *HierEstimator) Histogram() []float64 {
	return e.levels[len(e.levels)-1].Estimates()
}

// View snapshots the debiased estimates of every depth so that many
// queries can be served without re-debiasing; this is what a server
// answering heavy query traffic should hand out per aggregation epoch.
func (e *HierEstimator) View() *HierView {
	levels := make([][]float64, len(e.levels))
	for i, l := range e.levels {
		levels[i] = l.Estimates()
	}
	return &HierView{buckets: e.col.buckets, levels: levels}
}

// viewPartial snapshots like View but re-debiases only the depths the
// dirty predicate flags (0-based), aliasing the clean depths' estimate
// slices from prev — safe because HierView levels are immutable once
// built. prev must come from an estimator of the same collector.
func (e *HierEstimator) viewPartial(prev *HierView, dirty func(d int) bool) *HierView {
	levels := make([][]float64, len(e.levels))
	for d, l := range e.levels {
		if dirty(d) {
			levels[d] = l.Estimates()
		} else {
			levels[d] = prev.levels[d]
		}
	}
	return &HierView{buckets: e.col.buckets, levels: levels}
}

// HierView is an immutable snapshot of a HierEstimator's per-depth
// estimates. It is safe for concurrent use.
type HierView struct {
	buckets int
	levels  [][]float64
}

// NodeEstimate returns the snapshotted estimate of one dyadic node.
func (v *HierView) NodeEstimate(n Node) float64 {
	return v.levels[n.Depth-1][n.Index]
}

// SpanMass answers the inclusive bucket range [lo, hi] from the snapshot
// in O(log B) time, clamped into [0, 1]. It walks the canonical dyadic
// cover in place (the same greedy decomposition as Decompose) without
// materializing the node list, so a cached-view query allocates nothing.
func (v *HierView) SpanMass(lo, hi int) (float64, error) {
	if lo < 0 || hi >= v.buckets || lo > hi {
		return 0, fmt.Errorf("rangequery: bucket range [%d,%d] outside domain [0,%d]", lo, hi, v.buckets-1)
	}
	maxDepth := len(v.levels)
	mass := 0.0
	for lo <= hi {
		size := lo & -lo
		if lo == 0 || size > v.buckets/2 {
			size = v.buckets / 2
		}
		for size > hi-lo+1 {
			size >>= 1
		}
		depth := maxDepth - (bits.Len(uint(size)) - 1)
		mass += v.levels[depth-1][lo/size]
		lo += size
	}
	if mass < 0 {
		mass = 0
	}
	if mass > 1 {
		mass = 1
	}
	return mass, nil
}
