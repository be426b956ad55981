// Package freq implements locally differentially private frequency oracles
// for categorical attributes, in the "pure protocol" framework of Wang et
// al. (USENIX Security 2017):
//
//   - OUE, optimized unary encoding — the oracle the paper plugs into its
//     multidimensional collector (Section IV-C);
//   - SUE, symmetric unary encoding (basic RAPPOR);
//   - GRR, generalized randomized response (k-RR).
//
// Each oracle perturbs a value v in {0, ..., k-1} into a Response and
// exposes the pair (p, q): the probability that a response "supports" the
// true value and the probability that it supports any other fixed value.
// The aggregator debiases support counts with
//
//	freqHat[v] = (count[v]/n - q) / (p - q),
//
// which is unbiased for the population frequency of v among the n
// reporting users.
package freq

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"ldp/internal/mech"
	"ldp/internal/rng"
)

// ErrCardinality is returned when an oracle is constructed with fewer than
// two categorical values.
var ErrCardinality = errors.New("freq: cardinality must be >= 2")

// Response is one perturbed categorical report. For unary encodings
// (OUE/SUE) Bits holds a bitset of Cardinality bits; for GRR Bits is nil
// and Value holds the reported value.
type Response struct {
	Value int
	Bits  Bitset
}

// Bitset is a little-endian fixed-width bit vector.
type Bitset []uint64

// NewBitset allocates a bitset able to hold n bits.
func NewBitset(n int) Bitset { return make(Bitset, BitsetWords(n)) }

// BitsetWords returns the number of 64-bit words a Bitset over an n-value
// domain occupies (len(NewBitset(n)) without the allocation; validation
// hot paths use it to check response widths).
func BitsetWords(n int) int { return (n + 63) / 64 }

// UsesBitset reports whether the oracle's responses carry a unary-encoding
// bitset (OUE/SUE) rather than a single reported value (GRR). The response
// shape is a fixed property of the oracle type, probed once with a
// throwaway PRNG; aggregators cache the answer to reject responses of the
// wrong shape (an all-ones bitset folded into a value-type estimator would
// poison every domain value at once).
func UsesBitset(o Oracle) bool { return o.Perturb(0, rng.New(0)).Bits != nil }

// Set sets bit i.
func (b Bitset) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Get reports whether bit i is set.
func (b Bitset) Get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns a copy of the bitset.
func (b Bitset) Clone() Bitset {
	c := make(Bitset, len(b))
	copy(c, b)
	return c
}

// Oracle is a frequency oracle over a fixed categorical domain.
// Implementations are safe for concurrent use; all mutable state lives in
// the caller-supplied PRNG.
type Oracle interface {
	// Name returns a short identifier ("oue", "sue", "grr").
	Name() string
	// Epsilon returns the privacy budget.
	Epsilon() float64
	// Cardinality returns the domain size k.
	Cardinality() int
	// Perturb randomizes a value v in {0..k-1}. Out-of-range values
	// are clamped into the domain.
	Perturb(v int, r *rng.Rand) Response
	// SupportProbs returns (p, q): the probability a response supports
	// the true value, and the probability it supports a fixed other
	// value.
	SupportProbs() (p, q float64)
	// Supports reports whether a response supports candidate value v.
	Supports(resp Response, v int) bool
}

// Factory builds an Oracle for a given budget and cardinality; Algorithm 4
// instantiates it at eps/k for each sampled categorical attribute.
type Factory func(eps float64, cardinality int) (Oracle, error)

func clampValue(v, k int) int {
	if v < 0 {
		return 0
	}
	if v >= k {
		return k - 1
	}
	return v
}

// --- OUE ---

// OUE is the optimized unary encoding protocol: the true value's bit is
// kept with probability p = 1/2, every other bit is flipped on with
// probability q = 1/(e^eps+1). Among unary encodings it minimizes estimator
// variance, which for small frequencies approaches 4e^eps/(n(e^eps-1)^2).
type OUE struct {
	eps float64
	k   int
	q   float64
}

// NewOUE constructs an OUE oracle for domain size k.
func NewOUE(eps float64, k int) (*OUE, error) {
	if err := mech.ValidateEpsilon(eps); err != nil {
		return nil, err
	}
	if k < 2 {
		return nil, fmt.Errorf("%w: got %d", ErrCardinality, k)
	}
	return &OUE{eps: eps, k: k, q: 1 / (math.Exp(eps) + 1)}, nil
}

// Name returns "oue".
func (o *OUE) Name() string { return "oue" }

// Epsilon returns the privacy budget.
func (o *OUE) Epsilon() float64 { return o.eps }

// Cardinality returns the domain size.
func (o *OUE) Cardinality() int { return o.k }

// SupportProbs returns p = 1/2, q = 1/(e^eps+1).
func (o *OUE) SupportProbs() (p, q float64) { return 0.5, o.q }

// Perturb one-hot encodes v and flips each bit with its OUE probability.
func (o *OUE) Perturb(v int, r *rng.Rand) Response {
	v = clampValue(v, o.k)
	bitsOut := NewBitset(o.k)
	for i := 0; i < o.k; i++ {
		keep := o.q
		if i == v {
			keep = 0.5
		}
		if rng.Bernoulli(r, keep) {
			bitsOut.Set(i)
		}
	}
	return Response{Bits: bitsOut}
}

// Supports reports whether bit v is set.
func (o *OUE) Supports(resp Response, v int) bool { return resp.Bits.Get(v) }

var _ Oracle = (*OUE)(nil)

// --- SUE ---

// SUE is symmetric unary encoding (the basic RAPPOR randomizer): every bit
// is reported truthfully with probability e^{eps/2}/(e^{eps/2}+1).
type SUE struct {
	eps float64
	k   int
	p   float64
}

// NewSUE constructs a SUE oracle for domain size k.
func NewSUE(eps float64, k int) (*SUE, error) {
	if err := mech.ValidateEpsilon(eps); err != nil {
		return nil, err
	}
	if k < 2 {
		return nil, fmt.Errorf("%w: got %d", ErrCardinality, k)
	}
	e := math.Exp(eps / 2)
	return &SUE{eps: eps, k: k, p: e / (e + 1)}, nil
}

// Name returns "sue".
func (s *SUE) Name() string { return "sue" }

// Epsilon returns the privacy budget.
func (s *SUE) Epsilon() float64 { return s.eps }

// Cardinality returns the domain size.
func (s *SUE) Cardinality() int { return s.k }

// SupportProbs returns p = e^{eps/2}/(e^{eps/2}+1) and q = 1-p.
func (s *SUE) SupportProbs() (p, q float64) { return s.p, 1 - s.p }

// Perturb one-hot encodes v and reports each bit truthfully with
// probability p.
func (s *SUE) Perturb(v int, r *rng.Rand) Response {
	v = clampValue(v, s.k)
	bitsOut := NewBitset(s.k)
	for i := 0; i < s.k; i++ {
		truthful := rng.Bernoulli(r, s.p)
		isOne := i == v
		if isOne == truthful {
			bitsOut.Set(i)
		}
	}
	return Response{Bits: bitsOut}
}

// Supports reports whether bit v is set.
func (s *SUE) Supports(resp Response, v int) bool { return resp.Bits.Get(v) }

var _ Oracle = (*SUE)(nil)

// --- GRR ---

// GRR is generalized randomized response (k-RR): report the true value with
// probability e^eps/(e^eps+k-1), otherwise a uniformly random other value.
// Its variance degrades linearly in k, which is why the paper prefers OUE
// for large domains.
type GRR struct {
	eps   float64
	k     int
	pTrue float64
}

// NewGRR constructs a GRR oracle for domain size k.
func NewGRR(eps float64, k int) (*GRR, error) {
	if err := mech.ValidateEpsilon(eps); err != nil {
		return nil, err
	}
	if k < 2 {
		return nil, fmt.Errorf("%w: got %d", ErrCardinality, k)
	}
	e := math.Exp(eps)
	return &GRR{eps: eps, k: k, pTrue: e / (e + float64(k) - 1)}, nil
}

// Name returns "grr".
func (g *GRR) Name() string { return "grr" }

// Epsilon returns the privacy budget.
func (g *GRR) Epsilon() float64 { return g.eps }

// Cardinality returns the domain size.
func (g *GRR) Cardinality() int { return g.k }

// SupportProbs returns p = e^eps/(e^eps+k-1), q = 1/(e^eps+k-1).
func (g *GRR) SupportProbs() (p, q float64) {
	return g.pTrue, (1 - g.pTrue) / float64(g.k-1)
}

// Perturb reports v truthfully with probability p, else one of the k-1
// other values uniformly.
func (g *GRR) Perturb(v int, r *rng.Rand) Response {
	v = clampValue(v, g.k)
	if rng.Bernoulli(r, g.pTrue) {
		return Response{Value: v}
	}
	other := r.IntN(g.k - 1)
	if other >= v {
		other++
	}
	return Response{Value: other}
}

// Supports reports whether the response's value equals v.
func (g *GRR) Supports(resp Response, v int) bool { return resp.Value == v }

var _ Oracle = (*GRR)(nil)

// --- Estimation ---

// Estimator accumulates responses for one categorical attribute and
// produces debiased frequency estimates. It is not safe for concurrent use;
// use one per goroutine and Merge.
type Estimator struct {
	oracle Oracle
	counts []float64
	n      int64
}

// NewEstimator creates an estimator bound to the given oracle.
func NewEstimator(o Oracle) *Estimator {
	return &Estimator{oracle: o, counts: make([]float64, o.Cardinality())}
}

// Add folds one response into the support counts.
func (e *Estimator) Add(resp Response) {
	if resp.Bits != nil {
		e.AddBits(resp.Bits)
		return
	}
	e.AddValue(resp.Value)
}

// AddBits folds one unary-encoded response, given as raw bitset words,
// into the support counts. It is the vectorized fold the batch ingest path
// calls directly with subslices of a flat word buffer: no Response value,
// no per-bit Get calls, no allocation.
func (e *Estimator) AddBits(words []uint64) {
	e.n++
	FoldBits(e.counts, words)
}

// AddValue folds one value-type (GRR) response into the support counts.
// Out-of-range values count the reporter but support no candidate,
// matching Add's handling of malformed responses.
func (e *Estimator) AddValue(v int) {
	e.n++
	if v >= 0 && v < len(e.counts) {
		e.counts[v]++
	}
}

// FoldBits increments counts[v] for every set bit v of a unary-encoded
// response given as raw bitset words: the innermost loop of the aggregation
// hot path. It visits only the set bits (one TrailingZeros per set bit)
// instead of testing every domain value, and ignores stray bits at or past
// len(counts) exactly as the per-bit fold did.
func FoldBits(counts []float64, words []uint64) {
	base := 0
	for _, w := range words {
		for w != 0 {
			v := base + bits.TrailingZeros64(w)
			if v >= len(counts) {
				return
			}
			counts[v]++
			w &= w - 1
		}
		base += 64
	}
}

// CountsView returns a debiasing view over the estimator's live support
// counts without copying them. The view is valid only while the estimator
// is not folded into concurrently; snapshot paths that need an immutable
// view should copy the counts first (NewDebiasView over Counts()).
func (e *Estimator) CountsView() DebiasView {
	return NewDebiasView(e.oracle, e.counts, e.n)
}

// DebiasView is an immutable lazy debiasing view over raw support counts:
// the oracle's (p, q) support probabilities are captured once at
// construction, and every Estimate call is two flops over the count array
// — no estimator object, no interface dispatch, no allocation. It is the
// query-side dual of the flat count accumulators the sharded ingest path
// keeps: a snapshot copies counts out of the shards and wraps them in
// views, and debiasing happens only for the attributes actually queried.
//
// The view aliases the count slice it is given; the caller promises the
// counts are not mutated for the lifetime of the view. Views are safe for
// concurrent use under that contract.
type DebiasView struct {
	counts []float64
	n      int64
	p, q   float64
}

// NewDebiasView wraps pooled support counts for n responses of oracle o in
// a lazy debiasing view. The counts are aliased, not copied.
func NewDebiasView(o Oracle, counts []float64, n int64) DebiasView {
	p, q := o.SupportProbs()
	return DebiasView{counts: counts, n: n, p: p, q: q}
}

// N returns the number of responses behind the view.
func (v DebiasView) N() int64 { return v.n }

// Len returns the domain size.
func (v DebiasView) Len() int { return len(v.counts) }

// Count returns the raw support count of value i.
func (v DebiasView) Count(i int) float64 { return v.counts[i] }

// Estimate returns the debiased frequency estimate of value i, computed
// with exactly the arithmetic of Estimator.Estimates (so a view over an
// estimator's counts is bit-identical to its Estimates slice). With no
// responses it returns 0.
func (v DebiasView) Estimate(i int) float64 {
	if v.n == 0 {
		return 0
	}
	return (v.counts[i]/float64(v.n) - v.q) / (v.p - v.q)
}

// AppendEstimates appends the debiased estimate of every domain value to
// dst and returns the extended slice; with a pre-sized dst it allocates
// nothing.
func (v DebiasView) AppendEstimates(dst []float64) []float64 {
	for i := range v.counts {
		dst = append(dst, v.Estimate(i))
	}
	return dst
}

// Merge combines another estimator (for the same oracle configuration).
func (e *Estimator) Merge(o *Estimator) {
	for i := range e.counts {
		e.counts[i] += o.counts[i]
	}
	e.n += o.n
}

// N returns the number of responses aggregated.
func (e *Estimator) N() int64 { return e.n }

// Counts returns a copy of the raw support counts (one per domain value).
func (e *Estimator) Counts() []float64 {
	out := make([]float64, len(e.counts))
	copy(out, e.counts)
	return out
}

// Estimates returns the debiased frequency estimate for every value in the
// domain. With no responses it returns all zeros. It is a materializing
// wrapper over CountsView, so the two paths cannot drift.
func (e *Estimator) Estimates() []float64 {
	return e.CountsView().AppendEstimates(make([]float64, 0, len(e.counts)))
}

// TheoreticalVariance returns the per-value estimation variance of the
// oracle for n users when the true frequency is f:
//
//	Var = q(1-q) / (n (p-q)^2)  +  f (1 - p - q) / (n (p - q))
//
// (Wang et al. 2017, Eq. 6).
func TheoreticalVariance(o Oracle, f float64, n int) float64 {
	p, q := o.SupportProbs()
	nn := float64(n)
	return q*(1-q)/(nn*(p-q)*(p-q)) + f*(1-p-q)/(nn*(p-q))
}
