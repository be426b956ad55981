package rangequery

import (
	"fmt"
	"math/bits"

	"ldp/internal/mech"
	"ldp/internal/schema"
)

// Discretizer maps the numeric attributes of a schema onto B-bucket
// categorical domains so that range queries reduce to frequency queries
// over bucket indices. Bucket b of a numeric attribute covers the
// equal-width interval [-1 + 2b/B, -1 + 2(b+1)/B), with the last bucket
// closed at +1.
//
// Categorical attributes pass through with their natural cardinality; the
// derived all-categorical schema (Schema) is the domain contract the
// range-query collector, wire format and count columns agree on, mirroring
// the role schema.Schema plays for the mean/frequency pipeline.
type Discretizer struct {
	src     *schema.Schema
	buckets int
	grid    *schema.Schema
}

// NewDiscretizer derives the bucketized view of s. buckets must be a power
// of two >= 2 (the hierarchy is dyadic) and is the domain size every
// numeric attribute is mapped onto.
func NewDiscretizer(s *schema.Schema, buckets int) (*Discretizer, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if buckets < 2 || bits.OnesCount(uint(buckets)) != 1 {
		return nil, fmt.Errorf("rangequery: buckets must be a power of two >= 2, got %d", buckets)
	}
	attrs := make([]schema.Attribute, s.Dim())
	for i, a := range s.Attrs {
		attrs[i] = a
		if a.Kind == schema.Numeric {
			attrs[i] = schema.Attribute{Name: a.Name, Kind: schema.Categorical, Cardinality: buckets}
		}
	}
	grid, err := schema.New(attrs...)
	if err != nil {
		return nil, err
	}
	return &Discretizer{src: s, buckets: buckets, grid: grid}, nil
}

// Source returns the original schema.
func (d *Discretizer) Source() *schema.Schema { return d.src }

// Schema returns the derived schema in which every attribute is
// categorical (numeric attributes become Cardinality-B domains).
func (d *Discretizer) Schema() *schema.Schema { return d.grid }

// Buckets returns the bucket count B used for numeric attributes.
func (d *Discretizer) Buckets() int { return d.buckets }

// Cardinality returns the discretized domain size of attribute attr.
func (d *Discretizer) Cardinality(attr int) int {
	return d.grid.Attrs[attr].Cardinality
}

// BucketOf maps a numeric value in [-1, 1] (clamped) to its bucket index.
func (d *Discretizer) BucketOf(v float64) int {
	return bucketOf(v, d.buckets)
}

// Value returns the discretized value of attribute attr in tuple t: the
// bucket index for numeric attributes, the categorical value itself
// otherwise.
func (d *Discretizer) Value(attr int, t schema.Tuple) int {
	if d.src.Attrs[attr].Kind == schema.Numeric {
		return d.BucketOf(t.Num[attr])
	}
	return t.Cat[attr]
}

// Interval returns the numeric interval [lo, hi) covered by bucket b.
func (d *Discretizer) Interval(b int) (lo, hi float64) {
	w := 2 / float64(d.buckets)
	lo = -1 + float64(b)*w
	return lo, lo + w
}

// Span maps a numeric query range [lo, hi] onto the inclusive bucket span
// [b0, b1] of buckets whose intervals it intersects; ok is false when the
// range is empty after clamping to [-1, 1]. Query endpoints are rounded
// outward to bucket boundaries, so the answered range can be wider than
// the asked one by at most one bucket width per side (the O(1/B)
// discretization bias the bucket count controls).
func (d *Discretizer) Span(lo, hi float64) (b0, b1 int, ok bool) {
	lo, hi = mech.Clamp1(lo), mech.Clamp1(hi)
	if hi < lo {
		return 0, 0, false
	}
	return d.BucketOf(lo), d.BucketOf(hi), true
}

func bucketOf(v float64, buckets int) int {
	v = mech.Clamp1(v)
	b := int((v + 1) / 2 * float64(buckets))
	if b >= buckets {
		b = buckets - 1
	}
	return b
}
