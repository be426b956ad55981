package freq

import (
	"fmt"
	"math"
)

// CountState is one frequency oracle's raw aggregate: per-domain-value
// support counts plus the number of reports they were accumulated over.
// Aggregators keep one per oracle-backed component (a categorical
// attribute of a task, a range hierarchy level, a 2-D grid), and since
// support counts are sums of 0/1 indicators, two columns of one oracle
// combine by elementwise addition. The zero value is an empty column, the
// slot of a component that has no oracle (a numeric attribute).
type CountState struct {
	Counts []float64
	N      int64
}

// Clone returns a deep copy of the column.
func (c *CountState) Clone() CountState {
	return CountState{Counts: append([]float64(nil), c.Counts...), N: c.N}
}

// Active reports whether the column carries anything: a nonzero reporter
// count or any nonzero support count. Either one moves the debiased
// estimate.
func (c *CountState) Active() bool {
	if c.N != 0 {
		return true
	}
	for _, v := range c.Counts {
		if v != 0 {
			return true
		}
	}
	return false
}

// Check validates the column against a domain of the given size: exactly
// domain support counts, each finite and non-negative, and a non-negative
// reporter count; a column of domain 0 must be empty. Support counts are
// monotone sums of indicators, so anything else can only come from a
// corrupt or malicious state.
func (c *CountState) Check(domain int) error {
	if len(c.Counts) != domain {
		return fmt.Errorf("domain %d, want %d", len(c.Counts), domain)
	}
	if c.N < 0 {
		return fmt.Errorf("negative reporter count %d", c.N)
	}
	if domain == 0 && c.N != 0 {
		return fmt.Errorf("%d reporters on an empty column", c.N)
	}
	for _, v := range c.Counts {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("count %v is negative or non-finite", v)
		}
	}
	return nil
}

// SameDomains reports whether two column lists are equally long and have
// the same domain column by column, so one adds into the other.
func SameDomains(a, b []CountState) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Counts) != len(b[i].Counts) {
			return false
		}
	}
	return true
}

// AddCols adds every column of src into the same column of dst. The lists
// must have the same domains (SameDomains).
func AddCols(dst, src []CountState) {
	dst = dst[:len(src)]
	for i := range src {
		d, s := &dst[i], &src[i]
		counts := d.Counts[:len(s.Counts)]
		for v, n := range s.Counts {
			counts[v] += n
		}
		d.N += s.N
	}
}

// SubCols returns the elementwise difference a - b as fresh columns, nil
// when a is nil. The lists must have the same domains (SameDomains).
func SubCols(a, b []CountState) []CountState {
	if a == nil {
		return nil
	}
	out := make([]CountState, len(a))
	for i := range a {
		if a[i].Counts != nil {
			out[i].Counts = make([]float64, len(a[i].Counts))
			for v, n := range a[i].Counts {
				out[i].Counts[v] = n - b[i].Counts[v]
			}
		}
		out[i].N = a[i].N - b[i].N
	}
	return out
}

// CloneCols deep-copies a column list, nil when cols is nil.
func CloneCols(cols []CountState) []CountState {
	if cols == nil {
		return nil
	}
	out := make([]CountState, len(cols))
	for i := range cols {
		out[i] = cols[i].Clone()
	}
	return out
}
