package pipeline

import "math/bits"

// bitset is a fixed-capacity dirty-bit vector. The sharded pipeline keeps
// one per shard per count-column family (freq attrs, joint attrs,
// hierarchy level slots, grid slots), written under the shard lock by the
// fold paths and drained under the same lock by the view builder.
// A nil bitset is a valid empty set: families a pipeline configuration
// does not register stay empty and every operation no-ops.
type bitset []uint64

// newBits allocates a bitset with capacity for n bits.
func newBits(n int) bitset { return make(bitset, (n+63)/64) }

// newFamBits allocates one bitset per count-column family of st, with a
// bit per column.
func newFamBits(st *AggState) [numFams]bitset {
	var b [numFams]bitset
	for f, cols := range st.cols() {
		b[f] = newBits(len(cols))
	}
	return b
}

// set marks bit i. Out-of-range indices (and nil sets) are ignored so
// callers never need capacity guards.
func (b bitset) set(i int) {
	if w := i >> 6; w >= 0 && w < len(b) {
		b[w] |= 1 << (uint(i) & 63)
	}
}

// get reports whether bit i is set; false for out-of-range indices and
// nil sets.
func (b bitset) get(i int) bool {
	w := i >> 6
	return w >= 0 && w < len(b) && b[w]&(1<<(uint(i)&63)) != 0
}

// zero clears every bit.
func (b bitset) zero() {
	for i := range b {
		b[i] = 0
	}
}

// any reports whether any bit is set.
func (b bitset) any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// count returns the number of set bits.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// forEach calls f with the index of every set bit, ascending.
func (b bitset) forEach(f func(int)) {
	for wi, w := range b {
		for w != 0 {
			f(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
