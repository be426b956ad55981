// Package cluster is the multi-node fan-in tier of the aggregation
// pipeline: it lifts the in-process additivity of pipeline.AggState onto
// the wire so a fleet of edge collectors can periodically fold into a
// root aggregator.
//
// The package defines three pieces:
//
//   - A versioned, CRC-framed shard-snapshot wire format (Snapshot,
//     AppendSnapshot, DecodeSnapshotInto): a columnar dump of a
//     pipeline's report counters, numeric sums, count columns (freq,
//     joint, range levels and grids), and (for inspection only) trainer
//     state, headed by the exporting pipeline's config fingerprint plus
//     an (edge, seq, boot) delivery header. Mismatched topologies are
//     rejected at the boundary by the fingerprint; retried deliveries are
//     deduplicated by the per-edge monotone sequence number.
//
//   - RetryPolicy, a bounded exponential-backoff-with-jitter helper
//     shared by the edge forwarder and the transport clients.
//
//   - Forwarder, the edge side of the tier: it snapshots the local
//     pipeline on an interval, ships the delta since the last
//     acknowledged push, and resets cleanly when the root restarts (see
//     forwarder.go for the exactness protocol).
//
// Estimates stay exact under fan-in because every aggregate the wire
// format carries is additive: the root's state after merging N edge
// deltas is elementwise equal to the state of a single pipeline that
// ingested every underlying report.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"ldp/internal/freq"
	"ldp/internal/pipeline"
	"ldp/internal/rangequery"
)

// Wire format constants. The envelope matches the report wire format
// (magic(4) version(1) payloadLen(u32) payload crc32(u32)) with its own
// magic, so a snapshot accidentally posted to /v1/report is rejected by
// magic, not misparsed.
const (
	snapMagic   = "LDPS"
	snapVersion = 1

	// MaxSnapshotSize bounds one snapshot frame. State size scales with
	// schema width and estimator geometry, not report volume, so even
	// generous configurations stay far below this.
	MaxSnapshotSize = 64 << 20

	// MaxEdgeIDLen bounds the edge identifier carried in the header.
	MaxEdgeIDLen = 128
	// maxBootLen bounds the root boot ID echoed in the header.
	maxBootLen = 64

	maxDim    = 1 << 16
	maxDomain = 1 << 24
	maxLists  = 1 << 20
)

// Errors returned by the snapshot decoder.
var (
	ErrBadMagic    = errors.New("cluster: bad snapshot magic")
	ErrBadVersion  = errors.New("cluster: unsupported snapshot version")
	ErrBadChecksum = errors.New("cluster: snapshot checksum mismatch")
	ErrTruncated   = errors.New("cluster: truncated snapshot")
)

// Snapshot is one shipment of aggregate state: the delta (or cumulative
// state) an edge pushes to the root, or the per-edge applied state a root
// returns for resynchronization.
type Snapshot struct {
	// Fingerprint is pipeline.Fingerprint() of the exporting pipeline;
	// receivers reject snapshots whose fingerprint does not match their
	// own configuration.
	Fingerprint uint64
	// Edge identifies the pushing edge node; (Edge, Seq) deduplicates
	// retried deliveries.
	Edge string
	// Seq is the edge's monotone push sequence number.
	Seq uint64
	// Boot is the root boot ID this delta is based on: the edge learned
	// it (and its acked baseline) from the root, and the root rejects
	// pushes carrying a stale or missing boot so a delta computed against
	// a dead root's state can never double-fold.
	Boot string
	// State is the columnar aggregate payload.
	State *pipeline.AggState
}

// Flag bits of the payload's section mask.
const (
	flagFreq = 1 << iota
	flagJoint
	flagRange
	flagTrainer
)

// EncodeSnapshot serializes a snapshot into a self-contained frame.
func EncodeSnapshot(s *Snapshot) ([]byte, error) { return AppendSnapshot(nil, s) }

// AppendSnapshot appends the frame encoding of s to dst and returns the
// extended slice. Reusing dst across calls makes the steady-state encode
// allocation-free.
func AppendSnapshot(dst []byte, s *Snapshot) ([]byte, error) {
	st := s.State
	if st == nil {
		return nil, fmt.Errorf("cluster: snapshot without state")
	}
	if len(s.Edge) == 0 || len(s.Edge) > MaxEdgeIDLen {
		return nil, fmt.Errorf("cluster: edge ID length %d outside [1,%d]", len(s.Edge), MaxEdgeIDLen)
	}
	if len(s.Boot) > maxBootLen {
		return nil, fmt.Errorf("cluster: boot ID longer than %d bytes", maxBootLen)
	}
	if len(st.MeanSum) != len(st.JointSum) {
		return nil, fmt.Errorf("cluster: malformed state (mean/joint dimension mismatch)")
	}
	if len(st.MeanSum) > maxDim {
		return nil, fmt.Errorf("cluster: state dimension %d exceeds limit", len(st.MeanSum))
	}

	base := len(dst)
	dst = append(dst, snapMagic...)
	dst = append(dst, snapVersion)
	dst = append(dst, 0, 0, 0, 0) // payload length backfilled below
	payloadStart := len(dst)

	dst = binary.LittleEndian.AppendUint64(dst, s.Fingerprint)
	dst = binary.LittleEndian.AppendUint64(dst, s.Seq)
	dst = append(dst, byte(len(s.Edge)))
	dst = append(dst, s.Edge...)
	dst = append(dst, byte(len(s.Boot)))
	dst = append(dst, s.Boot...)

	var flags byte
	if st.Freq != nil {
		flags |= flagFreq
	}
	if st.Joint != nil {
		flags |= flagJoint
	}
	if st.Range != nil {
		flags |= flagRange
	}
	if st.Trainer != nil {
		flags |= flagTrainer
	}
	dst = append(dst, flags)

	dst = binary.LittleEndian.AppendUint64(dst, uint64(st.NMean))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(st.NFreq))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(st.NJoint))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(st.NRange))

	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(st.MeanSum)))
	dst = appendFloats(dst, st.MeanSum)
	dst = appendFloats(dst, st.JointSum)

	// The freq and joint sections hold one column per attribute; the range
	// section is the range report count, then the levels and the grids,
	// each list prefixed by its length.
	var err error
	for _, cols := range [2][]freq.CountState{st.Freq, st.Joint} {
		if cols == nil {
			continue
		}
		if len(cols) != len(st.MeanSum) {
			return nil, fmt.Errorf("cluster: malformed state (count columns cover %d attributes, want %d)", len(cols), len(st.MeanSum))
		}
		if dst, err = appendCols(dst, cols); err != nil {
			return nil, err
		}
	}
	if rs := st.Range; rs != nil {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(rs.N))
		for _, cols := range [2][]freq.CountState{rs.Levels, rs.Grids} {
			if len(cols) > maxLists {
				return nil, fmt.Errorf("cluster: range state with %d count lists exceeds limit", len(cols))
			}
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(cols)))
			if dst, err = appendCols(dst, cols); err != nil {
				return nil, err
			}
		}
	}
	if st.Trainer != nil {
		tr := st.Trainer
		if len(tr.Beta) > maxDomain {
			return nil, fmt.Errorf("cluster: trainer model dimension %d exceeds limit", len(tr.Beta))
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(tr.Round)))
		done := byte(0)
		if tr.Done {
			done = 1
		}
		dst = append(dst, done)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(tr.Accepted))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(tr.Stale))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(tr.Beta)))
		dst = appendFloats(dst, tr.Beta)
	}

	payload := dst[payloadStart:]
	if len(payload) > MaxSnapshotSize {
		return nil, fmt.Errorf("cluster: snapshot of %d bytes exceeds limit %d", len(payload), MaxSnapshotSize)
	}
	binary.LittleEndian.PutUint32(dst[base+5:base+9], uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return dst, nil
}

func appendFloats(dst []byte, vs []float64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// appendCols appends each column of a list: its domain as a u32 and, for
// a nonempty column, its support counts and reporter count. An empty
// column (a numeric attribute's) is its zero domain alone.
func appendCols(dst []byte, cols []freq.CountState) ([]byte, error) {
	for i := range cols {
		c := &cols[i]
		if len(c.Counts) > maxDomain {
			return nil, fmt.Errorf("cluster: count domain %d exceeds limit", len(c.Counts))
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Counts)))
		if len(c.Counts) > 0 {
			dst = appendFloats(dst, c.Counts)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(c.N))
		}
	}
	return dst, nil
}

// snapReader is a bounds-checked cursor over the snapshot payload. Its
// error values are preallocated so the decode hot path allocates nothing.
type snapReader struct {
	b   []byte
	off int
}

func (r *snapReader) remaining() int { return len(r.b) - r.off }

func (r *snapReader) u8() (byte, error) {
	if r.remaining() < 1 {
		return 0, ErrTruncated
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *snapReader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *snapReader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

// count reads a non-negative int64 counter.
func (r *snapReader) count() (int64, error) {
	v, err := r.u64()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt64 {
		return 0, fmt.Errorf("cluster: counter overflows int64")
	}
	return int64(v), nil
}

// str reads a length-prefixed byte string, reusing prev when the content
// is unchanged so a steady-state decode allocates nothing.
func (r *snapReader) str(maxLen int, prev string) (string, error) {
	n, err := r.u8()
	if err != nil {
		return "", err
	}
	if int(n) > maxLen || r.remaining() < int(n) {
		return "", ErrTruncated
	}
	raw := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	if string(raw) == prev { // comparison does not allocate
		return prev, nil
	}
	return string(raw), nil
}

// floats reads n float64s into a slice recycled from prev.
func (r *snapReader) floats(n int, prev []float64) ([]float64, error) {
	if n > maxDomain {
		return nil, fmt.Errorf("cluster: float vector of %d entries exceeds limit", n)
	}
	if r.remaining() < 8*n {
		return nil, ErrTruncated
	}
	out := prev
	if cap(out) >= n {
		out = out[:n]
	} else {
		out = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
		r.off += 8
	}
	return out, nil
}

// DecodeSnapshot decodes a snapshot frame into a fresh Snapshot.
func DecodeSnapshot(frame []byte) (*Snapshot, error) {
	s := &Snapshot{}
	if err := DecodeSnapshotInto(frame, s); err != nil {
		return nil, err
	}
	return s, nil
}

// DecodeSnapshotInto decodes a snapshot frame, recycling s's existing
// buffers when shapes match (the steady state for a root decoding a
// fixed fleet's pushes), so repeated decodes allocate nothing. The decode
// validates structure — envelope, checksum, bounds, counter signs — but
// not semantics; receivers validate the state against their own pipeline
// configuration via Pipeline.MergeState.
func DecodeSnapshotInto(frame []byte, s *Snapshot) error {
	if len(frame) > MaxSnapshotSize+13 {
		return fmt.Errorf("cluster: snapshot frame of %d bytes exceeds limit", len(frame))
	}
	if len(frame) < 13 {
		return ErrTruncated
	}
	if string(frame[:4]) != snapMagic {
		return ErrBadMagic
	}
	if frame[4] != snapVersion {
		return fmt.Errorf("%w: %d", ErrBadVersion, frame[4])
	}
	plen := binary.LittleEndian.Uint32(frame[5:9])
	if int64(plen) != int64(len(frame))-13 {
		return ErrTruncated
	}
	payload := frame[9 : 9+plen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[9+plen:]) {
		return ErrBadChecksum
	}

	r := &snapReader{b: payload}
	var err error
	if s.Fingerprint, err = r.u64(); err != nil {
		return err
	}
	if s.Seq, err = r.u64(); err != nil {
		return err
	}
	if s.Edge, err = r.str(MaxEdgeIDLen, s.Edge); err != nil {
		return err
	}
	if len(s.Edge) == 0 {
		return fmt.Errorf("cluster: snapshot without an edge ID")
	}
	if s.Boot, err = r.str(maxBootLen, s.Boot); err != nil {
		return err
	}
	flags, err := r.u8()
	if err != nil {
		return err
	}

	if s.State == nil {
		s.State = &pipeline.AggState{}
	}
	st := s.State
	if st.NMean, err = r.count(); err != nil {
		return err
	}
	if st.NFreq, err = r.count(); err != nil {
		return err
	}
	if st.NJoint, err = r.count(); err != nil {
		return err
	}
	if st.NRange, err = r.count(); err != nil {
		return err
	}
	d32, err := r.u32()
	if err != nil {
		return err
	}
	if d32 > maxDim {
		return fmt.Errorf("cluster: snapshot dimension %d exceeds limit", d32)
	}
	d := int(d32)
	if st.MeanSum, err = r.floats(d, st.MeanSum); err != nil {
		return err
	}
	if st.JointSum, err = r.floats(d, st.JointSum); err != nil {
		return err
	}

	for i, cols := range [2]*[]freq.CountState{&st.Freq, &st.Joint} {
		if flags&[2]byte{flagFreq, flagJoint}[i] == 0 {
			*cols = nil
		} else if *cols, err = r.cols(d, *cols); err != nil {
			return err
		}
	}
	if flags&flagRange == 0 {
		st.Range = nil
	} else {
		if st.Range == nil {
			st.Range = &rangequery.AccState{}
		}
		rs := st.Range
		if rs.N, err = r.count(); err != nil {
			return err
		}
		for _, cols := range [2]*[]freq.CountState{&rs.Levels, &rs.Grids} {
			n, err := r.u32()
			if err != nil {
				return err
			}
			if n > maxLists {
				return fmt.Errorf("cluster: %d count lists exceed limit", n)
			}
			if *cols, err = r.cols(int(n), *cols); err != nil {
				return err
			}
		}
	}

	if flags&flagTrainer != 0 {
		if st.Trainer == nil {
			st.Trainer = &pipeline.TrainerState{}
		}
		tr := st.Trainer
		round, err := r.u32()
		if err != nil {
			return err
		}
		tr.Round = int(int32(round))
		done, err := r.u8()
		if err != nil {
			return err
		}
		tr.Done = done != 0
		if tr.Accepted, err = r.count(); err != nil {
			return err
		}
		if tr.Stale, err = r.count(); err != nil {
			return err
		}
		blen, err := r.u32()
		if err != nil {
			return err
		}
		if tr.Beta, err = r.floats(int(blen), tr.Beta); err != nil {
			return err
		}
	} else {
		st.Trainer = nil
	}

	if r.remaining() != 0 {
		return fmt.Errorf("cluster: %d trailing bytes after snapshot payload", r.remaining())
	}
	return nil
}

// cols reads a list of n columns (see appendCols) into a slice recycled
// from prev. Every column takes at least its 4-byte domain, so a list
// longer than the rest of the payload is rejected before it is allocated.
func (r *snapReader) cols(n int, prev []freq.CountState) ([]freq.CountState, error) {
	if r.remaining() < 4*n {
		return nil, ErrTruncated
	}
	out := prev
	if cap(out) >= n {
		out = out[:n]
	} else {
		out = make([]freq.CountState, n)
	}
	for i := range out {
		c := &out[i]
		domain, err := r.u32()
		if err != nil {
			return nil, err
		}
		if domain == 0 {
			*c = freq.CountState{}
			continue
		}
		if c.Counts, err = r.floats(int(domain), c.Counts); err != nil {
			return nil, err
		}
		if c.N, err = r.count(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
