package transport

import (
	"encoding/binary"
	"fmt"
	"math"

	"ldp/internal/core"
	"ldp/internal/pipeline"
)

// The gradient frame carries one user's randomized clipped gradient for a
// federated SGD round through the v2 envelope (task tag envTaskGradient):
//
//	payload = tag(1)=5 round(uvarint) count(uvarint)
//	          { coord(uvarint) value(f64 bits, 8 bytes LE) }*
//
// The decoder bounds round and coordinate indices at the wire boundary —
// like maxWireAttr/maxWireValue, the limits are far above any real
// configuration, and rejecting the rest here means neither the batch's
// int32 round column nor a 32-bit int can truncate an attacker-chosen
// value into a valid-looking one. Pipeline.AddBatch then validates
// against the actual trainer configuration (round < Rounds, coord < Dim,
// finite values).
const (
	// maxWireRound bounds decoded round tags. A training run has at most
	// a few thousand rounds; nothing legitimate comes near 2^20.
	maxWireRound = 1 << 20
)

// EncodeGradientReport serializes a gradient report (rep.Task must be
// TaskGradient) into the versioned wire envelope. It is AppendEnvelope
// restricted to the gradient frame, for callers that want the task
// mismatch caught at encode time.
func EncodeGradientReport(rep pipeline.Report) ([]byte, error) {
	if rep.Task != pipeline.TaskGradient {
		return nil, fmt.Errorf("transport: EncodeGradientReport on task %v", rep.Task)
	}
	return AppendEnvelope(nil, rep)
}

// appendGradient appends the gradient payload body (round + coordinate
// list) shared by the encoder and re-encoders.
func appendGradient(payload []byte, round int32, entries []core.Entry) []byte {
	payload = binary.AppendUvarint(payload, uint64(round))
	payload = binary.AppendUvarint(payload, uint64(len(entries)))
	for _, e := range entries {
		payload = binary.AppendUvarint(payload, uint64(e.Attr))
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(e.Value))
	}
	return payload
}

// decodeGradientInto parses a gradient payload straight into the batch
// columns (round column + numeric entry columns) without allocating.
func decodeGradientInto(payload []byte, b *pipeline.ReportBatch) error {
	pos := 0
	round, n := binary.Uvarint(payload)
	if n <= 0 {
		return ErrTruncated
	}
	pos += n
	if round > maxWireRound {
		return fmt.Errorf("transport: implausible gradient round %d", round)
	}
	count, n := binary.Uvarint(payload[pos:])
	if n <= 0 {
		return ErrTruncated
	}
	pos += n
	if count == 0 {
		return fmt.Errorf("transport: empty gradient report")
	}
	if count > 1<<16 {
		return fmt.Errorf("transport: implausible gradient coordinate count %d", count)
	}
	b.StartGradientReport(int32(round))
	for i := uint64(0); i < count; i++ {
		coord, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return ErrTruncated
		}
		pos += n
		if coord > maxWireAttr {
			return fmt.Errorf("transport: implausible gradient coordinate %d", coord)
		}
		if pos+8 > len(payload) {
			return ErrTruncated
		}
		b.AppendNumeric(int(coord), math.Float64frombits(binary.LittleEndian.Uint64(payload[pos:])))
		pos += 8
	}
	if pos != len(payload) {
		return fmt.Errorf("transport: %d trailing payload bytes", len(payload)-pos)
	}
	return nil
}
