// Package transport implements the collection pipeline of the paper's
// system model (Section II): users randomize their records locally and send
// only the perturbed reports to an aggregator over HTTP.
//
// Every report travels as one CRC-framed binary envelope (see
// envelope.go) that tags the task it answers. PipelineServer decodes
// uploads straight into a columnar pipeline.ReportBatch, persists the raw
// frames write-ahead when given a Sink, folds the batch into the sharded
// pipeline, and serves every query kind as JSON; PipelineClient is the
// user's side.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"ldp/internal/core"
)

// Frame constants for the report wire format.
const (
	wireMagic = "LDPR"

	entryNumeric  = 0
	entryCatBits  = 1
	entryCatValue = 2

	// MaxFrameSize bounds a report frame (defensive limit).
	MaxFrameSize = 1 << 20

	// maxWireAttr and maxWireValue bound decoded attribute indices and
	// categorical values. No real schema comes near them; rejecting the
	// rest at the decode boundary keeps every decoded value far inside int
	// on any platform, so an attacker-chosen uvarint can never convert into
	// a valid-looking (or negative) one.
	maxWireAttr  = 1 << 16
	maxWireValue = 1 << 24
)

// Errors returned by the frame decoders.
var (
	ErrBadMagic    = errors.New("transport: bad frame magic")
	ErrBadVersion  = errors.New("transport: unsupported frame version")
	ErrBadChecksum = errors.New("transport: frame checksum mismatch")
	ErrTruncated   = errors.New("transport: truncated frame")
)

// parseFrame validates a report frame — size limit, length, checksum,
// magic, and version — and returns its payload. Only the v2 envelope
// decodes: a frame in the retired v1 report layout fails with
// ErrBadVersion, and any other magic, including the retired v1 range
// frames, with ErrBadMagic.
func parseFrame(frame []byte) (payload []byte, err error) {
	if len(frame) > MaxFrameSize {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", len(frame))
	}
	if len(frame) < 13 {
		return nil, ErrTruncated
	}
	plen := binary.LittleEndian.Uint32(frame[5:9])
	if int(plen) != len(frame)-13 {
		return nil, ErrTruncated
	}
	payload = frame[9 : 9+plen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[9+plen:]) {
		return nil, ErrBadChecksum
	}
	// The string conversion in the comparison does not allocate.
	if string(frame[:4]) != wireMagic {
		return nil, ErrBadMagic
	}
	if frame[4] != wireEnvelopeVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, frame[4])
	}
	return payload, nil
}

// appendEntries appends the entry-list payload encoding of the envelope's
// mean/freq/joint bodies: entryCount(uvarint) then per entry:
// attr(uvarint), kind(byte), and the kind-specific body (float64 bits, a
// bitset, or a value index).
func appendEntries(payload []byte, entries []core.Entry) []byte {
	if payload == nil {
		payload = make([]byte, 0, 16+16*len(entries))
	}
	payload = binary.AppendUvarint(payload, uint64(len(entries)))
	for _, e := range entries {
		payload = binary.AppendUvarint(payload, uint64(e.Attr))
		switch e.Kind {
		case core.EntryCategoricalBits:
			payload = append(payload, entryCatBits)
			payload = binary.AppendUvarint(payload, uint64(len(e.Resp.Bits)))
			for _, w := range e.Resp.Bits {
				payload = binary.LittleEndian.AppendUint64(payload, w)
			}
		case core.EntryCategoricalValue:
			payload = append(payload, entryCatValue)
			payload = binary.AppendUvarint(payload, uint64(e.Resp.Value))
		default:
			payload = append(payload, entryNumeric)
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(e.Value))
		}
	}
	return payload
}
