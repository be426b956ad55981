package transport

import (
	"encoding/binary"
	"fmt"
	"math"

	"ldp/internal/pipeline"
	"ldp/internal/rangequery"
)

// The columnar batch decode path: a buffer of concatenated report frames
// (a POST /v1/report body, a replayed log chunk) decodes directly into a
// reusable pipeline.ReportBatch — no [][]byte frame list, no Report
// structs, no per-entry bitset allocations. In the steady state (a pooled
// batch whose buffers have grown to the working-set size) decoding a
// frame allocates nothing.

// DecodeBatch appends every report frame in body to the batch and returns
// the number of frames decoded. On error the batch keeps the frames
// decoded before the failing one; the error says which frame failed.
// Callers bound body themselves (the HTTP server enforces MaxBatchSize).
func DecodeBatch(body []byte, b *pipeline.ReportBatch) (int, error) {
	n := 0
	for off := 0; off < len(body); {
		flen, err := FrameLen(body[off:])
		if err != nil {
			return n, fmt.Errorf("transport: frame %d: %w", n, err)
		}
		if flen > len(body)-off {
			return n, fmt.Errorf("transport: frame %d: %w", n, ErrTruncated)
		}
		mark := b.Mark()
		if err := decodeFrameInto(body[off:off+flen], b); err != nil {
			b.Truncate(mark)
			return n, fmt.Errorf("transport: frame %d: %w", n, err)
		}
		off += flen
		n++
	}
	return n, nil
}

// decodeFrameInto decodes one envelope frame into the batch. On error the
// caller rolls the batch back to its mark.
func decodeFrameInto(frame []byte, b *pipeline.ReportBatch) error {
	payload, err := parseFrame(frame)
	if err != nil {
		return err
	}
	if len(payload) < 1 {
		return ErrTruncated
	}
	tag, body := payload[0], payload[1:]
	switch tag {
	case envTaskMean:
		return decodeEntriesInto(body, pipeline.TaskMean, b)
	case envTaskFreq:
		return decodeEntriesInto(body, pipeline.TaskFreq, b)
	case envTaskJoint:
		return decodeEntriesInto(body, pipeline.TaskJoint, b)
	case envTaskRange:
		return decodeRangeReportInto(body, b)
	case envTaskGradient:
		return decodeGradientInto(body, b)
	default:
		return fmt.Errorf("transport: unknown envelope task tag %d", tag)
	}
}

// decodeEntriesInto parses the entry-list payload encoding (see
// appendEntries) straight into the batch columns, allocating nothing.
func decodeEntriesInto(payload []byte, task pipeline.TaskKind, b *pipeline.ReportBatch) error {
	pos := 0
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return ErrTruncated
	}
	pos += n
	if count > 1<<16 {
		return fmt.Errorf("transport: implausible entry count %d", count)
	}
	b.StartEntryReport(task)
	for i := uint64(0); i < count; i++ {
		attr, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return ErrTruncated
		}
		pos += n
		if attr > maxWireAttr {
			return fmt.Errorf("transport: implausible entry attribute %d", attr)
		}
		if pos >= len(payload) {
			return ErrTruncated
		}
		kind := payload[pos]
		pos++
		switch kind {
		case entryNumeric:
			if pos+8 > len(payload) {
				return ErrTruncated
			}
			b.AppendNumeric(int(attr), math.Float64frombits(binary.LittleEndian.Uint64(payload[pos:])))
			pos += 8
		case entryCatBits:
			words, n := binary.Uvarint(payload[pos:])
			if n <= 0 {
				return ErrTruncated
			}
			pos += n
			if words == 0 {
				return fmt.Errorf("transport: empty bitset entry")
			}
			if words > 1<<12 || pos+int(words)*8 > len(payload) {
				return ErrTruncated
			}
			dst := b.AppendBits(int(attr), int(words))
			for w := range dst {
				dst[w] = binary.LittleEndian.Uint64(payload[pos:])
				pos += 8
			}
		case entryCatValue:
			v, n := binary.Uvarint(payload[pos:])
			if n <= 0 {
				return ErrTruncated
			}
			pos += n
			if v > maxWireValue {
				return fmt.Errorf("transport: implausible categorical value %d", v)
			}
			b.AppendValue(int(attr), int(v))
		default:
			return fmt.Errorf("transport: unknown entry kind %d", kind)
		}
	}
	if pos != len(payload) {
		return fmt.Errorf("transport: %d trailing payload bytes", len(payload)-pos)
	}
	return nil
}

// decodeRangeReportInto parses the range-report payload encoding (see
// appendRangeReport) straight into the batch columns, allocating nothing.
func decodeRangeReportInto(payload []byte, b *pipeline.ReportBatch) error {
	if len(payload) < 1 {
		return ErrTruncated
	}
	pos := 0
	kind := payload[pos]
	pos++
	var rKind rangeReportHeader
	switch kind {
	case rangeKindHier:
		attr, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return ErrTruncated
		}
		pos += n
		depth, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return ErrTruncated
		}
		pos += n
		if attr > 1<<16 || depth > 64 {
			return fmt.Errorf("transport: implausible hierarchy header attr=%d depth=%d", attr, depth)
		}
		rKind = rangeReportHeader{hier: true, attr: int(attr), depth: int(depth)}
	case rangeKindGrid:
		pair, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return ErrTruncated
		}
		pos += n
		if pair > 1<<20 {
			return fmt.Errorf("transport: implausible pair index %d", pair)
		}
		rKind = rangeReportHeader{pair: int(pair)}
	default:
		return fmt.Errorf("transport: unknown range report kind %d", kind)
	}
	if pos >= len(payload) {
		return ErrTruncated
	}
	respKind := payload[pos]
	pos++
	switch respKind {
	case respBits:
		words, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return ErrTruncated
		}
		pos += n
		if words == 0 {
			return fmt.Errorf("transport: empty bitset response")
		}
		if words > 1<<12 || pos+int(words)*8 > len(payload) {
			return ErrTruncated
		}
		dst := rKind.appendBits(b, int(words))
		for w := range dst {
			dst[w] = binary.LittleEndian.Uint64(payload[pos:])
			pos += 8
		}
	case respValue:
		v, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return ErrTruncated
		}
		pos += n
		if v > maxWireValue {
			return fmt.Errorf("transport: implausible response value %d", v)
		}
		rKind.appendValue(b, int(v))
	default:
		return fmt.Errorf("transport: unknown response kind %d", respKind)
	}
	if pos != len(payload) {
		return fmt.Errorf("transport: %d trailing payload bytes", len(payload)-pos)
	}
	return nil
}

// rangeReportHeader carries a parsed range-report header until the
// response is parsed and the whole report can be appended atomically.
type rangeReportHeader struct {
	hier        bool
	attr, depth int
	pair        int
}

func (h rangeReportHeader) kind() rangequery.ReportKind {
	if h.hier {
		return rangequery.KindHier
	}
	return rangequery.KindGrid
}

func (h rangeReportHeader) appendBits(b *pipeline.ReportBatch, words int) []uint64 {
	return b.AppendRangeBits(h.kind(), h.attr, h.depth, h.pair, words)
}

func (h rangeReportHeader) appendValue(b *pipeline.ReportBatch, v int) {
	b.AppendRangeValue(h.kind(), h.attr, h.depth, h.pair, v)
}
