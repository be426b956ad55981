package transport

import (
	"encoding/binary"

	"ldp/internal/rangequery"
)

// The envelope's range bodies carry rangequery.Report values: kind(byte),
// the kind-specific header (attr+depth uvarints for hierarchy reports, the
// pair uvarint for grid reports), then the frequency-oracle response
// (respBits: word count + words; respValue: value uvarint).
const (
	rangeKindHier = 0
	rangeKindGrid = 1

	respBits  = 0
	respValue = 1
)

// appendRangeReport appends the range-report body encoding.
func appendRangeReport(payload []byte, rep rangequery.Report) []byte {
	if payload == nil {
		payload = make([]byte, 0, 16+8*len(rep.Resp.Bits))
	}
	switch rep.Kind {
	case rangequery.KindGrid:
		payload = append(payload, rangeKindGrid)
		payload = binary.AppendUvarint(payload, uint64(rep.Pair))
	default:
		payload = append(payload, rangeKindHier)
		payload = binary.AppendUvarint(payload, uint64(rep.Attr))
		payload = binary.AppendUvarint(payload, uint64(rep.Depth))
	}
	if rep.Resp.Bits != nil {
		payload = append(payload, respBits)
		payload = binary.AppendUvarint(payload, uint64(len(rep.Resp.Bits)))
		for _, w := range rep.Resp.Bits {
			payload = binary.LittleEndian.AppendUint64(payload, w)
		}
	} else {
		payload = append(payload, respValue)
		payload = binary.AppendUvarint(payload, uint64(rep.Resp.Value))
	}
	return payload
}
