package pipeline

import (
	"sync"

	"ldp/internal/core"
	"ldp/internal/freq"
	"ldp/internal/rangequery"
)

// ReportBatch is a reusable columnar batch of decoded reports: the unit of
// work of the ingest hot path. Instead of one Report struct (and one
// bitset allocation) per frame, a batch stores every report's payload in
// task-tagged parallel columns over shared flat buffers — entry
// attributes, kinds, numeric values, categorical values, and bitset spans
// into one []uint64 — so decoding a frame appends a few array elements and
// folding a batch walks contiguous memory. A Reset keeps every buffer's
// capacity, which is what makes the steady state allocation-free; GetBatch
// and PutBatch recycle batches through a sync.Pool.
//
// A batch is built by the appenders (StartEntryReport/AppendNumeric/
// AppendValue/AppendBits, AppendRangeValue/AppendRangeBits, or the
// convenience Append), is read by Pipeline.AddBatch (and by Add, which
// carries its one report in a pooled batch), and is not safe for
// concurrent mutation. Reports can be materialized individually with
// Report for inspection and tests; the hot path never does.
type ReportBatch struct {
	task   []TaskKind // one element per report
	round  []int32    // one element per report; the training round of a gradient report, 0 otherwise
	nGrad  int        // number of gradient reports (lets AddBatch skip the trainer lock entirely)
	entOff []int32    // entry span of report i: [entOff[i], entOff[i+1])

	// Entry columns (mean/freq/joint/gradient reports), one element per
	// entry. Attributes and values are as wide as Report's fields, so
	// Append carries any report exactly as given and the validator judges
	// the values the report actually holds.
	entAttr   []int
	entKind   []uint8 // core.EntryKind, kept as given (unknown kinds too)
	entNum    []float64
	entCat    []int
	entBitOff []int32
	entBitLen []int32

	// Range column: rngIdx[i] indexes it for reports with task TaskRange
	// and is -1 otherwise.
	rngIdx []int32
	rng    []rangeEntry

	// bits is the shared flat buffer behind every bitset span.
	bits []uint64
}

// rangeEntry is one range report's element of the range column: the
// rangequery.Report fields, with the response as a value or as a span of
// the batch's shared bit buffer.
type rangeEntry struct {
	kind                   rangequery.ReportKind
	attr, depth, pair, val int
	bitOff, bitLen         int32 // bitLen -1 marks a value (GRR) response
}

// NewReportBatch returns an empty batch. Callers that ingest continuously
// should prefer GetBatch/PutBatch, which recycle grown buffers.
func NewReportBatch() *ReportBatch {
	// bits starts non-nil (the empty literal allocates nothing), so even a
	// zero-word bitset span is a non-nil bitset, never a value response.
	return &ReportBatch{entOff: make([]int32, 1, 64), bits: []uint64{}}
}

var batchPool = sync.Pool{New: func() any { return NewReportBatch() }}

// GetBatch returns an empty batch from the package pool. Return it with
// PutBatch when done to keep the steady state allocation-free.
func GetBatch() *ReportBatch { return batchPool.Get().(*ReportBatch) }

// PutBatch resets a batch and returns it to the package pool. The caller
// must not use the batch (or any slice obtained from it) afterwards.
func PutBatch(b *ReportBatch) {
	if b == nil {
		return
	}
	b.Reset()
	batchPool.Put(b)
}

// Len returns the number of reports in the batch.
func (b *ReportBatch) Len() int { return len(b.task) }

// Task returns the task tag of report i.
func (b *ReportBatch) Task(i int) TaskKind { return b.task[i] }

// Round returns the training round of report i (meaningful for gradient
// reports; 0 for every other task).
func (b *ReportBatch) Round(i int) int32 { return b.round[i] }

// Reset empties the batch, keeping every buffer's capacity for reuse.
func (b *ReportBatch) Reset() {
	b.task = b.task[:0]
	b.round = b.round[:0]
	b.nGrad = 0
	b.entOff = b.entOff[:1]
	b.entOff[0] = 0
	b.entAttr = b.entAttr[:0]
	b.entKind = b.entKind[:0]
	b.entNum = b.entNum[:0]
	b.entCat = b.entCat[:0]
	b.entBitOff = b.entBitOff[:0]
	b.entBitLen = b.entBitLen[:0]
	b.rngIdx = b.rngIdx[:0]
	b.rng = b.rng[:0]
	b.bits = b.bits[:0]
}

// BatchMark is a position in a batch, taken with Mark and restored with
// Truncate: a decoder that fails mid-frame rolls the batch back to the
// last complete report.
type BatchMark struct {
	reports, entries, ranges, bits, grads int
}

// Mark records the current end of the batch.
func (b *ReportBatch) Mark() BatchMark {
	return BatchMark{
		reports: len(b.task),
		entries: len(b.entAttr),
		ranges:  len(b.rng),
		bits:    len(b.bits),
		grads:   b.nGrad,
	}
}

// Truncate discards everything appended after the mark.
func (b *ReportBatch) Truncate(m BatchMark) {
	b.task = b.task[:m.reports]
	b.round = b.round[:m.reports]
	b.nGrad = m.grads
	b.entOff = b.entOff[:m.reports+1]
	b.entOff[m.reports] = int32(m.entries)
	b.entAttr = b.entAttr[:m.entries]
	b.entKind = b.entKind[:m.entries]
	b.entNum = b.entNum[:m.entries]
	b.entCat = b.entCat[:m.entries]
	b.entBitOff = b.entBitOff[:m.entries]
	b.entBitLen = b.entBitLen[:m.entries]
	b.rngIdx = b.rngIdx[:m.reports]
	b.rng = b.rng[:m.ranges]
	b.bits = b.bits[:m.bits]
}

// StartEntryReport begins a new entry-list report (TaskMean, TaskFreq, or
// TaskJoint; range reports are appended whole with AppendRangeValue or
// AppendRangeBits). Subsequent AppendNumeric/AppendValue/AppendBits calls
// attach entries to it.
func (b *ReportBatch) StartEntryReport(task TaskKind) {
	b.task = append(b.task, task)
	b.round = append(b.round, 0)
	b.entOff = append(b.entOff, int32(len(b.entAttr)))
	b.rngIdx = append(b.rngIdx, -1)
}

// StartGradientReport begins a new gradient report for the given training
// round. Subsequent AppendNumeric calls attach its perturbed coordinates
// (attr = coordinate index).
func (b *ReportBatch) StartGradientReport(round int32) {
	b.task = append(b.task, TaskGradient)
	b.round = append(b.round, round)
	b.nGrad++
	b.entOff = append(b.entOff, int32(len(b.entAttr)))
	b.rngIdx = append(b.rngIdx, -1)
}

// appendEntry grows every entry column by one element.
func (b *ReportBatch) appendEntry(attr int, kind core.EntryKind, num float64, cat int, bitOff, bitLen int32) {
	b.entAttr = append(b.entAttr, attr)
	b.entKind = append(b.entKind, uint8(kind))
	b.entNum = append(b.entNum, num)
	b.entCat = append(b.entCat, cat)
	b.entBitOff = append(b.entBitOff, bitOff)
	b.entBitLen = append(b.entBitLen, bitLen)
	b.entOff[len(b.entOff)-1] = int32(len(b.entAttr))
}

// AppendNumeric attaches a numeric entry to the current entry report.
func (b *ReportBatch) AppendNumeric(attr int, v float64) {
	b.appendEntry(attr, core.EntryNumeric, v, 0, 0, 0)
}

// AppendValue attaches a value-type (GRR) categorical entry to the current
// entry report.
func (b *ReportBatch) AppendValue(attr int, v int) {
	b.appendEntry(attr, core.EntryCategoricalValue, 0, v, 0, 0)
}

// AppendBits attaches a unary-encoding categorical entry to the current
// entry report and returns the span of the shared bit buffer backing it.
// The caller must overwrite all `words` elements before the next append
// (the span may contain stale words from a previous use of the batch) and
// must not hold the slice across further appends.
func (b *ReportBatch) AppendBits(attr int, words int) []uint64 {
	off := len(b.bits)
	dst := b.growBits(words)
	b.appendEntry(attr, core.EntryCategoricalBits, 0, 0, int32(off), int32(words))
	return dst
}

// AppendRangeValue appends a whole range report with a value-type (GRR)
// oracle response.
func (b *ReportBatch) AppendRangeValue(kind rangequery.ReportKind, attr, depth, pair, value int) {
	b.appendRange(kind, attr, depth, pair, value, 0, -1)
}

// AppendRangeBits appends a whole range report with a unary-encoding
// oracle response and returns the span of the shared bit buffer backing
// it, under the same fill-before-next-append contract as AppendBits.
func (b *ReportBatch) AppendRangeBits(kind rangequery.ReportKind, attr, depth, pair, words int) []uint64 {
	off := len(b.bits)
	dst := b.growBits(words)
	b.appendRange(kind, attr, depth, pair, 0, int32(off), int32(words))
	return dst
}

func (b *ReportBatch) appendRange(kind rangequery.ReportKind, attr, depth, pair, val int, bitOff, bitLen int32) {
	b.task = append(b.task, TaskRange)
	b.round = append(b.round, 0)
	b.entOff = append(b.entOff, int32(len(b.entAttr)))
	b.rngIdx = append(b.rngIdx, int32(len(b.rng)))
	b.rng = append(b.rng, rangeEntry{kind, attr, depth, pair, val, bitOff, bitLen})
}

// growBits extends the shared bit buffer by `words` elements without
// zeroing them and returns the new span.
func (b *ReportBatch) growBits(words int) []uint64 {
	off := len(b.bits)
	need := off + words
	if cap(b.bits) < need {
		grown := make([]uint64, need, max(2*need, 64))
		copy(grown, b.bits)
		b.bits = grown
	} else {
		b.bits = b.bits[:need]
	}
	return b.bits[off:need]
}

// Append adds one materialized report to the batch, copying its payload
// into the columns exactly as given: an unknown entry kind keeps its
// byte, and a range response is a bitset exactly when Resp.Bits is
// non-nil (even if empty), so the validator sees what the report holds.
// The report is not retained.
func (b *ReportBatch) Append(rep Report) {
	if rep.Task == TaskRange {
		rr := rep.Range
		if rr.Resp.Bits != nil {
			copy(b.AppendRangeBits(rr.Kind, rr.Attr, rr.Depth, rr.Pair, len(rr.Resp.Bits)), rr.Resp.Bits)
		} else {
			b.AppendRangeValue(rr.Kind, rr.Attr, rr.Depth, rr.Pair, rr.Resp.Value)
		}
		return
	}
	if rep.Task == TaskGradient {
		b.StartGradientReport(rep.Round)
	} else {
		b.StartEntryReport(rep.Task)
	}
	for i := range rep.Entries {
		e := &rep.Entries[i]
		if e.Kind == core.EntryCategoricalBits {
			copy(b.AppendBits(e.Attr, len(e.Resp.Bits)), e.Resp.Bits)
		} else {
			b.appendEntry(e.Attr, e.Kind, e.Value, e.Resp.Value, 0, 0)
		}
	}
}

// Report materializes report i as a standalone Report (bitsets are
// copied, so the result outlives the batch). It allocates; the aggregation
// hot path reads the columns directly instead.
func (b *ReportBatch) Report(i int) Report {
	if b.task[i] == TaskRange {
		rr := b.rangeAlias(i)
		if rr.Resp.Bits != nil {
			rr.Resp.Bits = append(freq.Bitset{}, rr.Resp.Bits...)
		}
		return Report{Task: TaskRange, Range: rr}
	}
	lo, hi := b.entOff[i], b.entOff[i+1]
	entries := make([]core.Entry, 0, hi-lo)
	for e := lo; e < hi; e++ {
		ent := core.Entry{Attr: b.entAttr[e], Kind: core.EntryKind(b.entKind[e]), Value: b.entNum[e]}
		if ent.Kind == core.EntryCategoricalBits {
			off := b.entBitOff[e]
			ent.Resp.Bits = append(freq.Bitset{}, b.bits[off:off+b.entBitLen[e]]...)
		} else {
			ent.Resp.Value = b.entCat[e]
		}
		entries = append(entries, ent)
	}
	return Report{Task: b.task[i], Round: b.round[i], Entries: entries}
}

// rangeAlias materializes range report i as a stack value whose bitset
// (if any) aliases the batch's shared bit buffer: for validation and
// folding, not for retention. The caller must have checked task[i] ==
// TaskRange.
func (b *ReportBatch) rangeAlias(i int) rangequery.Report {
	e := &b.rng[b.rngIdx[i]]
	rep := rangequery.Report{Kind: e.kind, Attr: e.attr, Depth: e.depth, Pair: e.pair}
	if e.bitLen < 0 {
		rep.Resp.Value = e.val
	} else {
		rep.Resp.Bits = freq.Bitset(b.bits[e.bitOff : e.bitOff+e.bitLen])
	}
	return rep
}
