package transport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"ldp/internal/pipeline"
)

// The envelope (version 2) is the one report wire format; it multiplexes
// every task's payload through one frame:
//
//	magic(4)="LDPR" version(1)=2 payloadLen(u32) payload crc32(u32)
//	payload = taskTag(1) taskBody
//
// Mean/freq/joint bodies are entry lists (see appendEntries), range
// bodies are range-report payloads (see appendRangeReport), and gradient
// bodies carry a round tag plus a coordinate list (see appendGradient).
// The decoder rejects unknown magics, versions, and task tags; the retired
// version-1 frames (an untagged entry list under "LDPR", and range reports
// under their own magic) no longer decode.
const (
	wireEnvelopeVersion = 2

	envTaskMean     = 1
	envTaskFreq     = 2
	envTaskRange    = 3
	envTaskJoint    = 4
	envTaskGradient = 5
)

// EncodeEnvelope serializes a unified report into the versioned,
// task-multiplexed wire envelope.
func EncodeEnvelope(rep pipeline.Report) ([]byte, error) {
	return AppendEnvelope(nil, rep)
}

// AppendEnvelope appends a report's wire envelope to dst and returns the
// extended buffer. When dst has capacity it allocates nothing, so a client
// can assemble a whole batch upload into one reused buffer.
func AppendEnvelope(dst []byte, rep pipeline.Report) ([]byte, error) {
	switch rep.Task {
	case pipeline.TaskMean, pipeline.TaskFreq, pipeline.TaskJoint, pipeline.TaskRange, pipeline.TaskGradient:
	default:
		return dst, fmt.Errorf("transport: cannot encode task %v", rep.Task)
	}
	start := len(dst)
	dst = append(dst, wireMagic...)
	dst = append(dst, wireEnvelopeVersion, 0, 0, 0, 0) // length backfilled below
	payloadStart := len(dst)
	switch rep.Task {
	case pipeline.TaskMean:
		dst = appendEntries(append(dst, envTaskMean), rep.Entries)
	case pipeline.TaskFreq:
		dst = appendEntries(append(dst, envTaskFreq), rep.Entries)
	case pipeline.TaskJoint:
		dst = appendEntries(append(dst, envTaskJoint), rep.Entries)
	case pipeline.TaskRange:
		dst = appendRangeReport(append(dst, envTaskRange), rep.Range)
	case pipeline.TaskGradient:
		dst = appendGradient(append(dst, envTaskGradient), rep.Round, rep.Entries)
	}
	binary.LittleEndian.PutUint32(dst[start+5:], uint32(len(dst)-payloadStart))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[payloadStart:])), nil
}

// DecodeEnvelope parses one envelope frame into a unified report. Unknown
// magics, versions, and task tags are errors (ErrBadMagic, ErrBadVersion);
// malformed frames never panic.
//
// It is a materializing wrapper over the columnar batch decoder — one
// decode implementation serves both paths, so they cannot drift apart in
// what they accept.
func DecodeEnvelope(frame []byte) (pipeline.Report, error) {
	b := pipeline.GetBatch()
	defer pipeline.PutBatch(b)
	if err := decodeFrameInto(frame, b); err != nil {
		return pipeline.Report{}, err
	}
	return b.Report(0), nil
}

// FrameLen returns the total length of the frame starting at buf[0], from
// the envelope header alone. It errors when fewer than the 13 framing
// bytes are present or the header implies an oversized frame.
func FrameLen(buf []byte) (int, error) {
	if len(buf) < 13 {
		return 0, ErrTruncated
	}
	total := 13 + int(binary.LittleEndian.Uint32(buf[5:9]))
	if total > MaxFrameSize {
		return 0, fmt.Errorf("transport: frame of %d bytes exceeds limit", total)
	}
	return total, nil
}

// SplitFrames slices a buffer of concatenated report frames (the batch
// upload body) into individual frames without copying. An empty buffer
// yields no frames; a trailing partial frame is an error.
func SplitFrames(buf []byte) ([][]byte, error) {
	var frames [][]byte
	for len(buf) > 0 {
		n, err := FrameLen(buf)
		if err != nil {
			return nil, err
		}
		if n > len(buf) {
			return nil, ErrTruncated
		}
		frames = append(frames, buf[:n])
		buf = buf[n:]
	}
	return frames, nil
}

// replayBatchSize bounds how many replayed frames accumulate in the
// columnar batch before a flush into the pipeline.
const replayBatchSize = 1024

// ReplayPipeline rebuilds pipeline state from persisted envelope frames,
// e.g. at server startup with reportlog.Replay. Frames are decoded into a
// pooled columnar batch and folded in replayBatchSize chunks through
// Pipeline.AddBatch, so replaying a large log runs at batch-ingest speed.
// It returns the number of frames decoded; on error, frames of the
// failing chunk may not have been folded.
func ReplayPipeline(p *pipeline.Pipeline, frames func(fn func(payload []byte) error) error) (int, error) {
	b := pipeline.GetBatch()
	defer pipeline.PutBatch(b)
	n := 0
	flush := func() error {
		if b.Len() == 0 {
			return nil
		}
		if err := p.AddBatch(b); err != nil {
			return fmt.Errorf("transport: replay frames %d..%d: %w", n-b.Len(), n-1, err)
		}
		b.Reset()
		return nil
	}
	err := frames(func(payload []byte) error {
		mark := b.Mark()
		if err := decodeFrameInto(payload, b); err != nil {
			b.Truncate(mark)
			return fmt.Errorf("transport: replay frame %d: %w", n, err)
		}
		n++
		if b.Len() >= replayBatchSize {
			return flush()
		}
		return nil
	})
	if err != nil {
		return n, err
	}
	return n, flush()
}
