package cluster

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"ldp/internal/pipeline"
)

// snapshotPayload encodes s and returns the frame's payload: the bytes
// between the 9-byte envelope header and the CRC.
func snapshotPayload(tb testing.TB, s *Snapshot) []byte {
	tb.Helper()
	frame, err := EncodeSnapshot(s)
	if err != nil {
		tb.Fatal(err)
	}
	return frame[9 : len(frame)-4]
}

// FuzzDecodeSnapshot drives the bytes a root accepts on /v1/merge through
// everything that reads them. The fuzzed payload is wrapped in a valid
// LDPS envelope with a recomputed CRC, so mutations reach the section
// parsers instead of failing the checksum. Whatever decodes runs
// CheckState, then MergeState into a fresh pipeline, then View and every
// query kind. Nothing may panic; a state CheckState rejects must not
// merge, and an accepted merge must add exactly the decoded state's
// report total.
func FuzzDecodeSnapshot(f *testing.F) {
	src := clusterPipeline(f)
	ingest(f, 5, 300, src)
	f.Add(snapshotPayload(f, &Snapshot{
		Fingerprint: src.Fingerprint(), Edge: "edge-a", Seq: 1, Boot: "boot-1",
		State: src.StateSnapshot(),
	}))
	f.Add(snapshotPayload(f, &Snapshot{Edge: "e", State: &pipeline.AggState{
		MeanSum:  []float64{1, 2, 0},
		JointSum: []float64{0, 0, 0},
		Trainer:  &pipeline.TrainerState{Round: 3, Done: true, Accepted: 10, Stale: 2, Beta: []float64{0.5, -0.25}},
	}}))

	f.Fuzz(func(t *testing.T, payload []byte) {
		frame := append([]byte(snapMagic), snapVersion)
		frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
		frame = append(frame, payload...)
		frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
		snap, err := DecodeSnapshot(frame)
		if err != nil {
			return
		}
		p := clusterPipeline(t)
		if err := p.CheckState(snap.State); err != nil {
			if p.MergeState(snap.State) == nil {
				t.Fatalf("MergeState accepted a state CheckState rejects (%v)", err)
			}
			if n := p.StateSnapshot().Total(); n != 0 {
				t.Fatalf("rejected merge changed the state: total %d", n)
			}
			return
		}
		if err := p.MergeState(snap.State); err != nil {
			t.Fatalf("MergeState rejected a state CheckState accepts: %v", err)
		}
		if got, want := p.StateSnapshot().Total(), snap.State.Total(); got != want {
			t.Fatalf("merged state total %d, want %d", got, want)
		}
		res := p.View()
		res.Means()
		for _, attr := range []string{"age", "income", "gender"} {
			res.Mean(attr)
			res.Freq(attr)
			res.FreqView(attr)
		}
		res.Range(pipeline.RangeQuery{Attr: "age", Lo: -0.5, Hi: 0.5})
		res.Range(pipeline.RangeQuery{Attr: "age", Lo: -1, Hi: 1, Attr2: "income", Lo2: 0, Hi2: 1})
		for _, kind := range []pipeline.TaskKind{pipeline.TaskMean, pipeline.TaskFreq, pipeline.TaskRange, pipeline.TaskJoint} {
			res.NTask(kind)
		}
	})
}
