package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"ldp/internal/core"
	"ldp/internal/pipeline"
	"ldp/internal/rangequery"
	"ldp/internal/rng"
	"ldp/internal/schema"
)

// goldenSnapshotSHA256 is the SHA-256 of the LDPS v1 frame that
// TestSnapshotGoldenBytes encodes.
const goldenSnapshotSHA256 = "f9d9ddb7984c18ce7965bb1dab8221ca584863e4b3bd22a61514ac5b093e2180"

// TestSnapshotGoldenBytes pins the LDPS v1 bytes. It encodes the
// StateSnapshot of a seeded pipeline with every section present (freq and
// joint count columns, range levels and grids, and a trainer snapshot)
// and compares the frame's SHA-256 with a recorded constant.
// TestSnapshotRoundTrip alone would still pass if the encoder and the
// decoder changed together; this digest moves with any byte.
func TestSnapshotGoldenBytes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden digest is recorded on amd64")
	}
	p, err := pipeline.New(clusterSchema(t), 4,
		pipeline.WithShards(2),
		pipeline.WithRange(rangequery.Config{Buckets: 32, GridCells: 4}),
		pipeline.WithGradient(pipeline.GradientConfig{Dim: 2, Rounds: 4, GroupSize: 1000, Eta: 1, Lambda: 1e-4}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, 17, 400, p)
	// Algorithm-4 reports over the whole schema fill the joint columns, and
	// gradient reports land in the trainer's open round.
	for i := 0; i < 100; i++ {
		r := rng.NewStream(18, uint64(i))
		tup := schema.NewTuple(p.Schema())
		tup.Num[0], tup.Num[1] = math.Tanh(r.NormFloat64()), math.Tanh(r.NormFloat64())
		tup.Cat[2] = int(r.Uint64() % 2)
		rep, err := p.JointTask().Randomize(tup, r)
		if err != nil {
			t.Fatal(err)
		}
		addQuantized(t, p, rep)
	}
	for i := 0; i < 3; i++ {
		rep, err := p.GradientTask().RandomizeGradient(0, []float64{0.25, -0.5}, rng.NewStream(19, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		addQuantized(t, p, rep)
	}

	s := &Snapshot{
		Fingerprint: p.Fingerprint(), Edge: "edge-golden", Seq: 7, Boot: "boot-golden",
		State: p.StateSnapshot(),
	}
	frame, err := EncodeSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	// The section mask follows the 9-byte envelope, fingerprint, sequence
	// number and the two length-prefixed IDs.
	if flags := frame[9+8+8+1+len(s.Edge)+1+len(s.Boot)]; flags != flagFreq|flagJoint|flagRange|flagTrainer {
		t.Fatalf("section mask %#x, want every section", flags)
	}
	sum := sha256.Sum256(frame)
	if got := hex.EncodeToString(sum[:]); got != goldenSnapshotSHA256 {
		t.Fatalf("LDPS frame (%d bytes) has SHA-256 %s, want %s", len(frame), got, goldenSnapshotSHA256)
	}
}

// addQuantized folds rep into p with its numeric values snapped onto the
// 2^-10 grid, as ingest does, so the digest does not rest on the last bits
// of a randomizer's output.
func addQuantized(t *testing.T, p *pipeline.Pipeline, rep pipeline.Report) {
	t.Helper()
	for e := range rep.Entries {
		if rep.Entries[e].Kind == core.EntryNumeric {
			rep.Entries[e].Value = math.Round(rep.Entries[e].Value*1024) / 1024
		}
	}
	if err := p.Add(rep); err != nil {
		t.Fatal(err)
	}
}
