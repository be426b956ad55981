package pipeline

import (
	"strings"
	"testing"

	"ldp/internal/core"
	"ldp/internal/freq"
	"ldp/internal/rangequery"
	"ldp/internal/rng"
)

// batchTestPipeline registers all three tasks so batches carry every
// payload shape.
func batchTestPipeline(t testing.TB) *Pipeline {
	t.Helper()
	p, err := New(testSchema(t), 2, WithShards(3),
		WithRange(rangequery.Config{Buckets: 32, GridCells: 2}))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBatchAppendReportRoundTrip: Append then Report reproduces every
// report exactly, and materialized reports do not alias batch buffers.
func TestBatchAppendReportRoundTrip(t *testing.T) {
	p := batchTestPipeline(t)
	r := rng.New(3)
	b := NewReportBatch()
	var reps []Report
	seen := map[TaskKind]bool{}
	for i := 0; i < 200; i++ {
		rep, err := p.Randomize(sampleTuple(p.Schema(), r), r)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
		b.Append(rep)
		seen[rep.Task] = true
	}
	if len(seen) < 3 {
		t.Fatalf("only tasks %v sampled", seen)
	}
	if b.Len() != len(reps) {
		t.Fatalf("batch holds %d reports, want %d", b.Len(), len(reps))
	}
	for i, want := range reps {
		got := b.Report(i)
		if got.Task != want.Task {
			t.Fatalf("report %d task %v, want %v", i, got.Task, want.Task)
		}
		if len(got.Entries) != len(want.Entries) {
			t.Fatalf("report %d has %d entries, want %d", i, len(got.Entries), len(want.Entries))
		}
		for j := range want.Entries {
			we, ge := want.Entries[j], got.Entries[j]
			if we.Attr != ge.Attr || we.Kind != ge.Kind || we.Value != ge.Value || we.Resp.Value != ge.Resp.Value {
				t.Fatalf("report %d entry %d changed: %+v != %+v", i, j, ge, we)
			}
			if len(we.Resp.Bits) != len(ge.Resp.Bits) {
				t.Fatalf("report %d entry %d bitset length changed", i, j)
			}
			for w := range we.Resp.Bits {
				if we.Resp.Bits[w] != ge.Resp.Bits[w] {
					t.Fatalf("report %d entry %d bits changed", i, j)
				}
			}
		}
		if wr, gr := want.Range, got.Range; wr.Kind != gr.Kind || wr.Attr != gr.Attr ||
			wr.Depth != gr.Depth || wr.Pair != gr.Pair || wr.Resp.Value != gr.Resp.Value {
			t.Fatalf("report %d range header changed", i)
		}
	}

	// Mutating a materialized bitset must not write through to the batch.
	for i := range reps {
		got := b.Report(i)
		for j, e := range got.Entries {
			if e.Resp.Bits != nil {
				before := b.Report(i).Entries[j].Resp.Bits[0]
				e.Resp.Bits[0] ^= ^uint64(0)
				if b.Report(i).Entries[j].Resp.Bits[0] != before {
					t.Fatal("materialized report aliases the batch bit buffer")
				}
				return
			}
		}
	}
}

// TestBatchMarkTruncate: Truncate rolls the batch back to a mark exactly,
// discarding partial appends.
func TestBatchMarkTruncate(t *testing.T) {
	b := NewReportBatch()
	b.StartEntryReport(TaskMean)
	b.AppendNumeric(0, 0.5)
	mark := b.Mark()

	b.StartEntryReport(TaskFreq)
	bits := b.AppendBits(2, 1)
	bits[0] = 0b10
	b.AppendRangeValue(rangequery.KindHier, 0, 3, 0, 5)
	if b.Len() != 3 {
		t.Fatalf("batch holds %d reports before truncate, want 3", b.Len())
	}
	b.Truncate(mark)
	if b.Len() != 1 {
		t.Fatalf("batch holds %d reports after truncate, want 1", b.Len())
	}
	rep := b.Report(0)
	if rep.Task != TaskMean || len(rep.Entries) != 1 || rep.Entries[0].Value != 0.5 {
		t.Fatalf("surviving report changed: %+v", rep)
	}

	// The truncated space is reusable.
	b.StartEntryReport(TaskMean)
	b.AppendNumeric(1, -0.25)
	if b.Len() != 2 || b.Report(1).Entries[0].Value != -0.25 {
		t.Fatal("append after truncate misplaced")
	}
}

// TestAddBatchRejectsAtomically: one malformed report rejects the whole
// batch before any state changes.
func TestAddBatchRejectsAtomically(t *testing.T) {
	p := batchTestPipeline(t)
	r := rng.New(9)
	b := NewReportBatch()
	for i := 0; i < 10; i++ {
		rep, err := p.Randomize(sampleTuple(p.Schema(), r), r)
		if err != nil {
			t.Fatal(err)
		}
		b.Append(rep)
	}
	// An undersized bitset for the categorical attribute (wants 1 word).
	b.StartEntryReport(TaskFreq)
	b.AppendBits(2, 0)

	err := p.AddBatch(b)
	if err == nil {
		t.Fatal("AddBatch accepted a malformed bitset")
	}
	if !strings.Contains(err.Error(), "report 10") {
		t.Fatalf("error %q does not name the failing report", err)
	}
	if got := p.N(); got != 0 {
		t.Fatalf("rejected batch still folded %d reports", got)
	}

	// The same batch without the bad tail folds fine.
	good := NewReportBatch()
	for i := 0; i < b.Len()-1; i++ {
		good.Append(b.Report(i))
	}
	if err := p.AddBatch(good); err != nil {
		t.Fatal(err)
	}
	if got := p.N(); got != 10 {
		t.Fatalf("N = %d after valid batch, want 10", got)
	}
}

// TestAddBatchEmpty: an empty batch is a no-op.
func TestAddBatchEmpty(t *testing.T) {
	p := batchTestPipeline(t)
	if err := p.AddBatch(NewReportBatch()); err != nil {
		t.Fatal(err)
	}
	if p.N() != 0 {
		t.Fatal("empty batch changed state")
	}
}

// TestAddBatchSpreadsShards: a large batch leaves no shard empty (the
// span partition touches every shard) and small batches rotate across
// shards over successive calls.
func TestAddBatchSpreadsShards(t *testing.T) {
	p, err := New(testSchema(t), 1, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	one := NewReportBatch()
	one.Append(Report{Task: TaskMean, Entries: []core.Entry{{Attr: 0, Kind: core.EntryNumeric, Value: 1}}})
	for i := 0; i < 8; i++ {
		if err := p.AddBatch(one); err != nil {
			t.Fatal(err)
		}
	}
	touched := 0
	for _, sh := range p.shards {
		if sh.st.NMean > 0 {
			touched++
		}
	}
	if touched != 4 {
		t.Fatalf("8 single-report batches touched %d of 4 shards", touched)
	}
	if got := p.N(); got != 8 {
		t.Fatalf("N = %d, want 8", got)
	}
}

// TestFoldBitsMatchesPerBit: the vectorized bit fold counts exactly the
// bits a per-bit Get loop counts, ignoring stray high bits past the
// cardinality (decoded frames are attacker-controlled).
func TestFoldBitsMatchesPerBit(t *testing.T) {
	const card = 70 // 2-word bitset, 58 stray bits in word 2
	o, err := freq.NewOUE(1, card)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	vec := freq.NewEstimator(o)
	ref := make([]float64, card)
	for i := 0; i < 500; i++ {
		resp := o.Perturb(r.IntN(card), r)
		resp.Bits[1] |= 0xffff << 20 // adversarial stray bits >= 70
		for v := 0; v < card; v++ {
			if resp.Bits.Get(v) {
				ref[v]++
			}
		}
		vec.AddBits(resp.Bits)
	}
	if vec.N() != 500 {
		t.Fatalf("N %d != 500", vec.N())
	}
	for v, got := range vec.Counts() {
		if got != ref[v] {
			t.Fatalf("count[%d] = %v, want %v", v, got, ref[v])
		}
	}
}
