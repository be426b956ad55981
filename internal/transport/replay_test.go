package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ldp/internal/pipeline"
	"ldp/internal/rangequery"
	"ldp/internal/rng"
)

// forEachProcs runs f at GOMAXPROCS 1, 2, 4 and 8: ReplayPipeline starts
// one worker per P, so this varies how its chunks interleave.
func forEachProcs(t *testing.T, f func(t *testing.T, procs int)) {
	for _, procs := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t, procs)
		})
	}
}

// serialReplay is the replay ReplayPipeline parallelizes: one DecodeBatch
// and one AddBatch per replayBatchSize frames, in log order.
func serialReplay(t *testing.T, p *pipeline.Pipeline, frames [][]byte) {
	t.Helper()
	b := pipeline.NewReportBatch()
	for lo := 0; lo < len(frames); lo += replayBatchSize {
		b.Reset()
		if _, err := DecodeBatch(bytes.Join(frames[lo:min(lo+replayBatchSize, len(frames))], nil), b); err != nil {
			t.Fatal(err)
		}
		if err := p.AddBatch(b); err != nil {
			t.Fatal(err)
		}
	}
}

// replayFrames runs ReplayPipeline over an in-memory log. It also returns
// how many frames the source delivered.
func replayFrames(p *pipeline.Pipeline, frames [][]byte) (n, seen int, err error) {
	n, err = ReplayPipeline(p, func(fn func([]byte) error) error {
		for _, f := range frames {
			seen++
			if err := fn(f); err != nil {
				return err
			}
		}
		return nil
	})
	return n, seen, err
}

func shardedTestPipeline(t *testing.T, shards int) *pipeline.Pipeline {
	t.Helper()
	p, err := pipeline.New(pipelineSchema(t), 2,
		pipeline.WithShards(shards),
		pipeline.WithRange(rangequery.Config{Buckets: 32, GridCells: 2}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mixedLog encodes n raw (unquantized) reports: the pipeline's own
// mean/freq/range routing plus every fifth user reporting through the
// joint task.
func mixedLog(t *testing.T, n int) [][]byte {
	t.Helper()
	p := shardedTestPipeline(t, 1)
	frames := make([][]byte, n)
	for i := range frames {
		r := rng.NewStream(17, uint64(i))
		tup := randomTuple(p.Schema(), r)
		var rep pipeline.Report
		var err error
		if i%5 == 0 {
			rep, err = p.JointTask().Randomize(tup, r)
		} else {
			rep, err = p.Randomize(tup, r)
		}
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = mustEnvelope(t, rep)
	}
	return frames
}

// TestReplayPipelineMatchesSerial: the parallel replay folds the same
// batches in the same order as the serial one, so the state is
// bit-identical at every worker count and shard count.
func TestReplayPipelineMatchesSerial(t *testing.T) {
	frames := mixedLog(t, 9*replayBatchSize+300)
	want := map[int]*pipeline.AggState{}
	for _, shards := range []int{1, 3, 8} {
		ref := shardedTestPipeline(t, shards)
		serialReplay(t, ref, frames)
		want[shards] = ref.StateSnapshot()
	}
	forEachProcs(t, func(t *testing.T, _ int) {
		for _, shards := range []int{1, 3, 8} {
			p := shardedTestPipeline(t, shards)
			n, _, err := replayFrames(p, frames)
			if err != nil || n != len(frames) {
				t.Fatalf("shards=%d: ReplayPipeline = %d, %v; want %d, nil", shards, n, err, len(frames))
			}
			if got := p.StateSnapshot(); !reflect.DeepEqual(got, want[shards]) {
				t.Errorf("shards=%d: replayed state differs from the serial replay", shards)
			}
		}
	})
}

// TestReplayPipelineGradientOrder: the trainer counts a report whose
// round is not the collecting one as stale, so the replayed model depends
// on the order gradient reports arrive in. Reports spanning several
// chunks and round changes must reach it in log order.
func TestReplayPipelineGradientOrder(t *testing.T) {
	newP := func() *pipeline.Pipeline {
		p, err := pipeline.New(gradSchema(t), 2,
			pipeline.WithShards(3),
			pipeline.WithGradient(pipeline.GradientConfig{Dim: 4, Rounds: 6, GroupSize: 700, Eta: 1, Lambda: 1e-4}))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	gen := newP()
	gt := gen.GradientTask()
	grad := make([]float64, gt.Dim())
	frames := make([][]byte, 4*replayBatchSize+100)
	for i := range frames {
		r := rng.NewStream(23, uint64(i))
		for j := range grad {
			grad[j] = rng.Uniform(r, -1, 1)
		}
		// Mostly the round a client would be in at this point of the log,
		// with every seventh report a round late.
		round := min(i/700, gen.Trainer().Rounds()-1)
		if i%7 == 0 && round > 0 {
			round--
		}
		rep, err := gt.RandomizeGradient(round, grad, r)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = mustEnvelope(t, rep)
	}
	ref := newP()
	serialReplay(t, ref, frames)
	want := ref.Trainer()
	if want.Model().Round < 2 || want.Stale() == 0 {
		t.Fatalf("log exercises too little: round %d, %d stale", want.Model().Round, want.Stale())
	}
	forEachProcs(t, func(t *testing.T, _ int) {
		p := newP()
		if n, _, err := replayFrames(p, frames); err != nil || n != len(frames) {
			t.Fatalf("ReplayPipeline = %d, %v; want %d, nil", n, err, len(frames))
		}
		got := p.Trainer()
		if got.Accepted() != want.Accepted() || got.Stale() != want.Stale() {
			t.Errorf("accepted/stale = %d/%d, serial %d/%d", got.Accepted(), got.Stale(), want.Accepted(), want.Stale())
		}
		gm, wm := got.Model(), want.Model()
		if gm.Round != wm.Round || gm.Done != wm.Done {
			t.Errorf("model round %d done %v, serial %d %v", gm.Round, gm.Done, wm.Round, wm.Done)
		}
		for j := range wm.Beta {
			if math.Float64bits(gm.Beta[j]) != math.Float64bits(wm.Beta[j]) {
				t.Errorf("beta[%d] = %v, serial %v", j, gm.Beta[j], wm.Beta[j])
			}
		}
	})
}

// checkNoWorkers fails if goroutines started during the test are still
// running, the way the chaos suite checks for leaks.
func checkNoWorkers(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		buf := make([]byte, 1<<17)
		t.Errorf("goroutine leak: %d before, %d after\n%s", before, now, buf[:runtime.Stack(buf, true)])
	}
}

// TestReplayPipelineFailure: a bad frame in the middle of chunk 5 of 10
// stops the replay with the serial replay's n and message, chunks 1–4
// folded and nothing after; the source is stopped within a bounded number
// of frames, and no worker outlives the call. A chunk that decodes but
// fails validation reports its frame range the same way.
func TestReplayPipelineFailure(t *testing.T) {
	frames := mixedLog(t, 10*replayBatchSize)
	badAt := 4*replayBatchSize + replayBatchSize/2
	corrupt := append([][]byte(nil), frames...)
	corrupt[badAt] = append([]byte("XXXX"), frames[badAt][4:]...)

	// A pipeline without a range task rejects range reports at
	// validation: a log of the other reports with one range report in
	// the middle of chunk 3 decodes fully but fails there.
	var plain [][]byte
	var rangeFrame []byte
	for _, f := range frames {
		rep, err := DecodeEnvelope(f)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Task != pipeline.TaskRange {
			plain = append(plain, f)
		} else if rangeFrame == nil {
			rangeFrame = f
		}
	}
	invalidAt := 2*replayBatchSize + replayBatchSize/2
	invalid := append(append(append([][]byte(nil), plain[:invalidAt]...), rangeFrame), plain[invalidAt:]...)
	noRange := func() *pipeline.Pipeline {
		p, err := pipeline.New(pipelineSchema(t), 2, pipeline.WithShards(3))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	// The messages the serial replay gave for these two failures.
	_, err := DecodeEnvelope(corrupt[badAt])
	wantDecode := fmt.Sprintf("transport: replay frame %d: %v", badAt, err)
	b := pipeline.NewReportBatch()
	if _, err := DecodeBatch(bytes.Join(invalid[2*replayBatchSize:3*replayBatchSize], nil), b); err != nil {
		t.Fatal(err)
	}
	err = noRange().ValidateBatch(b)
	if err == nil {
		t.Fatal("chunk 3 validates on a pipeline without a range task")
	}
	wantInvalid := fmt.Sprintf("transport: replay frames %d..%d: %v", 2*replayBatchSize, 3*replayBatchSize-1, err)

	forEachProcs(t, func(t *testing.T, procs int) {
		before := runtime.NumGoroutine()
		ref := shardedTestPipeline(t, 3)
		serialReplay(t, ref, frames[:4*replayBatchSize])
		p := shardedTestPipeline(t, 3)
		n, seen, err := replayFrames(p, corrupt)
		if n != badAt || !errors.Is(err, ErrBadMagic) || err.Error() != wantDecode {
			t.Errorf("ReplayPipeline = %d, %v; want %d, %s", n, err, badAt, wantDecode)
		}
		if !reflect.DeepEqual(p.StateSnapshot(), ref.StateSnapshot()) {
			t.Error("state differs from the serial replay of chunks 1-4")
		}
		if limit := (2*procs + 1) * replayBatchSize; seen-1-badAt > limit {
			t.Errorf("source delivered %d frames past the bad one, limit %d", seen-1-badAt, limit)
		}

		// Chunk 3 (frames 2048..3071) decodes but fails validation.
		ref = noRange()
		serialReplay(t, ref, invalid[:2*replayBatchSize])
		p = noRange()
		n, _, err = replayFrames(p, invalid)
		if n != 3*replayBatchSize || err == nil || err.Error() != wantInvalid {
			t.Errorf("ReplayPipeline = %d, %v; want %d, %s", n, err, 3*replayBatchSize, wantInvalid)
		}
		if !reflect.DeepEqual(p.StateSnapshot(), ref.StateSnapshot()) {
			t.Error("state differs from the serial replay of chunks 1-2")
		}
		checkNoWorkers(t, before)
	})
}

// TestReplayPipelineSourceError: an error from the frame source itself is
// returned with the count of frames it delivered; the full chunks before
// it are folded and the partial one is not. A bad frame in that partial
// chunk still wins, being earlier in the log than the source's failure.
func TestReplayPipelineSourceError(t *testing.T) {
	frames := mixedLog(t, 2*replayBatchSize+300)
	boom := errors.New("disk on fire")
	source := func(log [][]byte) func(fn func([]byte) error) error {
		return func(fn func([]byte) error) error {
			for _, f := range log {
				if err := fn(f); err != nil {
					return err
				}
			}
			return boom
		}
	}
	forEachProcs(t, func(t *testing.T, _ int) {
		ref := shardedTestPipeline(t, 3)
		serialReplay(t, ref, frames[:2*replayBatchSize])
		p := shardedTestPipeline(t, 3)
		n, err := ReplayPipeline(p, source(frames))
		if n != len(frames) || !errors.Is(err, boom) {
			t.Errorf("ReplayPipeline = %d, %v; want %d, %v", n, err, len(frames), boom)
		}
		if !reflect.DeepEqual(p.StateSnapshot(), ref.StateSnapshot()) {
			t.Error("state differs from the serial replay of the full chunks")
		}

		badAt := 2*replayBatchSize + 100
		corrupt := append([][]byte(nil), frames...)
		corrupt[badAt] = append([]byte("XXXX"), frames[badAt][4:]...)
		n, err = ReplayPipeline(shardedTestPipeline(t, 3), source(corrupt))
		if n != badAt || !errors.Is(err, ErrBadMagic) {
			t.Errorf("ReplayPipeline = %d, %v; want %d, %v", n, err, badAt, ErrBadMagic)
		}
	})
}
