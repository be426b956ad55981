package transport

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ldp/internal/pipeline"
)

// replayBatchSize is the number of frames in one replay chunk: the unit a
// worker decodes and validates, and the batch it folds.
const replayBatchSize = 1024

// errReplayStopped is what ReplayPipeline's frame callback returns, to
// end the frame source early, once a chunk has failed.
var errReplayStopped = errors.New("transport: replay stopped at a failed chunk")

// ReplayPipeline rebuilds pipeline state from persisted envelope frames,
// e.g. at server startup with reportlog.Replay. It returns the number of
// frames decoded.
//
// The caller's goroutine runs frames and copies each frame into a chunk of
// replayBatchSize frames. GOMAXPROCS workers decode and validate chunks in
// parallel, each into its own pooled batch, and fold them through
// Pipeline.AddBatchValidated strictly in chunk order. The batches and
// their order are those of a serial replay that folds every
// replayBatchSize frames with AddBatch, so the replayed state is
// bit-identical to it: the same float sums and shard layout, and gradient
// reports reach the trainer in log order.
//
// A frame that fails to decode or a chunk that fails validation stops the
// replay. The error is that of the earliest failure in log order, and n
// counts the frames decoded up to it: the failing frame's index for a
// decode error, the end of the failing chunk for a validation error. The
// chunks before it are folded; its own chunk and every later one are not.
// The frame source is stopped at its next frame. An error from frames
// itself is returned when no chunk failed; the frames after the last full
// chunk are then decoded but not folded. Every worker has exited when
// ReplayPipeline returns.
func ReplayPipeline(p *pipeline.Pipeline, frames func(fn func(payload []byte) error) error) (int, error) {
	workers := runtime.GOMAXPROCS(0)
	r := &replayer{
		p: p,
		// A chunk is in the work queue, with a worker, or being filled:
		// bounding the queue at the worker count bounds the chunks in
		// flight, and so the memory, at 2·workers+1, all of which the
		// free list can hold for reuse.
		work: make(chan *replayChunk, workers),
		free: make(chan *replayChunk, 2*workers+1),
	}
	r.turn.L = &r.mu
	r.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go r.worker()
	}
	n, ferr := r.produce(frames)
	r.wg.Wait()
	if r.err != nil {
		return r.errN, r.err
	}
	return n, ferr
}

// replayChunk is a run of consecutive frames copied out of the frame
// source, which owns each payload only for the duration of the callback.
type replayChunk struct {
	first int    // log index of the chunk's first frame
	buf   []byte // the frames, back to back
	ends  []int  // frame i is buf[ends[i-1]:ends[i]]
	fold  bool   // false for the tail read before the source failed: decode only
}

type replayer struct {
	p      *pipeline.Pipeline
	work   chan *replayChunk
	free   chan *replayChunk // recycled chunks
	wg     sync.WaitGroup
	failed atomic.Bool // some chunk failed: the producer stops

	// The fold turn: the worker holding the chunk that starts at frame
	// next folds, the others wait. errN and err record the earliest
	// failure in log order; only the turn holder touches them until the
	// workers have exited.
	mu   sync.Mutex
	turn sync.Cond
	next int
	errN int
	err  error
}

// produce runs the frame source, dispatching full chunks to the workers,
// then the partial last chunk, and closes the work queue.
func (r *replayer) produce(frames func(fn func(payload []byte) error) error) (int, error) {
	defer close(r.work)
	n := 0
	c := r.chunk(0)
	err := frames(func(payload []byte) error {
		if r.failed.Load() {
			return errReplayStopped
		}
		c.buf = append(c.buf, payload...)
		c.ends = append(c.ends, len(c.buf))
		n++
		if len(c.ends) == replayBatchSize {
			r.work <- c
			c = r.chunk(n)
		}
		return nil
	})
	if len(c.ends) > 0 && !r.failed.Load() {
		c.fold = err == nil
		r.work <- c
	}
	return n, err
}

// chunk returns an empty chunk, recycled when one is free.
func (r *replayer) chunk(first int) *replayChunk {
	var c *replayChunk
	select {
	case c = <-r.free:
		c.buf, c.ends = c.buf[:0], c.ends[:0]
	default:
		c = &replayChunk{ends: make([]int, 0, replayBatchSize)}
	}
	c.first, c.fold = first, true
	return c
}

func (r *replayer) worker() {
	defer r.wg.Done()
	b := pipeline.GetBatch()
	defer pipeline.PutBatch(b)
	for c := range r.work {
		errN, err := r.decode(c, b)
		if err != nil {
			r.failed.Store(true)
		}
		r.mu.Lock()
		for r.next != c.first {
			r.turn.Wait()
		}
		r.mu.Unlock()
		switch {
		case r.err != nil: // an earlier chunk failed: fold nothing more
		case err != nil:
			r.errN, r.err = errN, err
		case c.fold:
			r.p.AddBatchValidated(b)
		}
		b.Reset()
		r.mu.Lock()
		r.next += len(c.ends)
		r.turn.Broadcast()
		r.mu.Unlock()
		select {
		case r.free <- c:
		default:
		}
	}
}

// decode decodes a chunk into b and, if the chunk is to be folded,
// validates it. On failure it returns the error and the n ReplayPipeline
// reports with it.
func (r *replayer) decode(c *replayChunk, b *pipeline.ReportBatch) (int, error) {
	start := 0
	for i, end := range c.ends {
		if err := decodeFrameInto(c.buf[start:end], b); err != nil {
			return c.first + i, fmt.Errorf("transport: replay frame %d: %w", c.first+i, err)
		}
		start = end
	}
	last := c.first + len(c.ends)
	if !c.fold {
		return last, nil
	}
	if err := r.p.ValidateBatch(b); err != nil {
		return last, fmt.Errorf("transport: replay frames %d..%d: %w", c.first, last-1, err)
	}
	return last, nil
}
