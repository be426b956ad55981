// Package reportlog is an append-only, segmented, CRC-checked log for the
// raw report frames an aggregator receives. It gives the collection
// pipeline durability: the aggregator's in-memory state can be rebuilt by
// replaying the log after a crash.
//
// Record layout (little endian):
//
//	[ length uint32 ][ crc32(payload) uint32 ][ payload ... ]
//
// Segments are named seg-NNNNNN.log and rotated when they exceed the
// configured size. Replay parses records in place from one read window
// and stops cleanly at the first torn or corrupt record (the expected
// state after a crash mid-write); Recover truncates that tail so appends
// can resume safely. A failing read is not a torn tail: Replay returns it
// as an error and Recover changes no file. A failed write or fsync sticks:
// the Writer refuses appends from then on and Healthy reports it.
package reportlog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

const (
	headerSize = 8
	segPrefix  = "seg-"
	segSuffix  = ".log"
)

// MaxRecordSize bounds a single record payload (a defensive limit against
// reading a garbage length field as a huge allocation).
const MaxRecordSize = 16 << 20

// Writer appends records to the newest segment of a log directory.
// Appends are internally serialized, so concurrent use is safe; callers
// that need multi-record atomicity (one HTTP batch = several records)
// still guard externally, as the transport server does.
type Writer struct {
	mu          sync.Mutex
	dir         string
	segmentSize int64
	f           *os.File
	seq         int
	size        int64 // bytes already written to the current segment

	// Group-commit state (zero when disabled): records accumulate in buf
	// and reach the file — followed by one fsync — when buf crosses
	// flushBytes, when the interval flusher fires, or on Sync/Close.
	buf        []byte
	flushBytes int
	interval   time.Duration
	dirty      bool          // file has writes not yet fsynced
	ferr       error         // sticky background-flush failure
	stop       chan struct{} // closes the interval flusher
	done       chan struct{} // flusher exited
}

// Option configures a Writer.
type Option func(*Writer)

// WithGroupCommit batches appends in memory and commits them — one
// write(2) plus one fsync — when flushBytes have accumulated or the
// interval elapses, whichever comes first. This replaces per-record
// write(2) calls (and the per-request Sync a durability-conscious caller
// would otherwise need) with two syscalls per group: the classic WAL
// group-commit trade of a bounded durability window (at most interval)
// for an order-of-magnitude cheaper append path. Sync still forces an
// immediate commit, so callers with a stronger requirement (the cluster
// forwarder before a push) keep their guarantee.
//
// A non-positive flushBytes defaults to 256 KiB; a non-positive interval
// defaults to 100ms.
func WithGroupCommit(interval time.Duration, flushBytes int) Option {
	return func(w *Writer) {
		if flushBytes <= 0 {
			flushBytes = 256 << 10
		}
		if interval <= 0 {
			interval = 100 * time.Millisecond
		}
		w.flushBytes = flushBytes
		w.interval = interval
	}
}

// Open prepares dir (created if missing) for appending, continuing after
// the newest existing segment. segmentSize is the rotation threshold in
// bytes (minimum 1 KiB). With no options the Writer behaves as it always
// has: one write(2) per record, durability only on Sync/Close.
func Open(dir string, segmentSize int64, opts ...Option) (*Writer, error) {
	if segmentSize < 1024 {
		return nil, fmt.Errorf("reportlog: segment size %d below 1KiB minimum", segmentSize)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("reportlog: create dir: %w", err)
	}
	segs, err := Segments(dir)
	if err != nil {
		return nil, err
	}
	w := &Writer{dir: dir, segmentSize: segmentSize}
	for _, opt := range opts {
		opt(w)
	}
	if len(segs) == 0 {
		if err := w.rotate(); err != nil {
			return nil, err
		}
	} else {
		last := segs[len(segs)-1]
		w.seq = seqOf(last)
		f, err := os.OpenFile(filepath.Join(dir, last), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("reportlog: open segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("reportlog: stat segment: %w", err)
		}
		w.f, w.size = f, st.Size()
	}
	if w.interval > 0 {
		w.stop, w.done = make(chan struct{}), make(chan struct{})
		go w.flusher()
	}
	return w, nil
}

// flusher is the interval half of group commit: it bounds how long a
// buffered (or written-but-unsynced) record can stay volatile.
func (w *Writer) flusher() {
	defer close(w.done)
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.mu.Lock()
			if w.ferr == nil {
				// A failure sticks in ferr and surfaces on the next
				// Append/Sync instead of losing records silently.
				_ = w.commitLocked()
			}
			w.mu.Unlock()
		}
	}
}

func segName(seq int) string { return fmt.Sprintf("%s%06d%s", segPrefix, seq, segSuffix) }

func seqOf(name string) int {
	var seq int
	fmt.Sscanf(name, segPrefix+"%06d"+segSuffix, &seq)
	return seq
}

// Segments lists the log's segment file names in replay order.
func Segments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("reportlog: list segments: %w", err)
	}
	var segs []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && len(name) > len(segPrefix)+len(segSuffix) &&
			name[:len(segPrefix)] == segPrefix && filepath.Ext(name) == segSuffix {
			segs = append(segs, name)
		}
	}
	sort.Strings(segs)
	return segs, nil
}

func (w *Writer) rotate() error {
	if w.f != nil {
		if err := w.f.Close(); err != nil {
			return fmt.Errorf("reportlog: close segment: %w", err)
		}
	}
	w.seq++
	f, err := os.OpenFile(filepath.Join(w.dir, segName(w.seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("reportlog: create segment: %w", err)
	}
	w.f, w.size = f, 0
	return nil
}

// Append writes one record. The payload is copied into the record frame;
// it may be reused by the caller afterwards. Under group commit the
// record lands in the in-memory buffer (no syscall) and becomes durable
// at the next commit point; otherwise it is written through immediately.
func (w *Writer) Append(payload []byte) error {
	if len(payload) > MaxRecordSize {
		return fmt.Errorf("reportlog: record of %d bytes exceeds limit %d", len(payload), MaxRecordSize)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ferr != nil {
		return w.ferr
	}
	if w.size+int64(len(w.buf)) >= w.segmentSize {
		// Commit buffered records into the old segment before rotating so
		// file boundaries stay record boundaries.
		if err := w.commitLocked(); err != nil {
			return err
		}
		if err := w.rotate(); err != nil {
			return err
		}
	}
	if w.flushBytes > 0 {
		var hdr [headerSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		w.buf = append(w.buf, hdr[:]...)
		w.buf = append(w.buf, payload...)
		if len(w.buf) >= w.flushBytes {
			return w.commitLocked()
		}
		return nil
	}
	return w.writeLocked(payload)
}

// writeLocked is the unbuffered append path: header + payload straight
// to the file. A failed write may leave a torn record, and replay stops
// at a torn record, so the failure sticks in ferr like a failed commit:
// a later record appended after it would never be replayed.
func (w *Writer) writeLocked(payload []byte) error {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.f.Write(hdr[:]); err != nil {
		w.ferr = fmt.Errorf("reportlog: write header: %w", err)
		return w.ferr
	}
	if _, err := w.f.Write(payload); err != nil {
		w.ferr = fmt.Errorf("reportlog: write payload: %w", err)
		return w.ferr
	}
	w.size += int64(headerSize + len(payload))
	return nil
}

// commitLocked makes every buffered record durable: one write(2) for the
// whole buffer, one fsync. Without group commit it is a plain fsync (and
// skipped entirely while nothing new has been written).
//
// Any failure sticks in ferr: after a failed fsync the kernel may already
// have dropped the dirty pages, so a later fsync that succeeds proves
// nothing about the records the failed one covered. Append, Sync and
// Healthy report the failure from then on.
func (w *Writer) commitLocked() error {
	if len(w.buf) > 0 {
		n, err := w.f.Write(w.buf)
		w.size += int64(n)
		if err != nil {
			// A short write leaves a torn record at the tail — exactly the
			// state Recover handles. The unwritten suffix is dropped.
			w.ferr = fmt.Errorf("reportlog: flush: %w", err)
			return w.ferr
		}
		w.buf = w.buf[:0]
		w.dirty = true
	}
	if !w.dirty && w.flushBytes > 0 {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.ferr = fmt.Errorf("reportlog: sync: %w", err)
		return w.ferr
	}
	w.dirty = false
	return nil
}

// Healthy reports whether the Writer can still accept appends: nil
// normally, the sticky failure once a write or fsync — foreground or the
// interval flusher's — has failed. Readiness probes use it, so a server
// whose disk died stops attracting traffic before clients see their 500s.
func (w *Writer) Healthy() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ferr
}

// Sync commits buffered records and flushes the current segment to
// stable storage.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ferr != nil {
		return w.ferr
	}
	return w.commitLocked()
}

// Close commits, syncs, and closes the current segment, stopping the
// interval flusher if one is running.
func (w *Writer) Close() error {
	if w.stop != nil {
		close(w.stop)
		<-w.done
		w.stop = nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	cerr := w.ferr
	if cerr == nil {
		cerr = w.commitLocked()
	}
	if err := w.f.Close(); cerr == nil {
		cerr = err
	} else {
		w.f.Close()
	}
	return cerr
}

// ReplayStats summarizes a replay.
type ReplayStats struct {
	// Records is the number of intact records delivered.
	Records int
	// Truncated is true if a torn or corrupt tail record was found (and
	// replay stopped there).
	Truncated bool
	// Segment and Offset locate the start of the bad tail when Truncated.
	Segment string
	Offset  int64
}

// replayBufSize is the read window replay parses segments in: large
// enough that a restart streams the log in quarter-megabyte read(2) calls
// instead of two small reads per record.
const replayBufSize = 256 << 10

// Replay feeds every intact record in order to fn. It stops without error
// at the first torn or corrupt record — the normal post-crash state —
// reporting it in the stats: a record cut short by the end of its
// segment, a length over MaxRecordSize, or a checksum mismatch. Any other
// read failure is returned as an error naming the segment, as is an error
// from fn, which aborts the replay.
//
// Records are parsed in place from one read window, so the payload slice
// is only valid during the call: fn must copy anything it keeps past its
// return (the transport decoders already do — they unpack frames into
// their own structures).
func Replay(dir string, fn func(payload []byte) error) (ReplayStats, error) {
	return replayWindow(dir, replayBufSize, fn)
}

// replayWindow is Replay with the initial read window size as a parameter,
// so tests can push records across window edges with small inputs.
func replayWindow(dir string, window int, fn func([]byte) error) (ReplayStats, error) {
	var stats ReplayStats
	segs, err := Segments(dir)
	if err != nil {
		return stats, err
	}
	// One window serves the whole replay: restart time is dominated by
	// decode-and-fold, and this keeps the I/O side at one buffer instead
	// of two copies per record.
	s := scanner{buf: make([]byte, window)}
	for _, seg := range segs {
		ok, err := s.segment(dir, seg, fn, &stats)
		if err != nil {
			return stats, err
		}
		if !ok {
			return stats, nil // truncated: stop at the bad tail
		}
	}
	return stats, nil
}

// scanner parses records in place from a read window: buf[r:w] holds the
// bytes read but not yet consumed.
type scanner struct {
	buf  []byte
	r, w int
}

func (s *scanner) segment(dir, seg string, fn func([]byte) error, stats *ReplayStats) (bool, error) {
	f, err := os.Open(filepath.Join(dir, seg))
	if err != nil {
		return false, fmt.Errorf("reportlog: open %s: %w", seg, err)
	}
	defer f.Close()
	return s.scan(f, seg, fn, stats)
}

// scan feeds every intact record of one segment to fn. It returns true at
// a clean end of the segment, and false with a nil error at a torn tail,
// which it records in stats.
func (s *scanner) scan(rd io.Reader, seg string, fn func([]byte) error, stats *ReplayStats) (bool, error) {
	s.r, s.w = 0, 0
	var offset int64
	// tail stops at a torn tail — a short read at the end of the segment,
	// an oversized length or a checksum mismatch — and returns any other
	// read failure as an error.
	tail := func(err error) (bool, error) {
		if err != nil && err != io.EOF {
			return false, fmt.Errorf("reportlog: read %s: %w", seg, err)
		}
		stats.Truncated, stats.Segment, stats.Offset = true, seg, offset
		return false, nil
	}
	for {
		if err := s.fill(rd, headerSize); err != nil {
			if err == io.EOF && s.w == s.r {
				return true, nil
			}
			return tail(err) // torn header
		}
		hdr := s.buf[s.r : s.r+headerSize]
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length > MaxRecordSize {
			return tail(nil)
		}
		rec := headerSize + int(length)
		if err := s.fill(rd, rec); err != nil {
			return tail(err) // torn payload
		}
		p := s.buf[s.r+headerSize : s.r+rec]
		if crc32.ChecksumIEEE(p) != sum {
			return tail(nil)
		}
		if err := fn(p); err != nil {
			return false, err
		}
		s.r += rec
		stats.Records++
		offset += int64(rec)
	}
}

// fill reads until at least need unconsumed bytes are buffered. Before
// reading it moves the unconsumed bytes (the start of a record that
// straddles the end of the window) to the front, growing the window first
// when the record is longer than it. It returns io.EOF when the segment
// ends first and any other read error as is.
func (s *scanner) fill(rd io.Reader, need int) error {
	if s.w-s.r >= need {
		return nil
	}
	buf := s.buf
	if need > len(buf) {
		buf = make([]byte, max(need, min(2*len(buf), headerSize+MaxRecordSize)))
	}
	s.w = copy(buf, s.buf[s.r:s.w])
	s.r, s.buf = 0, buf
	for s.w < need {
		n, err := rd.Read(s.buf[s.w:])
		s.w += n
		if s.w < need && err != nil {
			return err
		}
	}
	return nil
}

// Recover scans the log and truncates any torn or corrupt tail (and removes
// any later segments) so that appending can resume on a clean prefix. It
// returns the replay stats of the intact prefix. A read failure is
// returned as an error before any file is changed.
func Recover(dir string) (ReplayStats, error) {
	stats, err := Replay(dir, func([]byte) error { return nil })
	if err != nil {
		return stats, err
	}
	if !stats.Truncated {
		return stats, nil
	}
	if err := os.Truncate(filepath.Join(dir, stats.Segment), stats.Offset); err != nil {
		return stats, fmt.Errorf("reportlog: truncate %s: %w", stats.Segment, err)
	}
	segs, err := Segments(dir)
	if err != nil {
		return stats, err
	}
	bad := seqOf(stats.Segment)
	for _, seg := range segs {
		if seqOf(seg) > bad {
			if err := os.Remove(filepath.Join(dir, seg)); err != nil {
				return stats, fmt.Errorf("reportlog: remove %s: %w", seg, err)
			}
		}
	}
	return stats, nil
}
