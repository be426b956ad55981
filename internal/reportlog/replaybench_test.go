package reportlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// buildReplayLog writes records records of size payloadSize across a
// multi-segment log and returns its directory.
func buildReplayLog(tb testing.TB, records, payloadSize int) string {
	tb.Helper()
	dir := tb.TempDir()
	w, err := Open(filepath.Join(dir, "wal"), 1<<20, WithGroupCommit(0, 0))
	if err != nil {
		tb.Fatal(err)
	}
	payload := make([]byte, payloadSize)
	for i := 0; i < records; i++ {
		binary.LittleEndian.PutUint64(payload, uint64(i))
		if err := w.Append(payload); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return filepath.Join(dir, "wal")
}

// BenchmarkReplay is the restart-time path: stream every record of a
// multi-segment log through a no-op fold. Records are parsed in place
// from one read window, so allocs/op stay flat however many records the
// log holds.
func BenchmarkReplay(b *testing.B) {
	for _, size := range []int{128, 4096} {
		b.Run(fmt.Sprintf("payload=%d", size), func(b *testing.B) {
			const records = 4096
			dir := buildReplayLog(b, records, size)
			b.SetBytes(int64(records) * int64(headerSize+size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stats, err := Replay(dir, func([]byte) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
				if stats.Records != records {
					b.Fatalf("replayed %d records, want %d", stats.Records, records)
				}
			}
		})
	}
}

// TestReplayReusesPayloadBuffer pins the cost of the in-place scanner:
// one read window per replay, whatever the number of records. The larger
// log spans more than two windows in one segment, so records straddle
// the window's end and move to its front without allocating.
func TestReplayReusesPayloadBuffer(t *testing.T) {
	allocs := func(records int) float64 {
		dir := buildReplayLog(t, records, 128)
		if segs, err := Segments(dir); err != nil || len(segs) != 1 {
			t.Fatalf("log of %d records has segments %v (%v), want one", records, segs, err)
		}
		// Enough runs that a one-off runtime allocation (the first GC
		// starting its workers) cannot shift the per-run average.
		return testing.AllocsPerRun(100, func() {
			stats, err := Replay(dir, func([]byte) error { return nil })
			if err != nil || stats.Records != records {
				t.Fatalf("replay = %+v, %v; want %d records", stats, err, records)
			}
		})
	}
	if small, large := allocs(64), allocs(4096); small != large {
		t.Errorf("replay allocates %v times over 64 records but %v over 4096", small, large)
	}
}

// swapFile points w at f and returns the function that restores its
// segment file.
func swapFile(w *Writer, f *os.File) (restore func()) {
	w.mu.Lock()
	seg := w.f
	w.f = f
	w.mu.Unlock()
	return func() {
		w.mu.Lock()
		w.f = seg
		w.mu.Unlock()
	}
}

// pipeWriteEnd returns the write end of a pipe: writes to it succeed and
// fsync fails with EINVAL.
func pipeWriteEnd(t *testing.T) *os.File {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close(); w.Close() })
	return w
}

// readOnlyFile returns a file opened read-only: writes to it fail.
func readOnlyFile(t *testing.T) *os.File {
	path := filepath.Join(t.TempDir(), "ro")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestWriterHealthy(t *testing.T) {
	w, err := Open(filepath.Join(t.TempDir(), "wal"), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Healthy(); err != nil {
		t.Fatalf("fresh writer unhealthy: %v", err)
	}
	if err := w.Append([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	if err := w.Healthy(); err != nil {
		t.Fatalf("writer unhealthy after append: %v", err)
	}
	// A failed fsync surfaces through Healthy.
	defer swapFile(w, pipeWriteEnd(t))()
	if err := w.Sync(); err == nil {
		t.Fatal("fsync on a pipe succeeded")
	}
	if err := w.Healthy(); err == nil {
		t.Fatal("sticky error not reported")
	}
}

// TestFailedCommitSticks: after a failed fsync the kernel may have
// dropped the pages it covered, and a failed write may leave a torn
// record that replay stops at, so a later commit that succeeds proves
// nothing. The failure must stick whether Sync, Append's byte threshold
// or an unbuffered Append ran into it.
func TestFailedCommitSticks(t *testing.T) {
	groupCommit := []Option{WithGroupCommit(time.Hour, 32)}
	for _, tc := range []struct {
		name   string
		opts   []Option
		broken func(t *testing.T) *os.File
		commit func(w *Writer) error
	}{
		{"sync", groupCommit, pipeWriteEnd, func(w *Writer) error {
			if err := w.Append([]byte("rec")); err != nil {
				return fmt.Errorf("buffered append failed early: %w", err)
			}
			return w.Sync()
		}},
		{"append threshold", groupCommit, pipeWriteEnd, func(w *Writer) error {
			return w.Append(make([]byte, 64))
		}},
		{"unbuffered write", nil, readOnlyFile, func(w *Writer) error {
			return w.Append([]byte("rec"))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := Open(filepath.Join(t.TempDir(), "wal"), 1<<20, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			restore := swapFile(w, tc.broken(t))
			failed := tc.commit(w)
			if failed == nil {
				t.Fatal("commit on a failing file returned nil")
			}
			restore() // the segment file works again
			if err := w.Healthy(); !errors.Is(err, failed) {
				t.Errorf("Healthy = %v, want %v", err, failed)
			}
			if err := w.Sync(); !errors.Is(err, failed) {
				t.Errorf("Sync after the failure = %v, want %v", err, failed)
			}
			if err := w.Append([]byte("later")); !errors.Is(err, failed) {
				t.Errorf("Append after the failure = %v, want %v", err, failed)
			}
			if err := w.Close(); !errors.Is(err, failed) {
				t.Errorf("Close after the failure = %v, want %v", err, failed)
			}
		})
	}
}
