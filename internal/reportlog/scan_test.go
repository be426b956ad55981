package reportlog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"testing/iotest"
)

// frame frames one payload the way Writer.Append does.
func frame(payload []byte) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	return append(hdr[:], payload...)
}

func frames(payloads ...string) []byte {
	var out []byte
	for _, p := range payloads {
		out = append(out, frame([]byte(p))...)
	}
	return out
}

// referenceReplay is the record loop Replay ran before it parsed records
// in place: two io.ReadFull calls per record through a bufio.Reader, and
// a copy of every payload. FuzzReplay holds the scanner to it on inputs
// whose reads never fail (it counted any read error as a torn tail).
func referenceReplay(dir string, fn func([]byte) error) (ReplayStats, error) {
	var stats ReplayStats
	segs, err := Segments(dir)
	if err != nil {
		return stats, err
	}
	br := bufio.NewReaderSize(nil, replayBufSize)
	var payload []byte
	for _, seg := range segs {
		f, err := os.Open(filepath.Join(dir, seg))
		if err != nil {
			return stats, err
		}
		br.Reset(f)
		var offset int64
		var hdr [headerSize]byte
		for {
			_, err := io.ReadFull(br, hdr[:])
			if err == io.EOF {
				break
			}
			torn := err != nil
			length := binary.LittleEndian.Uint32(hdr[0:4])
			torn = torn || length > MaxRecordSize
			if !torn {
				if int(length) > cap(payload) {
					payload = make([]byte, length)
				}
				payload = payload[:length]
				_, err = io.ReadFull(br, payload)
				torn = err != nil || crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8])
			}
			if torn {
				f.Close()
				stats.Truncated, stats.Segment, stats.Offset = true, seg, offset
				return stats, nil
			}
			if err := fn(payload); err != nil {
				f.Close()
				return stats, err
			}
			stats.Records++
			offset += int64(headerSize) + int64(length)
		}
		f.Close()
	}
	return stats, nil
}

// FuzzReplay feeds arbitrary bytes as one segment, or split across two,
// to the in-place scanner at a small read window and to the reference
// loop: both must deliver the same payloads in the same order and stop
// at the same torn tail.
func FuzzReplay(f *testing.F) {
	clean := frames("alpha", "b", "", "gamma-gamma")
	oversized := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(oversized, MaxRecordSize+1)
	badCRC := frames("one", "two", "three")
	badCRC[len(badCRC)-2] ^= 0xFF
	long := frames("x", string(bytes.Repeat([]byte("L"), 100)), "y")
	straddle := frames("0123456789", "abcdefghij", "ABCDEFGHIJ", "klmnopqrst")
	for _, seed := range []struct {
		data   []byte
		split  uint16
		window uint8
	}{
		// A clean log, in one segment and over two.
		{clean, 0, 255},
		{clean, uint16(len(frames("alpha", "b"))), 255},
		// A torn header, a torn payload, a bad CRC, a length over
		// MaxRecordSize.
		{append(clean[:len(clean):len(clean)], 1, 0, 0), 0, 255},
		{append(frames("p"), frame([]byte("payload"))[:11]...), 0, 255},
		{badCRC, 0, 255},
		{append(frames("ok"), oversized...), 0, 255},
		// A record longer than the window, and records straddling it.
		{long, 0, 15},
		{straddle, 0, 23},
		// An empty payload.
		{frames(""), 0, 0},
		// A torn first segment hides the second.
		{append(badCRC[:len(badCRC):len(badCRC)], clean...), 9, 7},
	} {
		f.Add(seed.data, seed.split, seed.window)
	}
	f.Fuzz(func(t *testing.T, data []byte, split uint16, window uint8) {
		dir := t.TempDir()
		segs := [][]byte{data}
		if split > 0 && int(split) <= len(data) {
			segs = [][]byte{data[:split], data[split:]}
		}
		for i, seg := range segs {
			if err := os.WriteFile(filepath.Join(dir, segName(i+1)), seg, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		collect := func(out *[][]byte) func([]byte) error {
			return func(p []byte) error {
				*out = append(*out, append([]byte{}, p...))
				return nil
			}
		}
		var got, want [][]byte
		gotStats, err := replayWindow(dir, 1+int(window), collect(&got))
		if err != nil {
			t.Fatalf("scanner: %v", err)
		}
		wantStats, err := referenceReplay(dir, collect(&want))
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if gotStats != wantStats {
			t.Fatalf("stats = %+v, reference %+v", gotStats, wantStats)
		}
		if len(got) != len(want) {
			t.Fatalf("%d payloads, reference %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("payload %d = %q, reference %q", i, got[i], want[i])
			}
		}
	})
}

// TestReplayReadErrorIsNotTornTail: a segment whose reads fail (here a
// symlink to a directory, so read(2) answers EISDIR) is an error, not a
// torn tail. Replay returns it naming the segment, and Recover changes no
// file — it must not truncate or delete what it could not read.
func TestReplayReadErrorIsNotTornTail(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, 1<<20)
	for i := 0; i < 10; i++ {
		if err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(t.TempDir(), filepath.Join(dir, segName(2))); err != nil {
		t.Fatal(err)
	}
	before := snapshotDir(t, dir)

	stats, err := Replay(dir, func([]byte) error { return nil })
	if !errors.Is(err, syscall.EISDIR) {
		t.Fatalf("Replay = %+v, %v; want an EISDIR error", stats, err)
	}
	if want := "reportlog: read " + segName(2); !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("error %q does not name the segment (%q)", err, want)
	}
	if stats.Truncated || stats.Records != 10 {
		t.Errorf("stats = %+v, want 10 records and no torn tail", stats)
	}

	if _, err := Recover(dir); !errors.Is(err, syscall.EISDIR) {
		t.Fatalf("Recover error = %v, want EISDIR", err)
	}
	if after := snapshotDir(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("Recover changed the log: %v, was %v", after, before)
	}
}

// snapshotDir maps each entry of dir to its contents (a symlink to its
// target).
func snapshotDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		if e.Type()&os.ModeSymlink != 0 {
			target, err := os.Readlink(path)
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = "-> " + target
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestScanReadErrorFromReader: a read that fails at a record boundary or
// inside a record is returned, wrapped, and leaves no torn-tail mark.
func TestScanReadErrorFromReader(t *testing.T) {
	boom := errors.New("boom")
	log := frames("first", "second", "third")
	for _, cut := range []int{len(frame([]byte("first"))), len(frame([]byte("first"))) + 3} {
		var stats ReplayStats
		s := scanner{buf: make([]byte, 4)}
		rd := io.MultiReader(bytes.NewReader(log[:cut]), iotest.ErrReader(boom))
		ok, err := s.scan(rd, "seg", func([]byte) error { return nil }, &stats)
		if ok || !errors.Is(err, boom) {
			t.Errorf("cut %d: scan = %v, %v; want false, %v", cut, ok, err, boom)
		}
		if stats.Truncated || stats.Records != 1 {
			t.Errorf("cut %d: stats = %+v, want 1 record and no torn tail", cut, stats)
		}
	}
}
