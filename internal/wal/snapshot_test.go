package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
)

// mustRecord builds one typed record frame.
func mustRecord(t testing.TB, kind, key, body string) []byte {
	t.Helper()
	var payload []byte
	if kind != RecordTombstone {
		payload = []byte(fmt.Sprintf(`{"key":%q,"body":%q}`, key, body))
	}
	frame, err := EncodeRecord(kind, key, payload)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// registerBody pads register payloads to a realistic few hundred bytes.
func registerBody(i int) string {
	return fmt.Sprintf("%04d-%s", i, strings.Repeat("x", 160))
}

// testSnapshot writes a snapshot of n register records and returns its bytes
// with the offset each frame starts at (the header's first, the end last).
func testSnapshot(t testing.TB, n int) (file []byte, frames []int) {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewSnapshotWriter(&buf, SnapshotHeader{Videos: n, Rows: 25 * n, Dim: 266})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := sw.Append(mustRecord(t, RecordRegister, fmt.Sprintf("v%02d", i), registerBody(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	file = buf.Bytes()
	for off := 0; off < len(file); {
		frames = append(frames, off)
		payload, err := ReadRecord(bytes.NewReader(file[off:]))
		if err != nil {
			t.Fatal(err)
		}
		off += headerSize + len(payload)
	}
	return file, append(frames, len(file))
}

// readAll runs ReadSnapshot over file, returning the header and the keys of
// the records it delivered.
func readAll(file []byte) (h SnapshotHeader, keys []string, err error) {
	err = ReadSnapshot(bytes.NewReader(file), func(got SnapshotHeader) error { h = got; return nil },
		func(frame []byte) error {
			rec, err := DecodeRecord(frame)
			keys = append(keys, rec.Key)
			return err
		})
	return h, keys, err
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7} {
		file, frames := testSnapshot(t, n)
		h, keys, err := readAll(file)
		if err != nil {
			t.Fatalf("%d videos: %v", n, err)
		}
		if want := (SnapshotHeader{Videos: n, Rows: 25 * n, Dim: 266}); h != want {
			t.Fatalf("header %+v, want %+v", h, want)
		}
		if len(keys) != n || len(frames) != n+2 {
			t.Fatalf("read %d records of %d (%d frames)", len(keys), n, len(frames)-1)
		}
		// The header frame is not a log record: a log holding one does not decode.
		if _, err := DecodeRecord(file[headerSize:frames[1]]); err == nil {
			t.Fatal("a snapshot header decoded as a log record")
		}
	}
}

// TestSnapshotWriterHoldsItsCount: the writer refuses to close short of, or
// append past, what its header declared — the count a reader will hold the
// file to.
func TestSnapshotWriterHoldsItsCount(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewSnapshotWriter(&buf, SnapshotHeader{Videos: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err == nil {
		t.Fatal("closed a snapshot one record short")
	}
	rec := mustRecord(t, RecordRegister, "v", "b")
	if err := sw.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := sw.Append(rec); err == nil {
		t.Fatal("appended past the declared count")
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotIsAllOrNothing: where the log's tail may be damaged and mean
// "stop here", a snapshot may not. Every way of losing part of one is an
// error in the framing's own terms, and none reads as a smaller snapshot.
func TestSnapshotIsAllOrNothing(t *testing.T) {
	file, frames := testSnapshot(t, 5)
	flip := func(at int) []byte {
		out := bytes.Clone(file)
		out[at] ^= 0x40
		return out
	}
	extra := appendRecord(bytes.Clone(file), mustRecord(t, RecordRegister, "v99", "b"))
	headless := file[frames[1]:]
	cases := []struct {
		name string
		file []byte
		want error
		says string
	}{
		{"empty file", nil, ErrTorn, "empty"},
		{"cut inside the header", file[:5], ErrTorn, "header"},
		{"header only", file[:frames[1]], ErrTorn, "ends after 0 of 5"},
		{"last frame dropped", file[:frames[5]], ErrTorn, "ends after 4 of 5"},
		{"cut inside a frame", file[:frames[3]+20], ErrTorn, "record 2 of 5"},
		{"cut inside the last frame", file[:len(file)-1], ErrTorn, "record 4 of 5"},
		{"byte flipped mid-file", flip(frames[3] + headerSize + 9), ErrCorrupt, "record 2 of 5"},
		{"byte flipped in the header frame", flip(headerSize + 3), ErrCorrupt, "header"},
		{"length field flipped", flip(frames[2] + 1), nil, "record 1 of 5"},
		{"a record too many", extra, ErrCorrupt, "past its 5"},
		{"no header", headless, ErrCorrupt, "not a header"},
	}
	for _, c := range cases {
		_, keys, err := readAll(c.file)
		if err == nil {
			t.Fatalf("%s: read %d records without an error", c.name, len(keys))
		}
		if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want it to wrap %v", c.name, err, c.want)
		}
		if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v is neither torn nor corrupt", c.name, err)
		}
		if !strings.Contains(err.Error(), c.says) {
			t.Errorf("%s: %v, want it to say %q", c.name, err, c.says)
		}
	}
}

// FuzzReadSnapshot holds ReadSnapshot, the one snapshot reader, to its
// contract on arbitrary bytes: it never panics; a file it accepts calls
// header once and record exactly as many times as the header declares; and
// every strict prefix of an accepted file is refused as torn — a snapshot is
// all or nothing, even when it is cut exactly between two frames. Seeds are
// writer output and the JSON snapshot of a retired build, which must not
// pass for a frame file.
func FuzzReadSnapshot(f *testing.F) {
	for _, n := range []int{0, 1, 3} {
		file, _ := testSnapshot(f, n)
		f.Add(file)
	}
	legacy, err := os.ReadFile("testdata/legacy-82ac79f/snap-00000000000000000001.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)

	read := func(data []byte) (headers, records int, h SnapshotHeader, err error) {
		err = ReadSnapshot(bytes.NewReader(data),
			func(got SnapshotHeader) error { headers++; h = got; return nil },
			func([]byte) error { records++; return nil })
		return headers, records, h, err
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		headers, records, h, err := read(data)
		if err != nil {
			return
		}
		if headers != 1 || records != h.Videos {
			t.Fatalf("accepted with %d header calls and %d records; header declares %d", headers, records, h.Videos)
		}
		for cut := 0; cut < len(data); cut++ {
			if _, _, _, err := read(data[:cut]); !errors.Is(err, ErrTorn) {
				t.Fatalf("the first %d of %d accepted bytes: %v, want ErrTorn", cut, len(data), err)
			}
		}
	})
}
