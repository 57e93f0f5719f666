package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	cases := []struct {
		kind    string
		key     string
		payload []byte
	}{
		{RecordRegister, "v1", []byte(`{"subcluster":"medicine","result":null}`)},
		{RecordReplace, "v2", []byte(`{"subcluster":"nursing","result":null}`)},
		{RecordTombstone, "v3", nil},
	}
	for _, c := range cases {
		frame, err := EncodeRecord(c.kind, c.key, c.payload)
		if err != nil {
			t.Fatalf("encode %s: %v", c.kind, err)
		}
		if frame[0] == '{' {
			t.Fatalf("%s frame %q reads as a retired JSON envelope", c.kind, frame)
		}
		rec, err := DecodeRecord(frame)
		if err != nil {
			t.Fatalf("decode %s: %v", c.kind, err)
		}
		if rec.Type != c.kind || rec.Key != c.key {
			t.Fatalf("decoded %+v, want kind %s key %s", rec, c.kind, c.key)
		}
		if !bytes.Equal(rec.Payload, c.payload) {
			t.Fatalf("%s payload mutated: %q vs %q", c.kind, rec.Payload, c.payload)
		}
	}
}

func TestEnvelopeRejectsMalformed(t *testing.T) {
	if _, err := EncodeRecord("mutate", "k", []byte("x")); err == nil {
		t.Fatal("unknown kind encoded")
	}
	if _, err := EncodeRecord(RecordRegister, "", []byte("x")); err == nil {
		t.Fatal("keyless register encoded")
	}
	if _, err := EncodeRecord(RecordRegister, "k", nil); err == nil {
		t.Fatal("payloadless register encoded")
	}
	if _, err := EncodeRecord(RecordTombstone, "k", []byte("x")); err == nil {
		t.Fatal("tombstone with payload encoded")
	}
	if _, err := DecodeRecord([]byte(`[1,2,3]`)); err == nil {
		t.Fatal("a frame starting with '[' decoded")
	}
	for _, frame := range [][]byte{
		nil,
		{recordVersion},
		{recordVersion + 1, kindRegister, 1, 'k', 'p'},      // future version
		{recordVersion, 0, 1, 'k', 'p'},                     // no kind
		{recordVersion, kindSnapshot, 1, 2, 3},              // a snapshot header is not a record
		{recordVersion, kindRegister, 0, 'p'},               // no key
		{recordVersion, kindRegister, 1, 'k'},               // no payload
		{recordVersion, kindTombstone, 1, 'k', 'p'},         // tombstone with a payload
		{recordVersion, kindRegister, 9, 'k', 'p'},          // key longer than the frame
		{recordVersion, kindRegister, 0x81, 0x00, 'k', 'p'}, // key length not minimal
		{recordVersion, kindRegister, 0x80, 0x80, 0x80},     // key length unterminated
	} {
		if rec, err := DecodeRecord(frame); err == nil {
			t.Fatalf("malformed frame %v decoded to %+v", frame, rec)
		}
	}
}

// TestJSONFrameIsRefusedNotTruncated: a frame starting with '{' is the JSON
// envelope logs held before the binary one, and every such frame — well
// formed or not, typed or not — is refused with ErrRetiredFormat, naming the
// build that converts it. In the active segment it is a CRC-valid frame, so
// Open leaves it where it is, and a replay whose callback refuses it returns
// that error instead of healing past it: the segment is byte-identical after
// any number of boots.
func TestJSONFrameIsRefusedNotTruncated(t *testing.T) {
	frames := [][]byte{
		[]byte(`{"type":"replace","version":1,"key":"v\u00e9","payload":{"subcluster":"nursing","result":null}}`),
		[]byte(`{"type":"tombstone","version":1,"key":"v3"}`),
		[]byte(`{"type":"tombstone","version":2,"key":"v3"}`),
		[]byte(`{"type":"mutate","version":1,"key":"k"}`),
		[]byte(`{"subcluster":"medicine","result":{"videoName":"v1"}}`),
		[]byte(`{"key":"k"}`),
		[]byte(`{`),
	}
	for _, frame := range frames {
		rec, err := DecodeRecord(frame)
		if !errors.Is(err, ErrRetiredFormat) || !strings.Contains(err.Error(), "93272af") {
			t.Fatalf("JSON frame %s: %+v, %v; want ErrRetiredFormat naming 93272af", frame, rec, err)
		}
	}

	dir := t.TempDir()
	eng, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	good, err := EncodeRecord(RecordTombstone, "v0", nil)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, eng, [][]byte{good, frames[0], good})
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(1))
	before, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for boot := 0; boot < 2; boot++ {
		eng, err := Open(dir, Options{Sync: SyncNever, Logf: func(f string, a ...any) { t.Errorf("boot logged: "+f, a...) }})
		if err != nil {
			t.Fatal(err)
		}
		var rec Record
		decoded := 0
		err = eng.Replay(func(frame []byte) error {
			if err := DecodeRecordInto(&rec, frame); err != nil {
				return err
			}
			decoded++
			return nil
		})
		if !errors.Is(err, ErrRetiredFormat) || decoded != 1 {
			t.Fatalf("boot %d: replay = %v after %d records; want ErrRetiredFormat after 1", boot, err, decoded)
		}
		if eng.ReplayDamaged() {
			t.Fatalf("boot %d: the refused frame was taken for damage", boot)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if after, err := os.ReadFile(seg); err != nil || !bytes.Equal(after, before) {
			t.Fatalf("boot %d changed the active segment (%d → %d bytes, %v)", boot, len(before), len(after), err)
		}
	}
}
