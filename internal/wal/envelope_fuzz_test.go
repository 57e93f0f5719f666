package wal

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeRecord exercises the envelope decoder on arbitrary bytes from
// both directions: (1) any record EncodeRecord accepts must round-trip
// through DecodeRecord with its payload untouched — the envelope never looks
// inside one — and (2) arbitrary input must either decode to one of the known
// record kinds, complete, or fail — never panic and never invent a typed
// record with missing parts. A frame that decodes re-encodes to the bytes it
// came from (one encoding per record); a frame starting with '{' is the
// retired JSON envelope and fails with ErrRetiredFormat.
func FuzzDecodeRecord(f *testing.F) {
	for _, c := range []struct {
		kind, key string
		payload   []byte
	}{
		{RecordRegister, "v1", []byte{1, 0, 0xff}},
		{RecordTombstone, "v1", nil},
		{RecordReplace, "väl-été", []byte(`{"a":1}`)},
	} {
		frame, err := EncodeRecord(c.kind, c.key, c.payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte(`{"type":"register","version":1,"key":"v1","payload":{"a":1}}`))
	f.Add([]byte(`{"type":"tombstone","version":1,"key":"v1"}`))
	f.Add([]byte(`{"type":"replace","version":1,"key":"v1","payload":{}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 24))
	f.Add([]byte{recordVersion, kindSnapshot, 3, 75, 12})             // a snapshot header is not a record
	f.Add([]byte{recordVersion, kindRegister, 0x81, 0x00, 'k', 'p'})  // non-minimal key length
	f.Add([]byte{recordVersion, kindTombstone, 1, 'k', 'p'})          // tombstone with a payload
	f.Add([]byte{recordVersion, kindRegister, 1, 'k'})                // register without one
	f.Add([]byte{recordVersion + 1, kindRegister, 1, 'k', 'p'})       // a future version
	f.Add([]byte{recordVersion, kindRegister, 0xff, 0xff, 0xff, 0xf}) // key longer than the frame

	f.Fuzz(func(t *testing.T, data []byte) {
		// Round trip: data as an opaque register payload and as a key.
		if len(data) > 0 {
			frame, err := EncodeRecord(RecordRegister, "fuzz-key", data)
			if err != nil {
				t.Fatalf("encoding a payload failed: %v", err)
			}
			rec, err := DecodeRecord(frame)
			if err != nil {
				t.Fatalf("round trip failed: %v", err)
			}
			if rec.Type != RecordRegister || rec.Key != "fuzz-key" || !bytes.Equal(rec.Payload, data) {
				t.Fatalf("round trip mutated record: %+v, want payload %q", rec, data)
			}
			frame, err = EncodeRecord(RecordTombstone, string(data), nil)
			if err != nil {
				t.Fatalf("encoding a key failed: %v", err)
			}
			if rec, err = DecodeRecord(frame); err != nil || rec.Type != RecordTombstone || rec.Key != string(data) {
				t.Fatalf("key round trip: %+v, %v", rec, err)
			}
		}

		// Decode: arbitrary input.
		rec, err := DecodeRecord(data)
		if len(data) > 0 && data[0] == '{' {
			if !errors.Is(err, ErrRetiredFormat) {
				t.Fatalf("JSON frame %q: %+v, %v; want ErrRetiredFormat", data, rec, err)
			}
			return
		}
		if err != nil {
			return
		}
		switch rec.Type {
		case RecordRegister, RecordReplace:
			if rec.Key == "" || len(rec.Payload) == 0 {
				t.Fatalf("typed %s missing key or payload: %+v", rec.Type, rec)
			}
		case RecordTombstone:
			if rec.Key == "" {
				t.Fatalf("tombstone without key: %+v", rec)
			}
		default:
			t.Fatalf("decoder produced unknown kind %q", rec.Type)
		}
		again, err := EncodeRecord(rec.Type, rec.Key, rec.Payload)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("frame %q re-encodes to %q (%v)", data, again, err)
		}
	})
}
