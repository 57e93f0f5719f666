package wal

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecodeRecord exercises the envelope decoder on arbitrary bytes from
// both directions: (1) any frame EncodeRecord accepts must round-trip
// through DecodeRecord unchanged, and (2) arbitrary input must either
// decode to one of the known record kinds, complete, or fail — never panic
// and never invent a typed record with missing parts.
func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte(`{"type":"register","version":1,"key":"v1","payload":{"a":1}}`))
	f.Add([]byte(`{"type":"tombstone","version":1,"key":"v1"}`))
	f.Add([]byte(`{"type":"replace","version":1,"key":"v1","payload":{}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 24))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Round trip: data as a register payload (must be JSON for the
		// envelope to embed it raw). Embedding as a RawMessage compacts
		// insignificant whitespace, so the invariant is against the
		// compacted form.
		if json.Valid(data) && len(data) > 0 {
			var want bytes.Buffer
			if err := json.Compact(&want, data); err == nil {
				frame, err := EncodeRecord(RecordRegister, "fuzz-key", data)
				if err != nil {
					t.Fatalf("encoding valid JSON payload failed: %v", err)
				}
				rec, err := DecodeRecord(frame)
				if err != nil {
					t.Fatalf("round trip failed: %v", err)
				}
				if rec.Type != RecordRegister || rec.Key != "fuzz-key" || !bytes.Equal(rec.Payload, want.Bytes()) {
					t.Fatalf("round trip mutated record: %+v, want payload %q", rec, want.Bytes())
				}
			}
		}

		// Decode: arbitrary input.
		rec, err := DecodeRecord(data)
		if err != nil {
			return
		}
		switch rec.Type {
		case RecordRegister, RecordReplace:
			if rec.Version != recordVersion || rec.Key == "" || len(rec.Payload) == 0 {
				t.Fatalf("typed %s missing version, key or payload: %+v", rec.Type, rec)
			}
		case RecordTombstone:
			if rec.Key == "" {
				t.Fatalf("tombstone without key: %+v", rec)
			}
		default:
			t.Fatalf("decoder produced unknown kind %q", rec.Type)
		}
	})
}
