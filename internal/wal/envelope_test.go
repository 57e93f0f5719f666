package wal

import (
	"bytes"
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
		// The hand-rolled scanner's literals must match what the encoder
		// writes, or every record silently takes the slow path.
		if !fastDecodeTyped(new(Record), frame) {
			t.Fatalf("%s frame %s missed the exact-shape decode", c.kind, frame)
		}
		rec, err := DecodeRecord(frame)
		if err != nil {
			t.Fatalf("decode %s: %v", c.kind, err)
		}
		if rec.Type != c.kind || rec.Key != c.key || rec.Version != recordVersion {
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
	bad := [][]byte{
		[]byte(`{"type":"mutate","version":1,"key":"k"}`),   // unknown kind
		[]byte(`{"type":"register","version":9,"key":"k"}`), // future version
		[]byte(`{"type":"tombstone","version":1}`),          // no key
		[]byte(`{"type":"register","version":1,"key":"k"}`), // no payload
		[]byte(`[1,2,3]`), // not an object
		// Untyped: what pre-envelope logs held. A loud error, never a
		// guessed registration.
		[]byte(`{"subcluster":"medicine","result":{"videoName":"v1"}}`),
		[]byte(`{"something":"else"}`),
	}
	for _, frame := range bad {
		if _, err := DecodeRecord(frame); err == nil {
			t.Fatalf("malformed frame %s decoded", frame)
		}
	}
	if _, err := DecodeRecord([]byte(`{"key":"k"}`)); err == nil || !strings.Contains(err.Error(), "wal: record has no type") {
		t.Fatalf("untyped frame: %v, want the no-type error", err)
	}
}
