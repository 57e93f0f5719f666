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
		if frame[0] == '{' {
			t.Fatalf("%s frame %q reads as a legacy envelope", c.kind, frame)
		}
		rec, err := DecodeRecord(frame)
		if err != nil {
			t.Fatalf("decode %s: %v", c.kind, err)
		}
		if rec.Type != c.kind || rec.Key != c.key || rec.Version != recordVersion || rec.Legacy() {
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
	if _, err := DecodeRecord([]byte(`{"key":"k"}`)); err == nil || !strings.Contains(err.Error(), "wal: record has no type") {
		t.Fatalf("untyped frame: %v, want the no-type error", err)
	}
}

// TestEnvelopeReadsLegacyFrames: a frame starting with '{' is the JSON
// envelope logs held before the binary one; it still decodes, says so, and
// hands its payload over untouched.
func TestEnvelopeReadsLegacyFrames(t *testing.T) {
	rec, err := DecodeRecord([]byte(`{"type":"replace","version":1,"key":"v\u00e9","payload":{"subcluster":"nursing","result":null}}`))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Type != RecordReplace || rec.Key != "vé" || !rec.Legacy() || string(rec.Payload) != `{"subcluster":"nursing","result":null}` {
		t.Fatalf("legacy frame decoded to %+v", rec)
	}
	if rec, err = DecodeRecord([]byte(`{"type":"tombstone","version":1,"key":"v3"}`)); err != nil || rec.Type != RecordTombstone || !rec.Legacy() {
		t.Fatalf("legacy tombstone: %+v, %v", rec, err)
	}
	// Version 2 is the binary envelope's; no JSON frame ever carried it.
	if _, err := DecodeRecord([]byte(`{"type":"tombstone","version":2,"key":"v3"}`)); err == nil {
		t.Fatal("a JSON frame claiming the binary version decoded")
	}
}
