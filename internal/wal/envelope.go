package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Record envelope: the logical layer above the byte framing of record.go.
// Every frame payload is one JSON document describing a library mutation,
// in one shape: {"type":"register","version":1,"key":"v1","payload":{…}} —
// the envelope carries the mutation kind and the video name (the compaction
// key), and the payload is the kind-specific body (a
// store.SavedLibraryEntry for register/replace, empty for tombstone). A
// frame without a type is a decode error, never a guessed registration.
//
// The envelope lives in this package — not in classminer — because the
// compactor must classify records without the library: a register or
// replace record is dead once a later tombstone or replace for the same key
// exists, and that rule is all compaction needs to know about payloads.
const (
	// RecordRegister adds a video under a new name. Replay skips it when
	// the name already exists (the checkpoint-straddler case: the record is
	// both in the snapshot and on the log tail).
	RecordRegister = "register"
	// RecordTombstone deletes a video by name. Replay applies it even when
	// the registration came from the checkpoint snapshot — delete wins over
	// a straddling checkpointed registration — and ignores unknown names
	// (the tombstone may itself straddle a checkpoint that already dropped
	// the video).
	RecordTombstone = "tombstone"
	// RecordReplace atomically supersedes a video: replay removes any
	// existing registration under the key and installs the payload. One
	// record, so a crash can never leave the delete without the re-add.
	RecordReplace = "replace"
)

// recordVersion is the envelope schema version this build writes and the
// only one it accepts.
const recordVersion = 1

// Record is one decoded log record.
type Record struct {
	// Type is one of the Record* kinds.
	Type string `json:"type"`
	// Version is the envelope schema version.
	Version int `json:"version"`
	// Key is the video name the record is about — the identity compaction
	// and replay dedupe on.
	Key string `json:"key,omitempty"`
	// Payload is the kind-specific body: a store.SavedLibraryEntry JSON
	// document for register/replace, empty for tombstone.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// EncodeRecord serialises one typed record for Append. payload may be nil
// for tombstones.
func EncodeRecord(kind, key string, payload []byte) ([]byte, error) {
	switch kind {
	case RecordRegister, RecordReplace:
		if len(payload) == 0 {
			return nil, fmt.Errorf("wal: %s record needs a payload", kind)
		}
	case RecordTombstone:
		if len(payload) != 0 {
			return nil, fmt.Errorf("wal: tombstone record takes no payload")
		}
	default:
		return nil, fmt.Errorf("wal: unknown record kind %q", kind)
	}
	if key == "" {
		return nil, fmt.Errorf("wal: %s record needs a key", kind)
	}
	// Encode without HTML escaping so the payload embeds byte-for-byte
	// (modulo JSON whitespace compaction): compaction copies surviving
	// frames verbatim, and keeping encode deterministic and transparent
	// makes on-disk records greppable and diffable.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(Record{Type: kind, Version: recordVersion, Key: key, Payload: payload}); err != nil {
		return nil, fmt.Errorf("wal: encoding %s record: %w", kind, err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// DecodeRecord parses one frame payload into a Record. The returned Payload
// may alias frame; callers that retain it past the frame's lifetime must
// copy.
func DecodeRecord(frame []byte) (Record, error) {
	var rec Record
	if err := DecodeRecordInto(&rec, frame); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// The byte shape of every frame EncodeRecord writes: its json.Encoder runs
// over the Record struct, so field order and spacing are fixed
// (envelope_test.go pins them against the real encoder).
var (
	typedPrefix    = []byte(`{"type":"`)
	typedVersion   = []byte(`","version":1,"key":"`)
	typedPayload   = []byte(`","payload":`)
	typedTombstone = []byte(`"}`)
)

// DecodeRecordInto is DecodeRecord writing into *rec — replay and
// compaction loops reuse one scratch Record across millions of frames.
//
// Frames matching the exact byte shape EncodeRecord produces are parsed by
// a sliver of hand-rolled scanning instead of a full json.Unmarshal: the
// envelope head is a handful of fixed literals, and the payload is sliced
// out untouched (no re-validation, no copy — the CRC frame already vouches
// for integrity, and the consumer parses the payload next anyway). That
// removes the second full parse of every record from the recovery path.
// Anything irregular — an escaped key, foreign spacing — falls back to the
// strict envelope unmarshal.
func DecodeRecordInto(rec *Record, frame []byte) error {
	if fastDecodeTyped(rec, frame) {
		return nil
	}
	*rec = Record{}
	if err := json.Unmarshal(frame, rec); err != nil {
		return fmt.Errorf("wal: decoding record envelope: %w", err)
	}
	switch rec.Type {
	case RecordRegister, RecordTombstone, RecordReplace:
	case "":
		return fmt.Errorf("wal: record has no type")
	default:
		return fmt.Errorf("wal: unknown record type %q", rec.Type)
	}
	if rec.Version != recordVersion {
		return fmt.Errorf("wal: record version %d unsupported (want %d)", rec.Version, recordVersion)
	}
	if rec.Key == "" {
		return fmt.Errorf("wal: %s record has no key", rec.Type)
	}
	if (rec.Type == RecordRegister || rec.Type == RecordReplace) && len(rec.Payload) == 0 {
		return fmt.Errorf("wal: %s record has no payload", rec.Type)
	}
	return nil
}

// fastDecodeTyped attempts the exact-shape parse of an EncodeRecord frame.
// It reports false — leaving *rec unspecified — whenever the bytes deviate
// from the canonical shape; the caller then takes the strict path.
func fastDecodeTyped(rec *Record, frame []byte) bool {
	if len(frame) < len(typedPrefix)+2 || frame[len(frame)-1] != '}' || !bytes.HasPrefix(frame, typedPrefix) {
		return false
	}
	rest := frame[len(typedPrefix):]
	var kind string
	switch {
	case bytes.HasPrefix(rest, []byte(RecordRegister)):
		kind, rest = RecordRegister, rest[len(RecordRegister):]
	case bytes.HasPrefix(rest, []byte(RecordTombstone)):
		kind, rest = RecordTombstone, rest[len(RecordTombstone):]
	case bytes.HasPrefix(rest, []byte(RecordReplace)):
		kind, rest = RecordReplace, rest[len(RecordReplace):]
	default:
		return false
	}
	if !bytes.HasPrefix(rest, typedVersion) {
		return false
	}
	rest = rest[len(typedVersion):]
	q := bytes.IndexByte(rest, '"')
	if q <= 0 {
		return false // empty or unterminated key
	}
	key := rest[:q]
	if bytes.IndexByte(key, '\\') >= 0 {
		return false // escaped key: let encoding/json do the unescaping
	}
	rest = rest[q:]
	if kind == RecordTombstone {
		if !bytes.Equal(rest, typedTombstone) {
			return false
		}
		*rec = Record{Type: kind, Version: recordVersion, Key: string(key)}
		return true
	}
	if !bytes.HasPrefix(rest, typedPayload) {
		return false
	}
	payload := rest[len(typedPayload) : len(rest)-1]
	if len(payload) == 0 {
		return false
	}
	*rec = Record{Type: kind, Version: recordVersion, Key: string(key), Payload: payload}
	return true
}

// supersedes reports whether a record of this kind makes every earlier
// record for the same key dead: a tombstone or replace fully determines the
// key's state regardless of what preceded it, a register does not (replay
// skips it when the key already exists, so dropping an earlier record would
// change what survives).
func (r Record) supersedes() bool {
	return r.Type == RecordTombstone || r.Type == RecordReplace
}

// FrameOverhead is the per-record framing cost in bytes on top of the
// payload (the length + CRC header). Callers accounting for on-log record
// sizes — the library's dead-bytes bookkeeping — add it to len(payload).
const FrameOverhead = headerSize
