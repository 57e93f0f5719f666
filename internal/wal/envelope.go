package wal

import (
	"encoding/binary"
	"fmt"
)

// Record envelope: the logical layer above the byte framing of record.go.
// Every frame payload describes one library mutation in one binary shape,
//
//	envelope := version(1 byte = 2) kind(1 byte) uvarint(len(key)) key payload
//
// — the envelope carries the mutation kind and the video name, and the
// payload is everything after the key: the kind-specific body (a
// store.AppendEntry encoding for register/replace, empty for tombstone),
// which this package never looks inside. Reading the key is a bounds check
// and a slice, so replay routing, the read-time skip of superseded records
// and a follower classify a record without parsing it. A frame of any other
// shape is a decode error, never a guessed registration.
//
// The version byte is never '{'. A frame that does start with '{' is the
// envelope this format replaced — one JSON document,
// {"type":"register","version":1,"key":"v1","payload":{…}} — and decodes to
// an error wrapping ErrRetiredFormat: a log that holds one is refused, never
// read and never cut short as if it were torn.
//
// The envelope lives in this package — not in classminer — because log,
// snapshot and replication stream all carry it, and internal/repl reads it
// without the library.
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

// recordVersion is the envelope version this build writes, and the first byte
// of every frame it writes.
const recordVersion = 2

// The kind byte. kindSnapshot heads a checkpoint snapshot (snapshot.go) and
// is not a record: a log that holds one does not decode.
const (
	kindRegister  = 1
	kindTombstone = 2
	kindReplace   = 3
	kindSnapshot  = 4
)

var kindNames = [...]string{kindRegister: RecordRegister, kindTombstone: RecordTombstone, kindReplace: RecordReplace}

// Record is one decoded log record.
type Record struct {
	// Type is one of the Record* kinds.
	Type string
	// Key is the video name the record is about — the identity replay
	// dedupes on.
	Key string
	// Payload is the kind-specific body, opaque to this package: a binary
	// store entry for register/replace, empty for tombstone.
	Payload []byte
}

// AppendRecordHead appends the envelope of a kind record about key to dst;
// the record's payload is whatever the caller appends after it, so a large
// body is encoded straight into the frame instead of being copied in.
func AppendRecordHead(dst []byte, kind, key string) ([]byte, error) {
	var k byte
	switch kind {
	case RecordRegister:
		k = kindRegister
	case RecordTombstone:
		k = kindTombstone
	case RecordReplace:
		k = kindReplace
	default:
		return nil, fmt.Errorf("wal: unknown record kind %q", kind)
	}
	if key == "" {
		return nil, fmt.Errorf("wal: %s record needs a key", kind)
	}
	dst = append(dst, recordVersion, k)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	return append(dst, key...), nil
}

// EncodeRecord serialises one typed record for Append. payload may be nil
// for tombstones; it is embedded byte for byte.
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
	}
	frame, err := AppendRecordHead(make([]byte, 0, 2+binary.MaxVarintLen32+len(key)+len(payload)), kind, key)
	if err != nil {
		return nil, err
	}
	return append(frame, payload...), nil
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

// DecodeRecordInto is DecodeRecord writing into *rec — replay and apply
// loops reuse one scratch Record across millions of frames. The
// payload is sliced out of frame untouched (no validation, no copy — the CRC
// frame already vouches for integrity, and the consumer decodes the payload
// next anyway).
func DecodeRecordInto(rec *Record, frame []byte) error {
	if len(frame) > 0 && frame[0] != recordVersion {
		if frame[0] == '{' {
			return retired("a record in the JSON envelope of version 1")
		}
		return fmt.Errorf("wal: record version %d unsupported (want %d)", frame[0], recordVersion)
	}
	if len(frame) < 2 {
		return fmt.Errorf("wal: record envelope of %d bytes", len(frame))
	}
	k := frame[1]
	if k == 0 || int(k) >= len(kindNames) {
		return fmt.Errorf("wal: unknown record kind %d", k)
	}
	kind := kindNames[k]
	// One encoding per record: the key length is a minimal varint.
	n, w := binary.Uvarint(frame[2:])
	if w <= 0 || (w > 1 && frame[1+w] == 0) || n > uint64(len(frame)-2-w) {
		return fmt.Errorf("wal: %s record has a bad key length", kind)
	}
	if n == 0 {
		return fmt.Errorf("wal: %s record has no key", kind)
	}
	rest := frame[2+w:]
	payload := rest[n:]
	switch {
	case k == kindTombstone && len(payload) != 0:
		return fmt.Errorf("wal: tombstone record carries a payload")
	case k != kindTombstone && len(payload) == 0:
		return fmt.Errorf("wal: %s record has no payload", kind)
	}
	*rec = Record{Type: kind, Key: string(rest[:n])}
	if len(payload) > 0 {
		rec.Payload = payload
	}
	return nil
}

// FrameOverhead is the per-record framing cost in bytes on top of the
// payload (the length + CRC header). Callers accounting for on-log record
// sizes — a follower bounding the batch it reads — add it to len(payload).
const FrameOverhead = headerSize
