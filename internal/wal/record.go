package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Record framing: every record is [length uint32 LE][crc32c uint32 LE]
// [payload]. The CRC covers the payload only; the length bound plus the
// checksum reject both bit rot and frames invented by reading zero-filled
// or garbage tails. Empty payloads are forbidden so that a zero-filled
// region (length 0, CRC 0 — which is crc32c("") — both plausible) can never
// masquerade as an endless run of valid empty records.
const (
	headerSize = 8
	// MaxRecordBytes bounds one record's payload; larger lengths in a
	// header are treated as corruption, not allocation requests.
	MaxRecordBytes = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrTorn marks a frame cut short by a crash mid-write: the prefix read
	// so far is valid, the log simply ends inside this record.
	ErrTorn = errors.New("wal: torn record")
	// ErrCorrupt marks a frame whose bytes are present but wrong (CRC
	// mismatch, absurd or zero length).
	ErrCorrupt = errors.New("wal: corrupt record")
)

// frameHeader is the length + CRC header that precedes payload in its frame.
func frameHeader(payload []byte) (hdr [headerSize]byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	return hdr
}

// appendRecord appends one framed record to dst and returns the extended
// slice (append-style, so callers can reuse a scratch buffer).
func appendRecord(dst, payload []byte) []byte {
	hdr := frameHeader(payload)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// ReadRecord reads one framed record from r. It returns io.EOF at a clean
// end of log, an error wrapping ErrTorn when the log ends inside a frame,
// an error wrapping ErrCorrupt when the frame's bytes are damaged, and the
// underlying error verbatim when the read itself fails (a transient EIO is
// not evidence of a bad log, and must never trigger truncation or
// healing). After any non-nil error the reader's position is unspecified;
// replay must stop.
func ReadRecord(r io.Reader) ([]byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		switch err {
		case io.EOF:
			return nil, io.EOF
		case io.ErrUnexpectedEOF:
			return nil, fmt.Errorf("%w: log ends inside header", ErrTorn)
		}
		return nil, fmt.Errorf("wal: reading record header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n == 0 {
		return nil, fmt.Errorf("%w: zero-length record", ErrCorrupt)
	}
	if n > MaxRecordBytes {
		return nil, fmt.Errorf("%w: record length %d exceeds %d", ErrCorrupt, n, MaxRecordBytes)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: log ends inside %d-byte payload", ErrTorn, n)
		}
		return nil, fmt.Errorf("wal: reading record payload: %w", err)
	}
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(hdr[4:8]); got != want {
		return nil, fmt.Errorf("%w: crc %08x, frame says %08x", ErrCorrupt, got, want)
	}
	return payload, nil
}

// scanLog reads framed records from r until the end of the stream or the
// first damaged frame, invoking fn (when non-nil) per record. It returns
// the byte length of the valid prefix, the record count, the damage that
// ended the scan (nil for a clean EOF; only ever ErrTorn/ErrCorrupt), and
// any fatal error — an fn failure or a real I/O error, either of which
// aborts the scan immediately and must not be treated as log damage.
func scanLog(r io.Reader, fn func(payload []byte) error) (validBytes, records int64, damage, err error) {
	for {
		payload, rerr := ReadRecord(r)
		switch {
		case rerr == io.EOF:
			return validBytes, records, nil, nil
		case errors.Is(rerr, ErrTorn) || errors.Is(rerr, ErrCorrupt):
			return validBytes, records, rerr, nil
		case rerr != nil:
			return validBytes, records, nil, rerr
		}
		validBytes += headerSize + int64(len(payload))
		records++
		if fn != nil {
			if ferr := fn(payload); ferr != nil {
				return validBytes, records, nil, ferr
			}
		}
	}
}
