package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Checkpoint snapshots. The file a manifest names is made of what the log is
// made of — the CRC frames of record.go, each holding one envelope — so a
// checkpoint, a log segment and a replication batch are written by one
// encoder and read by one decoder. It opens with a header frame,
//
//	header := version(1 byte = 2) kind(1 byte = 4) uvarint(videos) uvarint(rows) uvarint(dim)
//
// and continues with exactly `videos` register records, one per video in
// name order, each the record the log would hold for that registration. rows
// and dim size the library before the first video arrives.
//
// A snapshot is all or nothing, which is where it parts from the log. The
// log's tail is where a crash lands, so damage there means "stop, the prefix
// is the state"; a snapshot was renamed into place whole and the segments it
// replaced are gone, so a prefix of it is not a state anyone acknowledged.
// ReadSnapshot therefore fails on any torn or corrupt frame, on a missing
// header, and on a frame count that disagrees with the header — a file cut
// exactly at a frame boundary must not recover as a smaller library.

// SnapshotHeader is a snapshot's first frame.
type SnapshotHeader struct {
	// Videos is how many register records follow; a reader that finds any
	// other number refuses the file.
	Videos int
	// Rows is the number of feature rows (shots) those videos hold together
	// and Dim their dimensionality: what a reader reserves up front.
	Rows, Dim int
}

// SnapshotWriter streams a snapshot: the header at construction, then one
// Append per video, then Close.
type SnapshotWriter struct {
	w    *bufio.Writer
	left int // records the header promised and Append has not seen yet
}

// NewSnapshotWriter writes h to w and returns the writer for the h.Videos
// records that must follow.
func NewSnapshotWriter(w io.Writer, h SnapshotHeader) (*SnapshotWriter, error) {
	if h.Videos < 0 || h.Rows < 0 || h.Dim < 0 {
		return nil, fmt.Errorf("wal: negative snapshot header %+v", h)
	}
	// A frame at a time would be a write syscall per video.
	s := &SnapshotWriter{w: bufio.NewWriterSize(w, 256<<10), left: h.Videos}
	head := []byte{recordVersion, kindSnapshot}
	for _, v := range [...]int{h.Videos, h.Rows, h.Dim} {
		head = binary.AppendUvarint(head, uint64(v))
	}
	return s, s.writeFrame(head)
}

// Append writes one record — an envelope as EncodeRecord or AppendRecordHead
// builds it — as the snapshot's next frame. record is not retained.
func (s *SnapshotWriter) Append(record []byte) error {
	if s.left == 0 {
		return fmt.Errorf("wal: snapshot holds more records than its header declares")
	}
	if len(record) == 0 || len(record) > MaxRecordBytes {
		return fmt.Errorf("wal: snapshot record of %d bytes", len(record))
	}
	s.left--
	return s.writeFrame(record)
}

func (s *SnapshotWriter) writeFrame(payload []byte) error {
	hdr := frameHeader(payload)
	if _, err := s.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := s.w.Write(payload); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Close flushes the snapshot; it fails if fewer records were appended than
// the header declares. The underlying writer stays open.
func (s *SnapshotWriter) Close() error {
	if s.left != 0 {
		return fmt.Errorf("wal: snapshot is %d records short of its header", s.left)
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// ReadSnapshot reads a whole snapshot from r: header, when not nil, is called
// with the first frame's contents, then record with every following frame's
// payload (an envelope for DecodeRecordInto; it is freshly allocated and may
// be retained). Damage anywhere, a missing header or a record count other than
// the header's is an error wrapping ErrTorn or ErrCorrupt — callers must
// discard whatever the callbacks built — and a callback's error is returned
// as it is.
func ReadSnapshot(r io.Reader, header func(SnapshotHeader) error, record func(frame []byte) error) error {
	br := bufio.NewReaderSize(r, 256<<10)
	first, err := ReadRecord(br)
	if err == io.EOF {
		return fmt.Errorf("%w: snapshot is empty", ErrTorn)
	}
	if err != nil {
		return fmt.Errorf("snapshot header: %w", err)
	}
	h, err := decodeSnapshotHeader(first)
	if err != nil {
		return err
	}
	if header != nil {
		if err := header(h); err != nil {
			return err
		}
	}
	for n := 0; ; n++ {
		frame, err := ReadRecord(br)
		if err == io.EOF {
			if n != h.Videos {
				return fmt.Errorf("%w: snapshot ends after %d of %d records", ErrTorn, n, h.Videos)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("snapshot record %d of %d: %w", n, h.Videos, err)
		}
		if n == h.Videos {
			return fmt.Errorf("%w: snapshot continues past its %d records", ErrCorrupt, h.Videos)
		}
		if err := record(frame); err != nil {
			return err
		}
	}
}

func decodeSnapshotHeader(frame []byte) (SnapshotHeader, error) {
	bad := func(why string) (SnapshotHeader, error) {
		return SnapshotHeader{}, fmt.Errorf("%w: snapshot header: %s", ErrCorrupt, why)
	}
	if len(frame) < 2 || frame[1] != kindSnapshot {
		return bad("first frame is not a header")
	}
	if frame[0] != recordVersion {
		return bad(fmt.Sprintf("version %d unsupported (want %d)", frame[0], recordVersion))
	}
	var vals [3]int
	rest := frame[2:]
	for i := range vals {
		v, w := binary.Uvarint(rest)
		if w <= 0 || int(v) < 0 || uint64(int(v)) != v {
			return bad("bad field")
		}
		vals[i], rest = int(v), rest[w:]
	}
	if len(rest) != 0 {
		return bad("trailing bytes")
	}
	return SnapshotHeader{Videos: vals[0], Rows: vals[1], Dim: vals[2]}, nil
}
