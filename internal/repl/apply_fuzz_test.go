package repl

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"testing"

	"classminer/internal/wal"
)

// recordingApplier keeps a copy of every record it is handed: the follower
// reuses one Record, and its payload aliases the batch.
type recordingApplier struct{ got []wal.Record }

func (a *recordingApplier) ApplyRecord(_ context.Context, rec *wal.Record) error {
	a.got = append(a.got, wal.Record{Type: rec.Type, Key: rec.Key, Payload: bytes.Clone(rec.Payload)})
	return nil
}

func (a *recordingApplier) ReseedFromSnapshot(context.Context, io.Reader) (int, int, error) {
	return 0, 0, errors.New("a batch never reseeds")
}

// framed appends payload to dst framed as the log frames it: length and
// CRC-32C, both little-endian, then the payload.
func framed(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(dst, payload...)
}

// validBatch cuts data into register, replace and tombstone records, every
// one well formed, and frames them; it returns the batch and its record
// count.
func validBatch(t *testing.T, data []byte) ([]byte, int) {
	kinds := []string{wal.RecordRegister, wal.RecordTombstone, wal.RecordReplace}
	var batch []byte
	n := 0
	for len(data) > 0 {
		size := 1 + int(data[0])%24
		chunk := data[:min(size, len(data))]
		data = data[len(chunk):]
		kind := kinds[int(chunk[0])%len(kinds)]
		var payload []byte
		if kind != wal.RecordTombstone {
			payload = chunk
		}
		rec, err := wal.EncodeRecord(kind, "vid-"+string(chunk[:min(3, len(chunk))]), payload)
		if err != nil {
			t.Fatal(err)
		}
		batch, n = framed(batch, rec), n+1
	}
	return batch, n
}

// applyAndCompare runs a follower's applyBatch over body and fails unless it
// applied exactly the records wal.ReadRecord and wal.DecodeRecordInto yield
// before their first error, in order, and failed exactly when they did.
func applyAndCompare(t *testing.T, body []byte) (applied int, err error) {
	t.Helper()
	var want []wal.Record
	wantErr := false
	for rd := bytes.NewReader(body); ; {
		frame, err := wal.ReadRecord(rd)
		if err == io.EOF {
			break
		}
		var rec wal.Record
		if err == nil {
			err = wal.DecodeRecordInto(&rec, frame)
		}
		if err != nil {
			wantErr = true
			break
		}
		want = append(want, rec)
	}
	app := &recordingApplier{}
	f := &Follower{opts: Options{Applier: app}, ctx: context.Background()}
	applied, err = f.applyBatch(body)
	if applied != len(app.got) {
		t.Fatalf("applyBatch reports %d records applied, the applier saw %d", applied, len(app.got))
	}
	if (err != nil) != wantErr {
		t.Fatalf("applyBatch error %v; the reader failed: %v", err, wantErr)
	}
	if !reflect.DeepEqual(app.got, want) {
		t.Fatalf("applied %d records %v, want the %d the reader yields %v", len(app.got), app.got, len(want), want)
	}
	return applied, err
}

// FuzzApplyBatch: a follower handed arbitrary bytes as a batch never panics,
// and applies exactly the records the log reader yields before its first
// error, in order; the same bytes cut into well-formed frames apply every
// record with no error.
func FuzzApplyBatch(f *testing.F) {
	reg, _ := wal.EncodeRecord(wal.RecordRegister, "vid-1", []byte{1, 2, 3})
	tomb, _ := wal.EncodeRecord(wal.RecordTombstone, "vid-1", nil)
	two := framed(framed(nil, reg), tomb)
	f.Add([]byte{})
	f.Add(two)
	f.Add(two[:len(two)-1])                                       // torn in the last frame
	f.Add(append(framed(nil, reg), framed(nil, []byte{9, 9})...)) // a frame of an unknown version
	f.Add(append(bytes.Clone(two), 0, 0, 0, 0, 0, 0, 0, 0))       // zero-length frame
	f.Add([]byte("{\"type\":\"register\"}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		applyAndCompare(t, data)
		batch, n := validBatch(t, data)
		if applied, err := applyAndCompare(t, batch); err != nil || applied != n {
			t.Fatalf("a batch of %d valid frames applied %d: %v", n, applied, err)
		}
	})
}
