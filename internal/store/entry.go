package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"classminer/internal/featrow"
)

// The binary entry: what the write-ahead log, the checkpoint snapshot and the
// replication wire carry per video. It is a second serialisation of
// SavedLibraryEntry beside the JSON one, not a second model — EncodeResult
// and DecodeResult stay the one flattener and the one validator — and it
// round-trips a value exactly: nil and empty slices stay distinct, every
// float64 keeps its bits (-0, subnormals, NaN payloads), and the bytes are a
// pure function of the value (Events are written in ascending key order).
//
//	entry   := format(1 byte = 1) string(subcluster) present(0|1) [result]
//	result  := int(version) string(videoName) fps(8 bytes: IEEE bits, LE)
//	           int(totalFrames) shots groups scenes scenes(discarded)
//	           clusters events
//	shots   := count uvarint(values) count×shot    values = Σ row lengths
//	shot    := int(index) int(start) int(end) int(repFrame) row(color) row(texture)
//	row     := count ⌈n/64⌉×presence(uint64 LE) set-bits×value(8 bytes: IEEE bits, LE)
//	group   := int(index) int(kind) ints(shots) ints(repShots)
//	scene   := int(index) ints(groups) int(repGroup) int(event)
//	cluster := int(index) ints(scenes) int(repGroup)
//	events  := count count×(int(key) int(value))   keys strictly ascending
//	ints    := count count×int
//	string  := uvarint(length) bytes
//	int     := uvarint(zig-zag)
//	count   := uvarint: 0 = nil, n+1 = n elements
//
// A feature row is zero-suppressed: bit i of the presence words (bit i&63 of
// word i>>6) says whether element i is written, and an element is written
// exactly when its *bits* are non-zero. A mined shot has ≈ 18 non-zero
// dimensions of 266, so a row shrinks about fivefold against its JSON; a
// fully dense row pays 1/64 extra. A registered shot holds its row in memory
// in this very form (internal/featrow): it is written from it as it is, and
// read back into it as it is — DecodeEntry copies the presence words and
// values of each run of same-shaped rows into one arena sized to hold
// exactly them, and never builds the dense row.
//
// The decoder is strict, which is what makes it one format: an unknown
// format byte, a non-minimal varint, a presence bit past the row's end, a
// written zero, events out of order, a values total the rows do not add up
// to, and trailing bytes are all errors — so any input DecodeEntry accepts
// re-encodes to the identical bytes. Every count is checked against the
// bytes that remain before anything is allocated for it, so a hostile input
// cannot make the decoder allocate more than a constant multiple of its own
// length (64×, the zero-suppression ratio of an all-zero row).
const entryFormat = 1

// AppendEntry appends e's binary form to dst and returns the extended slice.
func AppendEntry(dst []byte, e *SavedLibraryEntry) []byte {
	dst = append(dst, entryFormat)
	dst = appendString(dst, e.Subcluster)
	r := e.Result
	if r == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = appendInt(dst, r.Version)
	dst = appendString(dst, r.VideoName)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.FPS))
	dst = appendInt(dst, r.TotalFrames)

	dst = appendCount(dst, r.Shots)
	values := 0
	for i := range r.Shots {
		if s := &r.Shots[i]; s.Row.IsZero() {
			values += len(s.Color) + len(s.Texture)
		} else {
			values += s.Row.Len()
		}
	}
	dst = binary.AppendUvarint(dst, uint64(values))
	for i := range r.Shots {
		s := &r.Shots[i]
		dst = appendInt(dst, s.Index)
		dst = appendInt(dst, s.Start)
		dst = appendInt(dst, s.End)
		dst = appendInt(dst, s.RepFrame)
		if s.Row.IsZero() {
			dst = appendRow(dst, s.Color)
			dst = appendRow(dst, s.Texture)
		} else {
			c, t := s.Row.Halves()
			dst = appendHalf(appendHalf(dst, c), t)
		}
	}
	dst = appendCount(dst, r.Groups)
	for i := range r.Groups {
		g := &r.Groups[i]
		dst = appendInt(dst, g.Index)
		dst = appendInt(dst, g.Kind)
		dst = appendInts(dst, g.Shots)
		dst = appendInts(dst, g.RepShots)
	}
	for _, scenes := range [2][]SavedScene{r.Scenes, r.Discarded} {
		dst = appendCount(dst, scenes)
		for i := range scenes {
			sc := &scenes[i]
			dst = appendInt(dst, sc.Index)
			dst = appendInts(dst, sc.Groups)
			dst = appendInt(dst, sc.RepGroup)
			dst = appendInt(dst, sc.Event)
		}
	}
	dst = appendCount(dst, r.Clusters)
	for i := range r.Clusters {
		c := &r.Clusters[i]
		dst = appendInt(dst, c.Index)
		dst = appendInts(dst, c.Scenes)
		dst = appendInt(dst, c.RepGroup)
	}
	if r.Events == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Events))+1)
	var few [16]int // a video mines a handful of events; no allocation for them
	keys := few[:0]
	for k := range r.Events {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		dst = appendInt(dst, k)
		dst = appendInt(dst, r.Events[k])
	}
	return dst
}

func appendCount[T any](dst []byte, s []T) []byte {
	if s == nil {
		return append(dst, 0)
	}
	return binary.AppendUvarint(dst, uint64(len(s))+1)
}

func appendInt(dst []byte, v int) []byte {
	x := int64(v)
	return binary.AppendUvarint(dst, uint64(x<<1)^uint64(x>>63))
}

func appendInts(dst []byte, s []int) []byte {
	dst = appendCount(dst, s)
	for _, v := range s {
		dst = appendInt(dst, v)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendRow(dst []byte, row []float64) []byte {
	dst = appendCount(dst, row)
	// Little-endian words make the presence block a plain bitmap: element i
	// is bit i&7 of byte i>>3.
	presence := len(dst)
	dst = append(dst, make([]byte, (len(row)+63)/64*8)...)
	for i, v := range row {
		if b := math.Float64bits(v); b != 0 {
			dst[presence+i>>3] |= 1 << (i & 7)
			dst = binary.LittleEndian.AppendUint64(dst, b)
		}
	}
	return dst
}

// appendHalf appends one half of a packed row, which appendRow would write
// from its dense form: a packed row's presence words and values are already
// the row's bytes.
func appendHalf(dst []byte, h featrow.Half) []byte {
	if h.Nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(h.N)+1)
	for _, w := range h.Words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	for _, v := range h.Vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeEntry parses one binary entry. The result shares no memory with b.
// Every shot's feature comes packed, in SavedShot.Row, with Color and
// Texture nil; each run of shots whose rows have one shape shares one
// featrow arena, so a mined video's rows take one.
func DecodeEntry(b []byte) (SavedLibraryEntry, error) {
	d := entryDecoder{b: b}
	if format := d.byte(); d.err == nil && format != entryFormat {
		return SavedLibraryEntry{}, fmt.Errorf("store: entry format %d unsupported (want %d)", format, entryFormat)
	}
	var e SavedLibraryEntry
	e.Subcluster = d.string()
	switch d.byte() {
	case 0:
	case 1:
		e.Result = d.result()
	default:
		d.fail("bad result marker")
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return SavedLibraryEntry{}, d.err
	}
	return e, nil
}

// entryDecoder reads an entry front to back. The first failure sticks: it
// empties the input, so every later read fails its own bounds check and
// returns a zero, and the caller tests err once at the end.
type entryDecoder struct {
	b        []byte // unread input
	err      error
	declared uint64 // the row elements the shot table declares, less those read
}

func (d *entryDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("store: corrupt entry: "+format, args...)
	}
	d.b = nil
}

func (d *entryDecoder) byte() byte {
	if len(d.b) == 0 {
		d.fail("truncated")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *entryDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	// A minimal encoding ends in a non-zero byte (or is the single byte 0).
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *entryDecoder) int() int {
	u := d.uvarint()
	v := int64(u>>1) ^ -int64(u&1)
	if int64(int(v)) != v {
		d.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

func (d *entryDecoder) string() string {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail("string of %d bytes in %d", n, len(d.b))
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// count reads a slice header: the element count and whether the slice is
// nil. Each element takes at least minBytes of input, which bounds the count
// by what is left — the check every allocation below rests on.
func (d *entryDecoder) count(minBytes int) (n int, isNil bool) {
	u := d.uvarint()
	if u == 0 {
		return 0, true
	}
	if u-1 > uint64(len(d.b)/minBytes) {
		d.fail("%d elements in %d bytes", u-1, len(d.b))
		return 0, true
	}
	return int(u - 1), false
}

func (d *entryDecoder) ints() []int {
	n, isNil := d.count(1)
	if isNil {
		return nil
	}
	s := make([]int, n)
	for i := range s {
		s[i] = d.int()
	}
	return s
}

// rowHead is what a feature row's bytes say before its values: its length,
// whether it is nil, its presence words (little-endian) and how many values
// are written after them.
type rowHead struct {
	n        int
	isNil    bool
	presence []byte
	written  int
}

// sameShape reports whether two rows go into one arena.
func (h rowHead) sameShape(o rowHead) bool { return h.n == o.n && h.isNil == o.isNil }

// rowHead reads a feature row up to its values and checks it: its length
// against the declared row elements still unread, its presence words
// against the bytes left and the row's end, its values against the bytes
// left.
func (d *entryDecoder) rowHead() rowHead {
	u := d.uvarint()
	if u == 0 {
		return rowHead{isNil: true}
	}
	n := u - 1
	if n > d.declared {
		d.fail("rows exceed the declared %d values", d.declared)
		return rowHead{}
	}
	d.declared -= n
	words := int(n+63) / 64 // n ≤ the declared elements ≤ 8·len(input): no overflow
	if words*8 > len(d.b) {
		d.fail("row of %d in %d bytes", n, len(d.b))
		return rowHead{}
	}
	h := rowHead{n: int(n), presence: d.b[:words*8]}
	for w := 0; w < words; w++ {
		word := binary.LittleEndian.Uint64(h.presence[w*8:])
		if w == words-1 && n&63 != 0 && word>>(n&63) != 0 {
			d.fail("presence bit past the end of a row of %d", n)
			return rowHead{}
		}
		h.written += bits.OnesCount64(word)
	}
	d.b = d.b[words*8:]
	if h.written > len(d.b)/8 {
		d.fail("truncated row")
		return rowHead{}
	}
	return h
}

// skipRow reads a feature row's head and passes over its values.
func (d *entryDecoder) skipRow() rowHead {
	h := d.rowHead()
	d.b = d.b[8*h.written:]
	return h
}

// row reads a feature row, which skipRow has read before, into the fronts
// of words and vals, and returns what is left of them.
func (d *entryDecoder) row(words []uint64, vals []float64) ([]uint64, []float64) {
	h := d.rowHead()
	if d.err != nil {
		return nil, nil
	}
	nw := len(h.presence) / 8
	for w := 0; w < nw; w++ {
		words[w] = binary.LittleEndian.Uint64(h.presence[w*8:])
	}
	for k := 0; k < h.written; k++ {
		v := binary.LittleEndian.Uint64(d.b[8*k:])
		if v == 0 {
			d.fail("zero written in a zero-suppressed row")
			return nil, nil
		}
		vals[k] = math.Float64frombits(v)
	}
	d.b = d.b[8*h.written:]
	return words[nw:], vals[h.written:]
}

// shots reads n shots. Their rows are read in the very form a registered
// shot holds them in (featrow), each run of shots whose rows have one shape
// into one arena sized to hold exactly them: a first pass over the run's
// bytes finds where it ends and how many values it holds, and a second
// copies its presence words and values in, noting where each row's values
// start. Every check is made here, not in featrow.NewArena. Nothing is
// unpacked.
func (d *entryDecoder) shots(n int) []SavedShot {
	shots := make([]SavedShot, n)
	for i := 0; i < n; {
		m := *d
		var color, texture rowHead
		rows, written := 0, 0
		for j := i; j < n; j++ {
			m.int()
			m.int()
			m.int()
			m.int()
			c, t := m.skipRow(), m.skipRow()
			if m.err != nil {
				*d = m
				return nil
			}
			if j == i {
				color, texture = c, t
			} else if !c.sameShape(color) || !t.sameShape(texture) {
				break
			}
			rows, written = rows+1, written+c.written+t.written
		}
		words := make([]uint64, rows*(len(color.presence)+len(texture.presence))/8)
		vals := make([]float64, written)
		off := make([]int32, rows)
		w, v := words, vals
		for k := i; k < i+rows; k++ {
			s := &shots[k]
			s.Index, s.Start, s.End, s.RepFrame = d.int(), d.int(), d.int(), d.int()
			off[k-i] = int32(written - len(v))
			w, v = d.row(w, v)
			w, v = d.row(w, v)
		}
		if d.err != nil {
			return nil
		}
		arena := featrow.NewArena(color.n, texture.n, color.isNil, texture.isNil, words, vals, off)
		for k := 0; k < rows; k++ {
			shots[i+k].Row = arena.Row(k)
		}
		i += rows
	}
	return shots
}

func (d *entryDecoder) scenes() []SavedScene {
	n, isNil := d.count(4)
	if isNil {
		return nil
	}
	scenes := make([]SavedScene, n)
	for i := range scenes {
		scenes[i] = SavedScene{Index: d.int(), Groups: d.ints(), RepGroup: d.int(), Event: d.int()}
	}
	return scenes
}

func (d *entryDecoder) result() *SavedResult {
	r := &SavedResult{Version: d.int(), VideoName: d.string()}
	if len(d.b) < 8 {
		d.fail("truncated")
		return nil
	}
	r.FPS = math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	r.TotalFrames = d.int()

	n, isNil := d.count(6)
	// Every value costs at least its presence bit.
	d.declared = d.uvarint()
	if d.declared > 8*uint64(len(d.b)) {
		d.fail("%d feature values in %d bytes", d.declared, len(d.b))
		return nil
	}
	if !isNil {
		r.Shots = d.shots(n)
	}
	if d.err == nil && d.declared != 0 {
		d.fail("rows fall %d short of the declared values", d.declared)
		return nil
	}
	if n, isNil := d.count(4); !isNil {
		r.Groups = make([]SavedGroup, n)
		for i := range r.Groups {
			r.Groups[i] = SavedGroup{Index: d.int(), Kind: d.int(), Shots: d.ints(), RepShots: d.ints()}
		}
	}
	r.Scenes = d.scenes()
	r.Discarded = d.scenes()
	if n, isNil := d.count(3); !isNil {
		r.Clusters = make([]SavedCluster, n)
		for i := range r.Clusters {
			r.Clusters[i] = SavedCluster{Index: d.int(), Scenes: d.ints(), RepGroup: d.int()}
		}
	}
	if n, isNil := d.count(2); !isNil {
		r.Events = make(map[int]int, n)
		for i, prev := 0, 0; i < n; i++ {
			k, v := d.int(), d.int()
			if i > 0 && k <= prev {
				d.fail("event keys out of order")
				return nil
			}
			r.Events[k], prev = v, k
		}
	}
	return r
}
