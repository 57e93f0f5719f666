// Package featrow holds a shot's feature — its colour histogram followed by
// its texture vector — zero-suppressed, in memory exactly as the binary
// entry of internal/store writes it on disk: per half, presence words (bit i
// of word i>>6 set when element i's bits are non-zero) and then the elements
// whose bits are non-zero, in index order. A mined shot has ≈ 20 non-zero
// dimensions of 266, so a packed row takes ≈ 200 bytes where the dense one
// takes 2 128. Since the predicate is on bits, -0 and subnormals are kept and
// unpacking gives back every element bit for bit.
//
// Rows of one shape (the two half lengths, and whether each half is nil) are
// packed together into one arena that holds exactly them; a Row names one
// row of an arena. Since the arena is the on-disk form, a stored row is also
// read into one as it is: NewArena takes the presence words and values the
// entry decoder copied out of the bytes, and nothing is unpacked and packed
// again. Arenas are never written once made, so any number of goroutines
// may read them.
//
// The exact distance between a dense query and a packed row
// (Row.SqDistBounded) is the dense one (SplitSqDistBounded) bit for bit: it
// sums over the union of the two presence masks in index order, inside the
// same 16-wide blocks with the same early abandon, and every term it skips
// is (+0 − ±0)² = +0, which leaves a sum of squares unchanged.
//
// FuzzPackedRow (internal/store) holds a packed row to its dense form, its
// distance to the dense one and its bytes to the entry's row writer.
package featrow

import (
	"math"
	"math/bits"
	"slices"

	"classminer/internal/mat"
)

// Arena is a run of packed rows of one shape.
type Arena struct {
	nc, nt       int  // colour and texture lengths
	ncNil, ntNil bool // a half that is nil rather than empty
	wc, wt       int  // presence words per half
	// Row i's presence words are words[i*(wc+wt):], colour's then texture's,
	// and its values vals[off[i]:off[i+1]] (the last row's end at len(vals)),
	// colour's then texture's.
	words []uint64
	vals  []float64
	off   []int32
}

// Bytes is what the arena holds: every row's presence words, values and
// offset.
func (a *Arena) Bytes() int { return 8*len(a.words) + 8*len(a.vals) + 4*len(a.off) }

// Row is one packed row. The zero Row names no row.
type Row struct {
	a *Arena
	i int32
}

// IsZero reports whether r names no row.
func (r Row) IsZero() bool { return r.a == nil }

// Arena returns the arena r lives in.
func (r Row) Arena() *Arena { return r.a }

// Dims returns the lengths of r's colour and texture halves.
func (r Row) Dims() (color, texture int) { return r.a.nc, r.a.nt }

// Len is r's dimensionality, both halves.
func (r Row) Len() int { return r.a.nc + r.a.nt }

func (r Row) words() []uint64 {
	w := r.a.wc + r.a.wt
	return r.a.words[int(r.i)*w : int(r.i+1)*w]
}

func (r Row) vals() []float64 {
	end := len(r.a.vals)
	if int(r.i)+1 < len(r.a.off) {
		end = int(r.a.off[r.i+1])
	}
	return r.a.vals[r.a.off[r.i]:end]
}

// Bytes is r's share of its arena: presence words, values and offset.
func (r Row) Bytes() int { return 8*(r.a.wc+r.a.wt) + 8*len(r.vals()) + 4 }

// Half is one half of a packed row as the binary entry writes it.
type Half struct {
	N     int  // elements
	Nil   bool // the half was nil (N is then 0)
	Words []uint64
	Vals  []float64
}

// Halves returns r's colour and texture halves, views of its arena.
func (r Row) Halves() (color, texture Half) {
	a := r.a
	w, v := r.words(), r.vals()
	nv := 0
	for _, x := range w[:a.wc] {
		nv += bits.OnesCount64(x)
	}
	return Half{N: a.nc, Nil: a.ncNil, Words: w[:a.wc], Vals: v[:nv]},
		Half{N: a.nt, Nil: a.ntNil, Words: w[a.wc:], Vals: v[nv:]}
}

// AppendTo appends r's dense form, colour then texture, to dst.
func (r Row) AppendTo(dst []float64) []float64 {
	n := len(dst)
	dst = slices.Grow(dst, r.Len())[:n+r.Len()]
	out := dst[n:]
	clear(out)
	w, v := r.words(), r.vals()
	v = scatter(out[:r.a.nc], w[:r.a.wc], v)
	scatter(out[r.a.nc:], w[r.a.wc:], v)
	return dst
}

// NonZeros appends to idx the index of every element of r whose bits are
// non-zero, in index order, and returns it together with those elements'
// values in the same order, a view of r's arena. Every other element of r
// is +0. Pass idx with room for r.Len() indices and nothing is allocated.
func (r Row) NonZeros(idx []int32) ([]int32, []float64) {
	nc := r.a.nc
	for i, word := range r.words() {
		base := i << 6
		if i >= r.a.wc {
			base = nc + (i-r.a.wc)<<6
		}
		for ; word != 0; word &= word - 1 {
			idx = append(idx, int32(base+bits.TrailingZeros64(word)))
		}
	}
	return idx, r.vals()
}

// scatter writes the values the presence words name into out and returns the
// values left over.
func scatter(out []float64, words []uint64, vals []float64) []float64 {
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			out[w<<6+bits.TrailingZeros64(word)] = vals[0]
			vals = vals[1:]
		}
	}
	return vals
}

// AddTo adds r's elements into acc, element j into acc[j]. Only the elements
// whose bits are non-zero are added: adding +0 leaves any sum but -0
// unchanged, and a sum that starts at +0 never becomes -0, so accumulating
// rows into a zeroed acc this way gives the dense row-by-row sum bit for bit.
func (r Row) AddTo(acc []float64) {
	w, v := r.words(), r.vals()
	nc := r.a.nc
	for i, word := range w {
		base := i << 6
		if i >= r.a.wc {
			base = nc + (i-r.a.wc)<<6
		}
		for ; word != 0; word &= word - 1 {
			acc[base+bits.TrailingZeros64(word)] += v[0]
			v = v[1:]
		}
	}
}

// Mask writes q's presence mask into dst, grown as needed: bit j of word
// j>>6 is set when q[j]'s bits are non-zero. Row.SqDistBounded takes it.
func Mask(dst []uint64, q []float64) []uint64 {
	dst = slices.Grow(dst[:0], (len(q)+63)/64)[:(len(q)+63)/64]
	clear(dst)
	for j, v := range q {
		if math.Float64bits(v) != 0 {
			dst[j>>6] |= 1 << uint(j&63)
		}
	}
	return dst
}

// bitsAt returns the 64 bits of m from bit off on, zeros past its end.
func bitsAt(m []uint64, off int) uint64 {
	w, s := off>>6, uint(off&63)
	var x uint64
	if w < len(m) {
		x = m[w] >> s
	}
	if s != 0 && w+1 < len(m) {
		x |= m[w+1] << (64 - s)
	}
	return x
}

// SqDistBounded is SplitSqDistBounded(colour, texture, query, bound) on r's
// dense form, bit for bit, early abandon included; qmask is Mask(query).
func (r Row) SqDistBounded(query []float64, qmask []uint64, bound float64) float64 {
	a := r.a
	nc := a.nc
	if len(query) != nc+a.nt {
		panic(mat.ErrDimension)
	}
	w, v := r.words(), r.vals()
	cw, tw := w[:a.wc], w[a.wc:]
	var s float64
	// The colour half in mat.SqDistBounded's 16-wide blocks, the bound
	// checked after each; a 16-aligned block never straddles a word.
	full := nc &^ 15
	for i := 0; i < full; i += 16 {
		sh := uint(i & 63)
		rb := cw[i>>6] >> sh & 0xffff
		var blk float64
		for u := rb | qmask[i>>6]>>sh&0xffff; u != 0; u &= u - 1 {
			b := bits.TrailingZeros64(u)
			var x float64
			if rb>>uint(b)&1 != 0 {
				x, v = v[0], v[1:]
			}
			d := query[i+b] - x
			blk += d * d
		}
		s += blk
		if s > bound {
			return s
		}
	}
	if full < nc {
		sh, keep := uint(full&63), uint64(1)<<uint(nc-full)-1
		rb := cw[full>>6] >> sh & keep
		for u := rb | qmask[full>>6]>>sh&keep; u != 0; u &= u - 1 {
			b := bits.TrailingZeros64(u)
			var x float64
			if rb>>uint(b)&1 != 0 {
				x, v = v[0], v[1:]
			}
			d := query[full+b] - x
			s += d * d
		}
	}
	if s > bound {
		return s
	}
	for t, rb := range tw {
		for u := rb | bitsAt(qmask, nc+t<<6); u != 0; u &= u - 1 {
			b := bits.TrailingZeros64(u)
			var x float64
			if rb>>uint(b)&1 != 0 {
				x, v = v[0], v[1:]
			}
			d := query[nc+t<<6+b] - x
			s += d * d
		}
	}
	return s
}

// SplitSqDistBounded is the full-dimension squared distance between a query
// and a dense feature held as its two halves, abandoned once the colour half
// alone exceeds bound (mat.SqDistBounded's early abandon inside it). It is
// the distance every search ranks by.
func SplitSqDistBounded(color, texture, query []float64, bound float64) float64 {
	nc := len(color)
	if len(query) != nc+len(texture) {
		panic(mat.ErrDimension)
	}
	sum := mat.SqDistBounded(query[:nc], color, bound)
	if sum > bound {
		return sum
	}
	for i, v := range texture {
		d := query[nc+i] - v
		sum += d * d
	}
	return sum
}

// maxArenaVals caps an arena's values so that int32 offsets address them.
const maxArenaVals = math.MaxInt32

// NewArena makes an arena of one shape out of the packed form itself, the
// way the binary entry stores it: words holds each row's presence words back
// to back, ⌈nc/64⌉ colour then ⌈nt/64⌉ texture, vals the values they name,
// row after row, and off[i] where row i's values start in vals; a half that
// is nil has ncNil (ntNil) set and length 0. The arena keeps the three
// slices, which nobody may write afterwards.
//
// The caller has checked the rows, as the entry decoder does: no presence
// bit past the end of a half, each off[i] the values the rows before i
// name, len(vals) those all rows name, and every value with non-zero bits,
// as Pack would have left it. NewArena checks only that the slices fit the
// shape, and panics when they do not.
func NewArena(nc, nt int, ncNil, ntNil bool, words []uint64, vals []float64, off []int32) *Arena {
	wc, wt := (nc+63)/64, (nt+63)/64
	if nc < 0 || nt < 0 || (ncNil && nc != 0) || (ntNil && nt != 0) ||
		len(words) != len(off)*(wc+wt) || len(vals) > maxArenaVals {
		panic("featrow: NewArena: the rows do not fit the shape")
	}
	return &Arena{nc: nc, nt: nt, ncNil: ncNil, ntNil: ntNil, wc: wc, wt: wt,
		words: words, vals: vals, off: off}
}

// Row returns row i of a.
func (a *Arena) Row(i int) Row { return Row{a: a, i: int32(i)} }

// Pack packs every row of rows that names none yet: row i is the halves
// half(i) returns, colour then texture, and each run of such rows of one
// shape goes into one arena sized to hold exactly them. It keeps none of the
// halves, and leaves the rows that already name one alone. The returned
// index is the first row it packed holding a NaN or an infinity, -1 when
// none does: that row is packed like any other, and refusing it is the
// caller's call.
func Pack(rows []Row, half func(i int) (color, texture []float64)) (nonFinite int) {
	nonFinite = -1
	for start := 0; start < len(rows); start++ {
		if !rows[start].IsZero() {
			continue
		}
		c0, t0 := half(start)
		a := &Arena{nc: len(c0), nt: len(t0), ncNil: c0 == nil, ntNil: t0 == nil,
			wc: (len(c0) + 63) / 64, wt: (len(t0) + 63) / 64}
		// Size the arena: the run's rows and values, the values' finiteness
		// checked on the way.
		n, nv, end := 0, 0, start
		for ; end < len(rows); end++ {
			if !rows[end].IsZero() {
				continue
			}
			c, t := half(end)
			if len(c) != a.nc || len(t) != a.nt || (c == nil) != a.ncNil || (t == nil) != a.ntNil {
				break
			}
			nzc, finite := count(c)
			nzt, tfinite := count(t)
			if nv+nzc+nzt > maxArenaVals && n > 0 {
				break
			}
			if !(finite && tfinite) && nonFinite < 0 {
				nonFinite = end
			}
			n, nv = n+1, nv+nzc+nzt
		}
		a.words = make([]uint64, n*(a.wc+a.wt))
		a.vals = make([]float64, 0, nv)
		a.off = make([]int32, n)
		for i, at := 0, start; i < n; at++ {
			if !rows[at].IsZero() {
				continue
			}
			c, t := half(at)
			a.off[i] = int32(len(a.vals))
			w := a.words[i*(a.wc+a.wt) : (i+1)*(a.wc+a.wt)]
			a.vals = pack(a.vals, w[:a.wc], c)
			a.vals = pack(a.vals, w[a.wc:], t)
			rows[at] = Row{a: a, i: int32(i)}
			i++
		}
	}
	return nonFinite
}

// count returns how many of row's elements have non-zero bits, and whether
// every element is finite.
func count(row []float64) (n int, finite bool) {
	finite = true
	for _, v := range row {
		if math.Float64bits(v) != 0 {
			n++
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite = false
		}
	}
	return n, finite
}

// pack sets row's presence bits in words and appends its non-zero elements
// to vals.
func pack(vals []float64, words []uint64, row []float64) []float64 {
	for j, v := range row {
		if math.Float64bits(v) != 0 {
			words[j>>6] |= 1 << uint(j&63)
			vals = append(vals, v)
		}
	}
	return vals
}
