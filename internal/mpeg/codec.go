// Package mpeg implements a simulated MPEG-I-style video codec: 8×8 block
// DCT, quality-scaled quantisation, zig-zag scan, run-level entropy coding
// with Exp-Golomb codes, and a GOP structure of intra (I) frames and
// motion-compensated predicted (P) frames. The paper mines MPEG-I video;
// this codec serves cmd/classminer -mpeg, which encodes a synthetic video,
// decodes it in full and mines the lossy frames with the same pixel-domain
// shot detector (§3.1) as everything else.
//
// Deliberate simplifications versus real MPEG-1 (documented here so nobody
// mistakes this for a standards implementation): chroma is coded at full
// resolution (4:4:4), entropy coding uses Exp-Golomb instead of Huffman
// tables, and there are no B-frames. None of these affect the behaviour the
// pipeline depends on — lossy block-transform coding with temporal
// prediction.
package mpeg

import (
	"encoding/binary"
	"fmt"
	"math"

	"classminer/internal/vidmodel"
)

// Options configures the encoder.
type Options struct {
	GOP     int // I-frame interval; 0 means DefaultGOP
	Quality int // 1..100; 0 means DefaultQuality
}

// Encoder defaults.
const (
	DefaultGOP     = 12
	DefaultQuality = 75
	searchRange    = 3 // motion search window (± pixels)
)

var magic = [4]byte{'C', 'M', 'V', '1'}

// plane is one full-resolution channel with edge padding to block multiples.
type plane struct {
	w, h int // padded dimensions (multiples of 8)
	pix  []float64
}

func newPlane(w, h int) *plane {
	return &plane{w: w, h: h, pix: make([]float64, w*h)}
}

func (p *plane) at(x, y int) float64 {
	if x < 0 {
		x = 0
	}
	if y < 0 {
		y = 0
	}
	if x >= p.w {
		x = p.w - 1
	}
	if y >= p.h {
		y = p.h - 1
	}
	return p.pix[y*p.w+x]
}

func pad8(v int) int { return (v + blockSize - 1) / blockSize * blockSize }

// rgbToPlanes converts a frame to padded Y, Cb, Cr planes.
func rgbToPlanes(f *vidmodel.Frame) (y, cb, cr *plane) {
	pw, ph := pad8(f.W), pad8(f.H)
	y, cb, cr = newPlane(pw, ph), newPlane(pw, ph), newPlane(pw, ph)
	for yy := 0; yy < ph; yy++ {
		for xx := 0; xx < pw; xx++ {
			r, g, b := f.At(xx, yy) // Frame.At clamps, giving edge padding
			rf, gf, bf := float64(r), float64(g), float64(b)
			i := yy*pw + xx
			y.pix[i] = 0.299*rf + 0.587*gf + 0.114*bf
			cb.pix[i] = 128 - 0.168736*rf - 0.331264*gf + 0.5*bf
			cr.pix[i] = 128 + 0.5*rf - 0.418688*gf - 0.081312*bf
		}
	}
	return y, cb, cr
}

// planesToRGB converts reconstructed planes back to a frame of the original
// (unpadded) geometry.
func planesToRGB(y, cb, cr *plane, w, h int) *vidmodel.Frame {
	f := vidmodel.NewFrame(w, h)
	clamp := func(v float64) byte {
		if v < 0 {
			return 0
		}
		if v > 255 {
			return 255
		}
		return byte(v + 0.5)
	}
	for yy := 0; yy < h; yy++ {
		for xx := 0; xx < w; xx++ {
			i := yy*y.w + xx
			Y, Cb, Cr := y.pix[i], cb.pix[i]-128, cr.pix[i]-128
			f.Set(xx, yy,
				clamp(Y+1.402*Cr),
				clamp(Y-0.344136*Cb-0.714136*Cr),
				clamp(Y+1.772*Cb))
		}
	}
	return f
}

// Encode compresses the video's frames into a CMV1 bitstream. Audio is not
// part of the video elementary stream (as in MPEG systems, it travels
// separately).
func Encode(v *vidmodel.Video, opts Options) ([]byte, error) {
	if len(v.Frames) == 0 {
		return nil, fmt.Errorf("mpeg: no frames to encode")
	}
	gop := opts.GOP
	if gop <= 0 {
		gop = DefaultGOP
	}
	quality := opts.Quality
	if quality <= 0 {
		quality = DefaultQuality
	}
	if quality > 100 {
		quality = 100
	}
	w0, h0 := v.Frames[0].W, v.Frames[0].H
	for i, f := range v.Frames {
		if f.W != w0 || f.H != h0 {
			return nil, fmt.Errorf("mpeg: frame %d geometry %dx%d differs from %dx%d", i, f.W, f.H, w0, h0)
		}
	}

	header := make([]byte, 0, 20)
	header = append(header, magic[:]...)
	header = binary.BigEndian.AppendUint16(header, uint16(w0))
	header = binary.BigEndian.AppendUint16(header, uint16(h0))
	header = binary.BigEndian.AppendUint32(header, uint32(len(v.Frames)))
	header = append(header, byte(gop), byte(quality))
	header = binary.BigEndian.AppendUint32(header, uint32(math.Round(v.FPS*1000)))

	q := quantMatrix(quality)
	w := &bitWriter{}
	var prev [3]*plane
	for fi, frame := range v.Frames {
		y, cb, cr := rgbToPlanes(frame)
		cur := [3]*plane{y, cb, cr}
		intra := fi%gop == 0
		if intra {
			w.writeBit(0)
			for c := 0; c < 3; c++ {
				prev[c] = encodeIntraPlane(w, cur[c], &q)
			}
			continue
		}
		w.writeBit(1)
		for c := 0; c < 3; c++ {
			prev[c] = encodeInterPlane(w, cur[c], prev[c], &q, c == 0)
		}
	}
	return append(header, w.flush()...), nil
}

// encodeIntraPlane writes every block of p as intra and returns the
// reconstructed plane (the encoder must track what the decoder will see).
func encodeIntraPlane(w *bitWriter, p *plane, q *[64]int) *plane {
	recon := newPlane(p.w, p.h)
	prevDC := int64(0)
	for by := 0; by < p.h; by += blockSize {
		for bx := 0; bx < p.w; bx += blockSize {
			levels := transformQuantise(p, bx, by, q, 128)
			w.writeSE(levels[0] - prevDC)
			writeAC(w, &levels)
			prevDC = levels[0]
			reconstructBlock(recon, bx, by, &levels, q, 128, nil)
		}
	}
	return recon
}

// encodeInterPlane writes P-frame blocks: motion-compensated residuals or
// intra fallbacks. Motion vectors are estimated on the luma plane and the
// same grid is used for chroma (4:4:4 makes the geometry identical), as
// flagged per block.
func encodeInterPlane(w *bitWriter, p, ref *plane, q *[64]int, luma bool) *plane {
	_ = luma
	recon := newPlane(p.w, p.h)
	for by := 0; by < p.h; by += blockSize {
		for bx := 0; bx < p.w; bx += blockSize {
			dx, dy, sad := motionSearch(p, ref, bx, by)
			intraCost := blockActivity(p, bx, by)
			if sad <= intraCost {
				w.writeBit(0) // inter
				w.writeSE(int64(dx))
				w.writeSE(int64(dy))
				levels := transformQuantiseResidual(p, ref, bx, by, dx, dy, q)
				w.writeSE(levels[0])
				writeAC(w, &levels)
				mc := motionBlock(ref, bx, by, dx, dy)
				reconstructBlock(recon, bx, by, &levels, q, 0, &mc)
			} else {
				w.writeBit(1) // intra fallback
				levels := transformQuantise(p, bx, by, q, 128)
				w.writeSE(levels[0])
				writeAC(w, &levels)
				reconstructBlock(recon, bx, by, &levels, q, 128, nil)
			}
		}
	}
	return recon
}

// transformQuantise DCTs the block at (bx, by) (bias subtracted first) and
// quantises it, returning levels in raster order.
func transformQuantise(p *plane, bx, by int, q *[64]int, bias float64) [64]int64 {
	var block [64]float64
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			block[y*blockSize+x] = p.at(bx+x, by+y) - bias
		}
	}
	return quantise(forwardDCT(&block), q)
}

func transformQuantiseResidual(p, ref *plane, bx, by, dx, dy int, q *[64]int) [64]int64 {
	var block [64]float64
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			block[y*blockSize+x] = p.at(bx+x, by+y) - ref.at(bx+x+dx, by+y+dy)
		}
	}
	return quantise(forwardDCT(&block), q)
}

func quantise(coef [64]float64, q *[64]int) [64]int64 {
	var out [64]int64
	for i := range coef {
		out[i] = int64(math.Round(coef[i] / float64(q[i])))
	}
	return out
}

// writeAC encodes the 63 AC coefficients as (zero-run, level) pairs in
// zig-zag order, terminated by an end-of-block run sentinel of 63.
func writeAC(w *bitWriter, levels *[64]int64) {
	run := uint64(0)
	for i := 1; i < 64; i++ {
		l := levels[zigzag[i]]
		if l == 0 {
			run++
			continue
		}
		w.writeUE(run)
		w.writeSE(l)
		run = 0
	}
	w.writeUE(63) // EOB: no run of 63 can precede a coefficient
}

// readAC is the inverse of writeAC; the DC slot must already be filled.
func readAC(r *bitReader, levels *[64]int64) error {
	pos := 1
	for {
		run, err := r.readUE()
		if err != nil {
			return err
		}
		if run == 63 {
			return nil
		}
		pos += int(run)
		if pos >= 64 {
			return ErrCorrupt
		}
		l, err := r.readSE()
		if err != nil {
			return err
		}
		levels[zigzag[pos]] = l
		pos++
		if pos > 64 {
			return ErrCorrupt
		}
	}
}

// reconstructBlock dequantises, inverse-transforms and writes the block
// into dst, adding the motion-compensated prediction when mc is non-nil.
func reconstructBlock(dst *plane, bx, by int, levels *[64]int64, q *[64]int, bias float64, mc *[64]float64) {
	var coef [64]float64
	for i := range coef {
		coef[i] = float64(levels[i]) * float64(q[i])
	}
	spatial := inverseDCT(&coef)
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			v := spatial[y*blockSize+x] + bias
			if mc != nil {
				v += mc[y*blockSize+x]
			}
			xx, yy := bx+x, by+y
			if xx < dst.w && yy < dst.h {
				dst.pix[yy*dst.w+xx] = v
			}
		}
	}
}

// motionSearch full-searches ±searchRange for the displacement minimising
// the sum of absolute differences of the block against the reference.
func motionSearch(p, ref *plane, bx, by int) (dx, dy int, best float64) {
	best = math.Inf(1)
	for cy := -searchRange; cy <= searchRange; cy++ {
		for cx := -searchRange; cx <= searchRange; cx++ {
			var sad float64
			for y := 0; y < blockSize && sad < best; y++ {
				for x := 0; x < blockSize; x++ {
					sad += math.Abs(p.at(bx+x, by+y) - ref.at(bx+x+cx, by+y+cy))
				}
			}
			if sad < best {
				best, dx, dy = sad, cx, cy
			}
		}
	}
	return dx, dy, best
}

// blockActivity estimates the intra coding cost of a block as its total
// absolute deviation from the block mean.
func blockActivity(p *plane, bx, by int) float64 {
	var mean float64
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			mean += p.at(bx+x, by+y)
		}
	}
	mean /= blockSize * blockSize
	var act float64
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			act += math.Abs(p.at(bx+x, by+y) - mean)
		}
	}
	return act
}

func motionBlock(ref *plane, bx, by, dx, dy int) [64]float64 {
	var out [64]float64
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			out[y*blockSize+x] = ref.at(bx+x+dx, by+y+dy)
		}
	}
	return out
}
