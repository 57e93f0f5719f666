package mpeg

import (
	"encoding/binary"
	"fmt"

	"classminer/internal/vidmodel"
)

type header struct {
	w, h    int
	frames  int
	gop     int
	quality int
	fps     float64
}

const headerSize = 4 + 2 + 2 + 4 + 1 + 1 + 4

func parseHeader(data []byte) (header, error) {
	var hd header
	if len(data) < headerSize {
		return hd, ErrCorrupt
	}
	for i := range magic {
		if data[i] != magic[i] {
			return hd, fmt.Errorf("mpeg: bad magic %q: %w", data[:4], ErrCorrupt)
		}
	}
	hd.w = int(binary.BigEndian.Uint16(data[4:]))
	hd.h = int(binary.BigEndian.Uint16(data[6:]))
	hd.frames = int(binary.BigEndian.Uint32(data[8:]))
	hd.gop = int(data[12])
	hd.quality = int(data[13])
	hd.fps = float64(binary.BigEndian.Uint32(data[14:])) / 1000
	if hd.w <= 0 || hd.h <= 0 || hd.gop <= 0 || hd.frames < 0 {
		return hd, ErrCorrupt
	}
	return hd, nil
}

// Decode reconstructs a video from a CMV1 bitstream. The returned video has
// no audio track (audio travels outside the video elementary stream).
func Decode(data []byte) (*vidmodel.Video, error) {
	hd, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	q := quantMatrix(hd.quality)
	r := &bitReader{buf: data[headerSize:]}
	v := &vidmodel.Video{Name: "decoded", FPS: hd.fps}
	var prev [3]*plane
	pw, ph := pad8(hd.w), pad8(hd.h)
	for fi := 0; fi < hd.frames; fi++ {
		ft, err := r.readBit()
		if err != nil {
			return nil, err
		}
		var cur [3]*plane
		for c := 0; c < 3; c++ {
			var p *plane
			var err error
			if ft == 0 {
				p, err = decodeIntraPlane(r, pw, ph, &q)
			} else {
				if prev[c] == nil {
					return nil, fmt.Errorf("mpeg: P-frame %d before any I-frame: %w", fi, ErrCorrupt)
				}
				p, err = decodeInterPlane(r, prev[c], &q)
			}
			if err != nil {
				return nil, err
			}
			cur[c] = p
		}
		prev = cur
		v.Frames = append(v.Frames, planesToRGB(cur[0], cur[1], cur[2], hd.w, hd.h))
	}
	return v, nil
}

func decodeIntraPlane(r *bitReader, w, h int, q *[64]int) (*plane, error) {
	p := newPlane(w, h)
	prevDC := int64(0)
	for by := 0; by < h; by += blockSize {
		for bx := 0; bx < w; bx += blockSize {
			var levels [64]int64
			diff, err := r.readSE()
			if err != nil {
				return nil, err
			}
			levels[0] = prevDC + diff
			prevDC = levels[0]
			if err := readAC(r, &levels); err != nil {
				return nil, err
			}
			reconstructBlock(p, bx, by, &levels, q, 128, nil)
		}
	}
	return p, nil
}

func decodeInterPlane(r *bitReader, ref *plane, q *[64]int) (*plane, error) {
	p := newPlane(ref.w, ref.h)
	for by := 0; by < ref.h; by += blockSize {
		for bx := 0; bx < ref.w; bx += blockSize {
			mode, err := r.readBit()
			if err != nil {
				return nil, err
			}
			var levels [64]int64
			if mode == 0 { // inter
				dx64, err := r.readSE()
				if err != nil {
					return nil, err
				}
				dy64, err := r.readSE()
				if err != nil {
					return nil, err
				}
				dc, err := r.readSE()
				if err != nil {
					return nil, err
				}
				levels[0] = dc
				if err := readAC(r, &levels); err != nil {
					return nil, err
				}
				mc := motionBlock(ref, bx, by, int(dx64), int(dy64))
				reconstructBlock(p, bx, by, &levels, q, 0, &mc)
			} else { // intra fallback
				dc, err := r.readSE()
				if err != nil {
					return nil, err
				}
				levels[0] = dc
				if err := readAC(r, &levels); err != nil {
					return nil, err
				}
				reconstructBlock(p, bx, by, &levels, q, 128, nil)
			}
		}
	}
	return p, nil
}
