// Package mediaio writes the internal media model in standard interchange
// formats: PNG for frames (storyboards, skim keyframes) and WAV (PCM16) for
// audio tracks. It is the bridge between the synthetic substrate and
// external tools.
package mediaio

import (
	"encoding/binary"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"

	"classminer/internal/vidmodel"
)

// WritePNG encodes a frame as PNG.
func WritePNG(w io.Writer, f *vidmodel.Frame) error {
	if f == nil || f.W <= 0 || f.H <= 0 {
		return fmt.Errorf("mediaio: empty frame")
	}
	img := image.NewRGBA(image.Rect(0, 0, f.W, f.H))
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			r, g, b := f.At(x, y)
			img.SetRGBA(x, y, color.RGBA{R: r, G: g, B: b, A: 255})
		}
	}
	return png.Encode(w, img)
}

// WriteWAV encodes a mono audio track as 16-bit PCM WAV.
func WriteWAV(w io.Writer, a *vidmodel.AudioTrack) error {
	if a == nil || a.SampleRate <= 0 {
		return fmt.Errorf("mediaio: invalid audio track")
	}
	dataLen := uint32(len(a.Samples) * 2)
	var header []byte
	header = append(header, "RIFF"...)
	header = binary.LittleEndian.AppendUint32(header, 36+dataLen)
	header = append(header, "WAVE"...)
	header = append(header, "fmt "...)
	header = binary.LittleEndian.AppendUint32(header, 16)
	header = binary.LittleEndian.AppendUint16(header, 1) // PCM
	header = binary.LittleEndian.AppendUint16(header, 1) // mono
	header = binary.LittleEndian.AppendUint32(header, uint32(a.SampleRate))
	header = binary.LittleEndian.AppendUint32(header, uint32(a.SampleRate*2)) // byte rate
	header = binary.LittleEndian.AppendUint16(header, 2)                      // block align
	header = binary.LittleEndian.AppendUint16(header, 16)                     // bits
	header = append(header, "data"...)
	header = binary.LittleEndian.AppendUint32(header, dataLen)
	if _, err := w.Write(header); err != nil {
		return err
	}
	buf := make([]byte, 2*len(a.Samples))
	for i, s := range a.Samples {
		v := s
		if v > 1 {
			v = 1
		}
		if v < -1 {
			v = -1
		}
		binary.LittleEndian.PutUint16(buf[i*2:], uint16(int16(v*32767)))
	}
	_, err := w.Write(buf)
	return err
}
