package mediaio

import (
	"bytes"
	"encoding/binary"
	"image/png"
	"math"
	"math/rand"
	"testing"

	"classminer/internal/vidmodel"
)

func TestPNGRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := vidmodel.NewFrame(17, 11)
	for i := range f.Pix {
		f.Pix[i] = byte(rng.Intn(256))
	}
	var buf bytes.Buffer
	if err := WritePNG(&buf, f); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b := img.Bounds(); b.Dx() != f.W || b.Dy() != f.H {
		t.Fatalf("geometry %dx%d, want %dx%d", b.Dx(), b.Dy(), f.W, f.H)
	}
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			r, g, b, a := img.At(x, y).RGBA()
			wr, wg, wb := f.At(x, y)
			if byte(r>>8) != wr || byte(g>>8) != wg || byte(b>>8) != wb || a != 0xffff {
				t.Fatalf("pixel (%d,%d) = %d,%d,%d,%d, want %d,%d,%d opaque", x, y, r>>8, g>>8, b>>8, a>>8, wr, wg, wb)
			}
		}
	}
}

func TestPNGErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePNG(&buf, nil); err == nil {
		t.Fatal("want nil-frame error")
	}
}

// parseWAV checks the 44-byte header WriteWAV writes — RIFF/WAVE, one PCM
// channel of 16-bit samples, and sizes that match the data — and decodes
// the samples.
func parseWAV(t *testing.T, b []byte) (rate int, samples []float64) {
	t.Helper()
	if len(b) < 44 {
		t.Fatalf("WAV is %d bytes, shorter than its header", len(b))
	}
	le := binary.LittleEndian
	dataLen := le.Uint32(b[40:])
	switch {
	case string(b[0:4]) != "RIFF" || string(b[8:12]) != "WAVE":
		t.Fatalf("magic %q %q", b[0:4], b[8:12])
	case string(b[12:16]) != "fmt " || le.Uint32(b[16:]) != 16 || string(b[36:40]) != "data":
		t.Fatalf("chunks %q (size %d) and %q", b[12:16], le.Uint32(b[16:]), b[36:40])
	case le.Uint16(b[20:]) != 1 || le.Uint16(b[22:]) != 1 || le.Uint16(b[34:]) != 16:
		t.Fatalf("format %d, channels %d, bits %d; want PCM, mono, 16", le.Uint16(b[20:]), le.Uint16(b[22:]), le.Uint16(b[34:]))
	case le.Uint32(b[28:]) != 2*le.Uint32(b[24:]) || le.Uint16(b[32:]) != 2:
		t.Fatalf("byte rate %d, block align %d for rate %d", le.Uint32(b[28:]), le.Uint16(b[32:]), le.Uint32(b[24:]))
	case le.Uint32(b[4:]) != 36+dataLen || int(dataLen) != len(b)-44:
		t.Fatalf("RIFF size %d, data size %d, for %d bytes", le.Uint32(b[4:]), dataLen, len(b))
	}
	for i := 44; i+1 < len(b); i += 2 {
		samples = append(samples, float64(int16(le.Uint16(b[i:])))/32767)
	}
	return int(le.Uint32(b[24:])), samples
}

func TestWAVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := &vidmodel.AudioTrack{SampleRate: 8000}
	for i := 0; i < 4000; i++ {
		a.Samples = append(a.Samples, math.Sin(float64(i)*0.05)*0.8+rng.Float64()*0.01)
	}
	var buf bytes.Buffer
	if err := WriteWAV(&buf, a); err != nil {
		t.Fatal(err)
	}
	rate, samples := parseWAV(t, buf.Bytes())
	if rate != 8000 {
		t.Fatalf("sample rate = %d", rate)
	}
	if len(samples) != len(a.Samples) {
		t.Fatalf("samples = %d, want %d", len(samples), len(a.Samples))
	}
	for i := range a.Samples {
		if math.Abs(a.Samples[i]-samples[i]) > 1.0/32000 {
			t.Fatalf("sample %d: %v vs %v", i, a.Samples[i], samples[i])
		}
	}
}

func TestWAVClipsOutOfRange(t *testing.T) {
	a := &vidmodel.AudioTrack{SampleRate: 8000, Samples: []float64{2.5, -3.0}}
	var buf bytes.Buffer
	if err := WriteWAV(&buf, a); err != nil {
		t.Fatal(err)
	}
	_, samples := parseWAV(t, buf.Bytes())
	if samples[0] < 0.99 || samples[1] > -0.99 {
		t.Fatalf("clipping failed: %v", samples)
	}
}

func TestWAVErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWAV(&buf, nil); err == nil {
		t.Fatal("want nil-track error")
	}
	if err := WriteWAV(&buf, &vidmodel.AudioTrack{}); err == nil {
		t.Fatal("want zero-sample-rate error")
	}
}
