package mpeg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"classminer/internal/vidmodel"
)

// testVideo builds a short clip with two visually distinct halves and slow
// in-shot motion, which exercises I-frames, inter blocks and intra
// fallbacks at the cut.
func testVideo(w, h, frames int, seed int64) *vidmodel.Video {
	rng := rand.New(rand.NewSource(seed))
	v := &vidmodel.Video{Name: "test", FPS: 10}
	for t := 0; t < frames; t++ {
		f := vidmodel.NewFrame(w, h)
		base := byte(40)
		if t >= frames/2 {
			base = 200 // hard cut halfway
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				// A drifting diagonal pattern plus mild noise.
				val := int(base) + 40*((x+y+t)%8)/8 + rng.Intn(6)
				if val > 255 {
					val = 255
				}
				f.Set(x, y, byte(val), byte(val/2+30), byte(255-val))
			}
		}
		v.Frames = append(v.Frames, f)
	}
	return v
}

func psnr(a, b *vidmodel.Frame) float64 {
	var mse float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		mse += d * d
	}
	mse /= float64(len(a.Pix))
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	v := testVideo(48, 36, 20, 1)
	data, err := Encode(v, Options{GOP: 8, Quality: 85})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Frames) != len(v.Frames) {
		t.Fatalf("decoded %d frames, want %d", len(dec.Frames), len(v.Frames))
	}
	if dec.FPS != v.FPS {
		t.Fatalf("fps = %v, want %v", dec.FPS, v.FPS)
	}
	for i := range v.Frames {
		if p := psnr(v.Frames[i], dec.Frames[i]); p < 28 {
			t.Fatalf("frame %d PSNR = %.1f dB, want >= 28", i, p)
		}
	}
}

func TestEncodeQualityOrdersPSNRAndSize(t *testing.T) {
	v := testVideo(48, 36, 10, 2)
	lo, err := Encode(v, Options{Quality: 20})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Encode(v, Options{Quality: 95})
	if err != nil {
		t.Fatal(err)
	}
	if len(hi) <= len(lo) {
		t.Fatalf("high quality stream (%d B) should exceed low quality (%d B)", len(hi), len(lo))
	}
	dLo, _ := Decode(lo)
	dHi, _ := Decode(hi)
	var pLo, pHi float64
	for i := range v.Frames {
		pLo += psnr(v.Frames[i], dLo.Frames[i])
		pHi += psnr(v.Frames[i], dHi.Frames[i])
	}
	if pHi <= pLo {
		t.Fatalf("high quality PSNR (%f) should exceed low quality (%f)", pHi, pLo)
	}
}

func TestEncodeCompresses(t *testing.T) {
	v := testVideo(48, 36, 24, 3)
	data, err := Encode(v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw := len(v.Frames) * 48 * 36 * 3
	if len(data) >= raw {
		t.Fatalf("stream %d B not smaller than raw %d B", len(data), raw)
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, err := Encode(&vidmodel.Video{}, Options{}); err == nil {
		t.Fatal("want error on empty video")
	}
	v := &vidmodel.Video{Frames: []*vidmodel.Frame{vidmodel.NewFrame(8, 8), vidmodel.NewFrame(16, 8)}}
	if _, err := Encode(v, Options{}); err == nil {
		t.Fatal("want error on mixed geometry")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("want error on empty stream")
	}
	if _, err := Decode([]byte("XXXXXXXXXXXXXXXXXXXX")); err == nil {
		t.Fatal("want error on bad magic")
	}
	v := testVideo(16, 16, 4, 4)
	data, err := Encode(v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data[:len(data)/2]); err == nil {
		t.Fatal("want error on truncated stream")
	}
}

func TestNonMultipleOf8Geometry(t *testing.T) {
	v := testVideo(50, 37, 6, 5) // forces edge padding
	data, err := Encode(v, Options{Quality: 80})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Frames[0].W != 50 || dec.Frames[0].H != 37 {
		t.Fatalf("geometry = %dx%d, want 50x37", dec.Frames[0].W, dec.Frames[0].H)
	}
}

func TestExpGolombRoundTrip(t *testing.T) {
	f := func(vals [16]int32) bool {
		w := &bitWriter{}
		for _, v := range vals {
			w.writeSE(int64(v))
			w.writeUE(uint64(uint32(v)))
		}
		r := &bitReader{buf: w.flush()}
		for _, v := range vals {
			got, err := r.readSE()
			if err != nil || got != int64(v) {
				return false
			}
			gotU, err := r.readUE()
			if err != nil || gotU != uint64(uint32(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitWriterReaderBits(t *testing.T) {
	w := &bitWriter{}
	w.writeBits(0b1011, 4)
	w.writeBits(0b1, 1)
	w.writeBits(0xABCD, 16)
	r := &bitReader{buf: w.flush()}
	if v, _ := r.readBits(4); v != 0b1011 {
		t.Fatalf("readBits(4) = %b", v)
	}
	if v, _ := r.readBit(); v != 1 {
		t.Fatal("readBit")
	}
	if v, _ := r.readBits(16); v != 0xABCD {
		t.Fatalf("readBits(16) = %x", v)
	}
}

func TestDCTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var block [64]float64
	for i := range block {
		block[i] = rng.Float64()*255 - 128
	}
	coef := forwardDCT(&block)
	back := inverseDCT(&coef)
	for i := range block {
		if math.Abs(block[i]-back[i]) > 1e-9 {
			t.Fatalf("DCT round trip error %v at %d", block[i]-back[i], i)
		}
	}
}

func TestQuantMatrixClamps(t *testing.T) {
	for _, q := range []int{-5, 0, 1, 50, 100, 500} {
		m := quantMatrix(q)
		for _, v := range m {
			if v < 1 || v > 255 {
				t.Fatalf("quant value %d out of range at quality %d", v, q)
			}
		}
	}
}

func TestZigzagIsPermutation(t *testing.T) {
	seen := [64]bool{}
	for _, z := range zigzag {
		if z < 0 || z >= 64 || seen[z] {
			t.Fatalf("zigzag entry %d invalid", z)
		}
		seen[z] = true
	}
}

func BenchmarkEncode(b *testing.B) {
	v := testVideo(48, 36, 24, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(v, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
