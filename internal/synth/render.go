package synth

import (
	"math"
	"math/rand"

	"classminer/internal/vidmodel"
)

// RGB is a plain 8-bit colour triple used by palettes and the renderer.
type RGB struct{ R, G, B byte }

// lerp blends two colours; t ∈ [0,1].
func lerp(a, b RGB, t float64) RGB {
	f := func(x, y byte) byte { return byte(float64(x) + (float64(y)-float64(x))*t) }
	return RGB{f(a.R, b.R), f(a.G, b.G), f(a.B, b.B)}
}

// fillRect paints an axis-aligned rectangle; coordinates are clamped.
func fillRect(f *vidmodel.Frame, x0, y0, x1, y1 int, c RGB) {
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > f.W {
		x1 = f.W
	}
	if y1 > f.H {
		y1 = f.H
	}
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			f.Set(x, y, c.R, c.G, c.B)
		}
	}
}

// fillEllipse paints a filled ellipse centred at (cx, cy) with radii rx, ry.
func fillEllipse(f *vidmodel.Frame, cx, cy, rx, ry float64, c RGB) {
	if rx <= 0 || ry <= 0 {
		return
	}
	x0, x1 := int(cx-rx), int(cx+rx)+1
	y0, y1 := int(cy-ry), int(cy+ry)+1
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			dx := (float64(x) - cx) / rx
			dy := (float64(y) - cy) / ry
			if dx*dx+dy*dy <= 1 {
				f.Set(x, y, c.R, c.G, c.B)
			}
		}
	}
}

// vGradient paints a vertical gradient from top to bottom colour.
func vGradient(f *vidmodel.Frame, top, bottom RGB) {
	for y := 0; y < f.H; y++ {
		t := float64(y) / float64(f.H-1)
		c := lerp(top, bottom, t)
		for x := 0; x < f.W; x++ {
			f.Set(x, y, c.R, c.G, c.B)
		}
	}
}

// addNoise perturbs every pixel by up to amp per channel.
func addNoise(f *vidmodel.Frame, amp float64, rng *rand.Rand) {
	if amp <= 0 {
		return
	}
	for i := range f.Pix {
		x := float64(f.Pix[i]) + (rng.Float64()*2-1)*amp
		if x < 0 {
			x = 0
		}
		if x > 255 {
			x = 255
		}
		f.Pix[i] = byte(x)
	}
}

// textBars draws n dark horizontal bars starting at row y — the synthetic
// stand-in for slide body text. Bar lengths vary with the variant so that
// different slides are distinguishable but share a look.
func textBars(f *vidmodel.Frame, y, n, variant int, ink RGB) {
	lineH := 2
	gap := 2
	for i := 0; i < n; i++ {
		rowY := y + i*(lineH+gap)
		width := f.W*2/3 + ((variant+i*3)%5)*f.W/24
		if width > f.W-4 {
			width = f.W - 4
		}
		fillRect(f, 3, rowY, 3+width, rowY+lineH, ink)
	}
}

// drawFaceAt renders a frontal head-and-shoulders figure whose face
// occupies roughly sizeFrac of the frame area, centred at the horizontal
// fraction xFrac of the frame. The face is an upright skin-tone ellipse
// with hair, eyes and a mouth — enough structure for the skin model, shape
// analysis and template-curve verification of §4.1 to operate on. bob
// shifts the head vertically (talking motion).
func drawFaceAt(f *vidmodel.Frame, skin, hair, clothes RGB, sizeFrac, bob, xFrac float64) {
	w, h := float64(f.W), float64(f.H)
	// Face area = π·rx·ry ≈ sizeFrac·w·h with aspect ry = 1.3·rx.
	rx := math.Sqrt(sizeFrac * w * h / (math.Pi * 1.3))
	ry := 1.3 * rx
	cx, cy := w*xFrac, h*0.42+bob
	// Shoulders.
	fillRect(f, int(cx-rx*2.2), int(cy+ry*0.8), int(cx+rx*2.2), f.H, clothes)
	// Hair cap slightly larger than the face, drawn first.
	fillEllipse(f, cx, cy-ry*0.15, rx*1.1, ry*1.05, hair)
	// Face.
	fillEllipse(f, cx, cy, rx, ry, skin)
	// Eyes and mouth proportional to the face.
	eyeR := math.Max(rx*0.14, 0.6)
	dark := RGB{30, 25, 25}
	fillEllipse(f, cx-rx*0.4, cy-ry*0.15, eyeR, eyeR, dark)
	fillEllipse(f, cx+rx*0.4, cy-ry*0.15, eyeR, eyeR, dark)
	fillRect(f, int(cx-rx*0.35), int(cy+ry*0.45), int(cx+rx*0.35), int(cy+ry*0.45)+1, RGB{120, 60, 60})
}
