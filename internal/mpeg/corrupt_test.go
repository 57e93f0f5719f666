package mpeg

import (
	"math/rand"
	"testing"
)

// Failure injection: no corruption of a valid stream may ever panic the
// decoder — it must return an error (or, for payload bit flips, possibly
// garbage pixels, but never crash).
func TestDecodeSurvivesTruncation(t *testing.T) {
	v := testVideo(32, 24, 12, 41)
	data, err := Encode(v, Options{GOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut += 7 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decoder panicked at truncation %d: %v", cut, r)
				}
			}()
			_, _ = Decode(data[:cut])
		}()
	}
}

func TestDecodeSurvivesBitFlips(t *testing.T) {
	v := testVideo(32, 24, 8, 43)
	data, err := Encode(v, Options{GOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 200; trial++ {
		corrupt := append([]byte(nil), data...)
		// Flip up to three payload bits (the header is validated separately).
		for k := 0; k < 1+rng.Intn(3); k++ {
			pos := headerSize + rng.Intn(len(corrupt)-headerSize)
			corrupt[pos] ^= 1 << uint(rng.Intn(8))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decoder panicked on bit flip trial %d: %v", trial, r)
				}
			}()
			_, _ = Decode(corrupt)
		}()
	}
}

func TestDecodeHeaderValidation(t *testing.T) {
	v := testVideo(16, 16, 4, 45)
	data, err := Encode(v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Zero width must be rejected.
	bad := append([]byte(nil), data...)
	bad[4], bad[5] = 0, 0
	if _, err := Decode(bad); err == nil {
		t.Fatal("want geometry error")
	}
	// Zero GOP must be rejected.
	bad = append([]byte(nil), data...)
	bad[12] = 0
	if _, err := Decode(bad); err == nil {
		t.Fatal("want GOP error")
	}
}
