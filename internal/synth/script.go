package synth

import (
	"math/rand"

	"classminer/internal/vidmodel"
)

// AudioKind selects the non-speech soundtrack of a shot (used when the shot
// has no speaker).
type AudioKind int

const (
	// AudioAmbient is room tone with occasional instrument transients.
	AudioAmbient AudioKind = iota
	// AudioSilence is a near-silent track.
	AudioSilence
	// AudioMusic is sustained intro-style tones.
	AudioMusic
)

// ShotSpec scripts a single camera take.
type ShotSpec struct {
	Cam     Camera
	Frames  int
	Speaker int       // > 0: that speaker talks through the shot
	Audio   AudioKind // soundtrack when Speaker == 0
}

// GroupSpec scripts one video group (a run of related takes).
type GroupSpec struct {
	Shots []ShotSpec
}

// SceneSpec scripts one true semantic unit.
type SceneSpec struct {
	Event     vidmodel.EventKind
	ClusterID int // scenes sharing an ID are recurrences of one setting
	Groups    []GroupSpec
}

// Script is a full video scenario: an ordered list of scenes.
type Script struct {
	Name   string
	Scenes []SceneSpec
}

// paletteFamilies is the pool scene settings draw from. Keeping the pool
// small on purpose makes distinct scenes visually confusable, which is what
// drives scene-detection precision below 1.0 (as in the paper's Fig. 12).
var paletteFamilies = []Palette{
	{BGTop: RGB{70, 90, 120}, BGBottom: RGB{45, 60, 85}, Accent: RGB{60, 70, 110}, Skin: RGB{208, 162, 130}, Hair: RGB{50, 40, 35}},
	{BGTop: RGB{95, 110, 100}, BGBottom: RGB{70, 85, 75}, Accent: RGB{90, 110, 95}, Skin: RGB{196, 150, 120}, Hair: RGB{35, 30, 28}},
	{BGTop: RGB{120, 100, 85}, BGBottom: RGB{95, 78, 65}, Accent: RGB{95, 110, 135}, Skin: RGB{220, 175, 140}, Hair: RGB{90, 70, 50}},
	{BGTop: RGB{60, 110, 115}, BGBottom: RGB{40, 85, 95}, Accent: RGB{55, 120, 130}, Skin: RGB{205, 158, 128}, Hair: RGB{25, 25, 30}},
	{BGTop: RGB{110, 75, 95}, BGBottom: RGB{85, 55, 75}, Accent: RGB{125, 85, 105}, Skin: RGB{214, 168, 135}, Hair: RGB{60, 45, 40}},
}

// surgicalPalette derives an operating-room palette from a family.
func surgicalPalette(base Palette) Palette {
	base.BGTop = RGB{60, 120, 110}
	base.BGBottom = RGB{45, 100, 95}
	base.Accent = RGB{180, 185, 190}
	return base
}

// JitterPalette derives a setting-specific variant of a palette family:
// background and furnishing hues drift while skin tones stay realistic.
// Distinct settings of one family remain related but separable — the
// within-scene/across-scene similarity contrast every scene detector needs.
func JitterPalette(base Palette, rng *rand.Rand) Palette {
	shift := func(c RGB, amp float64) RGB {
		j := func(v byte) byte {
			x := float64(v) + (rng.Float64()*2-1)*amp
			if x < 10 {
				x = 10
			}
			if x > 245 {
				x = 245
			}
			return byte(x)
		}
		return RGB{j(c.R), j(c.G), j(c.B)}
	}
	base.BGTop = avoidSkinChroma(shift(base.BGTop, 36))
	base.BGBottom = avoidSkinChroma(shift(base.BGBottom, 36))
	base.Accent = avoidSkinChroma(shift(base.Accent, 44))
	base.Skin = shift(base.Skin, 7)
	base.Hair = shift(base.Hair, 18)
	return base
}

// avoidSkinChroma nudges a colour off the skin-tone chromaticity manifold
// so that walls and clothing can never be mistaken for skin: real rooms and
// scrubs are not flesh-coloured, and letting jitter wander into that band
// would merge faces with their surroundings.
func avoidSkinChroma(c RGB) RGB {
	sum := float64(c.R) + float64(c.G) + float64(c.B)
	if sum < 30 {
		return c
	}
	nr := float64(c.R) / sum
	ng := float64(c.G) / sum
	if nr > 0.36 && nr < 0.48 && ng > 0.29 && ng < 0.36 {
		if c.B <= 195 {
			c.B += 60
		} else if c.R >= 60 {
			c.R -= 60
		}
	}
	return c
}

func shotLen(rng *rand.Rand, lo, hi int) int { return lo + rng.Intn(hi-lo+1) }

// PresentationScene scripts a presentation: a temporally related group that
// alternates slides with the presenter's face close-up (single speaker, no
// speaker change), optionally followed by a short all-slides group.
// clusterID groups recurrences; speaker is the presenter's voice ID.
func PresentationScene(rng *rand.Rand, family int, clusterID, speaker int) SceneSpec {
	return PresentationSceneWithPalette(rng, paletteFamilies[family%len(paletteFamilies)], clusterID, speaker)
}

// PresentationSceneWithPalette is PresentationScene with an explicit
// setting palette (used by the corpus builder's per-setting jitter).
func PresentationSceneWithPalette(rng *rand.Rand, pal Palette, clusterID, speaker int) SceneSpec {
	slideCam := func(v int) Camera { return Camera{Kind: ContentSlide, Palette: pal, Variant: v} }
	faceCam := Camera{Kind: ContentFace, Palette: pal, Variant: rng.Intn(4), FaceFrac: 0.11 + rng.Float64()*0.08}
	baseVar := rng.Intn(5)
	var g1 GroupSpec
	n := 2 + rng.Intn(2) // slide/face alternations
	for i := 0; i < n; i++ {
		g1.Shots = append(g1.Shots,
			ShotSpec{Cam: slideCam(baseVar + i), Frames: shotLen(rng, 24, 48), Speaker: speaker},
			ShotSpec{Cam: faceCam, Frames: shotLen(rng, 23, 38), Speaker: speaker},
		)
	}
	g1.Shots = append(g1.Shots, ShotSpec{Cam: slideCam(baseVar + n), Frames: shotLen(rng, 24, 42), Speaker: speaker})
	spec := SceneSpec{Event: vidmodel.EventPresentation, ClusterID: clusterID, Groups: []GroupSpec{g1}}
	if rng.Float64() < 0.5 {
		var g2 GroupSpec
		for i := 0; i < 2+rng.Intn(2); i++ {
			g2.Shots = append(g2.Shots, ShotSpec{Cam: slideCam(baseVar + n + 1 + i), Frames: shotLen(rng, 23, 40), Speaker: speaker})
		}
		spec.Groups = append(spec.Groups, g2)
	}
	return spec
}

// DialogScene scripts a shot/reverse-shot conversation between speakers a
// and b: the alternating cameras form a temporally related group with a
// speaker change at every face-to-face cut.
func DialogScene(rng *rand.Rand, family int, clusterID, a, b int) SceneSpec {
	return DialogSceneWithPalette(rng, paletteFamilies[family%len(paletteFamilies)], clusterID, a, b)
}

// DialogSceneWithPalette is DialogScene with an explicit setting palette.
func DialogSceneWithPalette(rng *rand.Rand, pal Palette, clusterID, a, b int) SceneSpec {
	camA := Camera{Kind: ContentFace, Palette: pal, Variant: 0, FaceFrac: 0.12 + rng.Float64()*0.07}
	// Reverse angle: same room family, visibly different wall shade,
	// furniture layout and clothing.
	palB := pal
	palB.BGTop = lerp(pal.BGBottom, RGB{30, 30, 35}, 0.35)
	palB.BGBottom = lerp(pal.BGTop, RGB{15, 15, 20}, 0.35)
	palB.Accent = lerp(pal.Accent, RGB{200, 200, 205}, 0.5)
	camB := Camera{Kind: ContentFace, Palette: palB, Variant: 2, FaceFrac: 0.12 + rng.Float64()*0.07}
	var g GroupSpec
	n := 2 + rng.Intn(2) // A/B rounds; every speaker appears ≥ 2 times
	for i := 0; i < n; i++ {
		g.Shots = append(g.Shots,
			ShotSpec{Cam: camA, Frames: shotLen(rng, 23, 40), Speaker: a},
			ShotSpec{Cam: camB, Frames: shotLen(rng, 23, 40), Speaker: b},
		)
	}
	g.Shots = append(g.Shots, ShotSpec{Cam: camA, Frames: shotLen(rng, 23, 34), Speaker: a})
	spec := SceneSpec{Event: vidmodel.EventDialog, ClusterID: clusterID, Groups: []GroupSpec{g}}
	if rng.Float64() < 0.35 {
		// A wider two-shot coda group.
		wide := Camera{Kind: ContentFace, Palette: pal, Variant: 3, FaceFrac: 0.06}
		spec.Groups = append(spec.Groups, GroupSpec{Shots: []ShotSpec{
			{Cam: wide, Frames: shotLen(rng, 23, 32), Speaker: a},
			{Cam: wide, Frames: shotLen(rng, 23, 32), Speaker: b},
		}})
	}
	return spec
}

// OperationScene scripts a clinical operation: surgical-field, organ or
// skin-exam shots with ambient sound or one narrator (never a speaker
// change). kind selects the dominant content.
func OperationScene(rng *rand.Rand, family int, clusterID int, kind ContentKind, narrator int) SceneSpec {
	return OperationSceneWithPalette(rng, paletteFamilies[family%len(paletteFamilies)], clusterID, kind, narrator)
}

// OperationSceneWithPalette is OperationScene with an explicit setting
// palette (the surgical drape derivation still applies).
func OperationSceneWithPalette(rng *rand.Rand, base Palette, clusterID int, kind ContentKind, narrator int) SceneSpec {
	pal := surgicalPalette(base)
	mk := func(variant int, blood bool) Camera {
		return Camera{
			Kind: kind, Palette: pal, Variant: variant,
			SkinFrac: 0.22 + rng.Float64()*0.25,
			Blood:    blood,
			Pan:      0.15 + rng.Float64()*0.3,
		}
	}
	var groups []GroupSpec
	nGroups := 1 + rng.Intn(2)
	for gi := 0; gi < nGroups; gi++ {
		var g GroupSpec
		nShots := 3 + rng.Intn(3)
		for si := 0; si < nShots; si++ {
			blood := kind != ContentSkinExam && rng.Float64() < 0.6
			sp := ShotSpec{Cam: mk(gi*4+si, blood), Frames: shotLen(rng, 23, 45)}
			if narrator > 0 {
				sp.Speaker = narrator
			} else {
				sp.Audio = AudioAmbient
			}
			g.Shots = append(g.Shots, sp)
		}
		groups = append(groups, g)
	}
	return SceneSpec{Event: vidmodel.EventClinicalOperation, ClusterID: clusterID, Groups: groups}
}

// EstablishingScene scripts a neutral connective scene with no event cues.
func EstablishingScene(rng *rand.Rand, family int, clusterID int) SceneSpec {
	return EstablishingSceneWithPalette(rng, paletteFamilies[family%len(paletteFamilies)], clusterID)
}

// EstablishingSceneWithPalette is EstablishingScene with an explicit
// setting palette.
func EstablishingSceneWithPalette(rng *rand.Rand, pal Palette, clusterID int) SceneSpec {
	var g GroupSpec
	for i := 0; i < 3+rng.Intn(2); i++ {
		cam := Camera{Kind: ContentEstablishing, Palette: pal, Variant: i, Pan: 0.2}
		g.Shots = append(g.Shots, ShotSpec{Cam: cam, Frames: shotLen(rng, 23, 38), Audio: AudioAmbient})
	}
	return SceneSpec{Event: vidmodel.EventUnknown, ClusterID: clusterID, Groups: []GroupSpec{g}}
}
