// Package skim implements the scalable video skimming tool of §5: four
// skimming layers of increasing granularity (level 4 = representative shots
// of clustered scenes, level 3 = of all scenes, level 2 = of all groups,
// level 1 = every shot), the frame-compression-ratio measure of Fig. 15,
// and the event colour bar that lets a viewer jump to scenes by category.
package skim

import (
	"fmt"
	"sort"
	"strings"

	"classminer/internal/vidmodel"
)

// Level indexes the four skimming layers; granularity increases from
// Level4 (coarsest overview) down to Level1 (every shot).
type Level int

// The four layers of the §5 prototype.
const (
	Level1 Level = 1 // all shots
	Level2 Level = 2 // representative shots of all groups
	Level3 Level = 3 // representative shots of all scenes
	Level4 Level = 4 // representative shots of clustered scenes
)

// Skim is a built scalable skimming of one video.
type Skim struct {
	TotalFrames int
	TotalShots  int
	levels      map[Level][]*vidmodel.Shot
	scenes      []*vidmodel.Scene
}

// Build assembles the four skimming layers from the mined content
// structure. scenes must have representative groups; clusters must carry
// centroid groups.
func Build(shots []*vidmodel.Shot, groups []*vidmodel.Group, scenes []*vidmodel.Scene, clusters []*vidmodel.ClusteredScene, totalFrames int) (*Skim, error) {
	if len(shots) == 0 {
		return nil, fmt.Errorf("skim: no shots")
	}
	s := &Skim{
		TotalFrames: totalFrames,
		TotalShots:  len(shots),
		levels:      map[Level][]*vidmodel.Shot{},
		scenes:      scenes,
	}
	s.levels[Level1] = sortShots(shots)

	var l2 []*vidmodel.Shot
	for _, g := range groups {
		l2 = append(l2, repShotsOf(g)...)
	}
	s.levels[Level2] = sortShots(dedup(l2))

	var l3 []*vidmodel.Shot
	for _, sc := range scenes {
		if sc.RepGroup != nil {
			l3 = append(l3, repShotsOf(sc.RepGroup)...)
		}
	}
	s.levels[Level3] = sortShots(dedup(l3))

	var l4 []*vidmodel.Shot
	for _, c := range clusters {
		if c.RepGroup != nil {
			l4 = append(l4, repShotsOf(c.RepGroup)...)
		}
	}
	s.levels[Level4] = sortShots(dedup(l4))
	return s, nil
}

// repShotsOf returns a group's representative shots, falling back to its
// first shot when classification has not run.
func repShotsOf(g *vidmodel.Group) []*vidmodel.Shot {
	if len(g.RepShots) > 0 {
		return g.RepShots
	}
	if len(g.Shots) > 0 {
		return g.Shots[:1]
	}
	return nil
}

func dedup(shots []*vidmodel.Shot) []*vidmodel.Shot {
	seen := map[*vidmodel.Shot]bool{}
	out := shots[:0]
	for _, s := range shots {
		if s != nil && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func sortShots(shots []*vidmodel.Shot) []*vidmodel.Shot {
	out := append([]*vidmodel.Shot(nil), shots...)
	sort.Slice(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// Shots returns the skimming shots of a level in playback order. Unknown
// levels clamp into [Level1, Level4].
func (s *Skim) Shots(l Level) []*vidmodel.Shot {
	if l < Level1 {
		l = Level1
	}
	if l > Level4 {
		l = Level4
	}
	return s.levels[l]
}

// FCR is the frame compression ratio of Fig. 15: frames included in the
// level's skimming shots over all frames of the video.
func (s *Skim) FCR(l Level) float64 {
	if s.TotalFrames == 0 {
		return 0
	}
	var frames int
	for _, shot := range s.Shots(l) {
		frames += shot.Len()
	}
	return float64(frames) / float64(s.TotalFrames)
}

// eventGlyphs drives the colour bar; each event category renders as one
// glyph so the bar shows the content structure of the video (Fig. 11).
var eventGlyphs = map[vidmodel.EventKind]rune{
	vidmodel.EventPresentation:      'P',
	vidmodel.EventDialog:            'D',
	vidmodel.EventClinicalOperation: 'C',
	vidmodel.EventUnknown:           '.',
}

// ColorBar renders the event indicator bar of the skimming tool at the
// given character width: each column shows the event category of the scene
// owning that slice of the timeline ('-' for frames outside any scene).
func (s *Skim) ColorBar(width int) string {
	if width <= 0 || s.TotalFrames == 0 {
		return ""
	}
	var b strings.Builder
	for col := 0; col < width; col++ {
		frame := col * s.TotalFrames / width
		glyph := '-'
		for _, sc := range s.scenes {
			first, last := sc.FrameSpan()
			if frame >= first && frame < last {
				glyph = eventGlyphs[sc.Event]
				break
			}
		}
		b.WriteRune(glyph)
	}
	return b.String()
}

// Describe prints a one-line summary per level, for CLI output.
func (s *Skim) Describe() string {
	var b strings.Builder
	for l := Level4; l >= Level1; l-- {
		fmt.Fprintf(&b, "level %d: %3d shots, FCR %.3f\n", l, len(s.Shots(l)), s.FCR(l))
	}
	return b.String()
}
