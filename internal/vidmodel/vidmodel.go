// Package vidmodel defines the media model shared by the whole system:
// raster frames, audio tracks, videos, and the four structural units of the
// paper's Definition 2 — shots, groups, scenes and clustered scenes — plus
// the ground-truth annotations the synthetic generator emits for evaluation.
//
// The mining pipeline consumes only Video (pixels + samples); GroundTruth is
// visible exclusively to the evaluation harness.
package vidmodel

import (
	"fmt"

	"classminer/internal/featrow"
)

// Frame is a small dense RGB raster. Pixels are stored row-major, three
// bytes per pixel (R, G, B). Frames are deliberately tiny (the default
// corpus uses 48×36) so that a six-hour-equivalent corpus can be rendered
// and mined on one CPU; every detector in the system is resolution-free.
type Frame struct {
	W, H int
	Pix  []byte // len = W*H*3
}

// NewFrame allocates a black frame of the given geometry.
func NewFrame(w, h int) *Frame {
	return &Frame{W: w, H: h, Pix: make([]byte, w*h*3)}
}

// At returns the pixel at (x, y). Out-of-range coordinates are clamped,
// which simplifies the window-based texture code.
func (f *Frame) At(x, y int) (r, g, b byte) {
	if x < 0 {
		x = 0
	}
	if y < 0 {
		y = 0
	}
	if x >= f.W {
		x = f.W - 1
	}
	if y >= f.H {
		y = f.H - 1
	}
	i := (y*f.W + x) * 3
	return f.Pix[i], f.Pix[i+1], f.Pix[i+2]
}

// Set writes the pixel at (x, y); out-of-range writes are ignored.
func (f *Frame) Set(x, y int, r, g, b byte) {
	if x < 0 || y < 0 || x >= f.W || y >= f.H {
		return
	}
	i := (y*f.W + x) * 3
	f.Pix[i], f.Pix[i+1], f.Pix[i+2] = r, g, b
}

// Clone returns a deep copy of the frame.
func (f *Frame) Clone() *Frame {
	return &Frame{W: f.W, H: f.H, Pix: append([]byte(nil), f.Pix...)}
}

// Gray returns the luma (0..255) of pixel (x, y) using the BT.601 weights.
func (f *Frame) Gray(x, y int) float64 {
	r, g, b := f.At(x, y)
	return 0.299*float64(r) + 0.587*float64(g) + 0.114*float64(b)
}

// AudioTrack is a mono PCM stream aligned with the frame sequence.
type AudioTrack struct {
	SampleRate int       // samples per second
	Samples    []float64 // amplitude in [-1, 1]
}

// SamplesPerFrame returns how many audio samples correspond to one video
// frame at the given frame rate.
func (a *AudioTrack) SamplesPerFrame(fps float64) int {
	if fps <= 0 {
		return 0
	}
	return int(float64(a.SampleRate) / fps)
}

// Slice returns the samples covering video frames [from, to) at fps.
// The result aliases the underlying track.
func (a *AudioTrack) Slice(from, to int, fps float64) []float64 {
	spf := a.SamplesPerFrame(fps)
	lo := from * spf
	hi := to * spf
	if lo < 0 {
		lo = 0
	}
	if hi > len(a.Samples) {
		hi = len(a.Samples)
	}
	if lo >= hi {
		return nil
	}
	return a.Samples[lo:hi]
}

// Video is a decoded media document: frames plus an aligned audio track.
type Video struct {
	Name   string
	FPS    float64
	Frames []*Frame
	Audio  *AudioTrack
	Truth  *GroundTruth // nil for non-synthetic sources
}

// Shot is the paper's physical unit Si: a run of frames from a single
// continuous camera take (§3, Definition 2).
type Shot struct {
	Index    int       // position in the shot sequence
	Start    int       // first frame (inclusive)
	End      int       // last frame (exclusive)
	RepFrame int       // index of the representative frame (the 10th, clamped)
	Color    []float64 // 256-dim normalised HSV histogram of the rep frame
	Texture  []float64 // 10-dim Tamura coarseness vector of the rep frame
	// Row holds the feature zero-suppressed once a library has registered
	// the shot, or when the shot was decoded from a stored entry or an
	// ingest body; Color and Texture are nil then.
	Row featrow.Row
}

// Len returns the shot length in frames.
func (s *Shot) Len() int { return s.End - s.Start }

// Feature returns the concatenated 266-dim descriptor used by the database
// index (colour followed by texture).
func (s *Shot) Feature() []float64 {
	return s.AppendFeature(make([]float64, 0, s.FeatureLen()))
}

// AppendFeature appends the shot's descriptor, colour then texture, to dst,
// unpacking a registered shot's row.
func (s *Shot) AppendFeature(dst []float64) []float64 {
	if !s.Row.IsZero() {
		return s.Row.AppendTo(dst)
	}
	return append(append(dst, s.Color...), s.Texture...)
}

// FeatureDims returns the lengths of the descriptor's colour and texture
// parts, packed or not.
func (s *Shot) FeatureDims() (color, texture int) {
	if !s.Row.IsZero() {
		return s.Row.Dims()
	}
	return len(s.Color), len(s.Texture)
}

// FeatureLen is the descriptor's dimensionality.
func (s *Shot) FeatureLen() int {
	c, t := s.FeatureDims()
	return c + t
}

// GroupKind distinguishes the two ways shots are absorbed into a group
// (§3.2.1).
type GroupKind int

const (
	// GroupSpatial marks a group whose shots are all mutually similar in
	// visual features.
	GroupSpatial GroupKind = iota
	// GroupTemporal marks a group whose similar shots recur back and forth
	// in time (e.g. a dialog's alternating cameras).
	GroupTemporal
)

func (k GroupKind) String() string {
	if k == GroupTemporal {
		return "temporal"
	}
	return "spatial"
}

// Group is the intermediate entity Gi between physical shots and semantic
// scenes (§3, Definition 2).
type Group struct {
	Index    int
	Shots    []*Shot
	Kind     GroupKind
	RepShots []*Shot // one representative per intra-group cluster (§3.2.1)
}

// FrameSpan returns the first and one-past-last frame indices of the group.
func (g *Group) FrameSpan() (first, last int) {
	if len(g.Shots) == 0 {
		return 0, 0
	}
	return g.Shots[0].Start, g.Shots[len(g.Shots)-1].End
}

// Duration returns the group length in frames.
func (g *Group) Duration() int {
	first, last := g.FrameSpan()
	return last - first
}

// EventKind enumerates the three event categories mined in §4.3 plus the
// explicit "undetermined" outcome of step 5.
type EventKind int

const (
	// EventUnknown is the §4.3 step-5 outcome: no category could be claimed.
	EventUnknown EventKind = iota
	// EventPresentation marks doctor/expert presentations with slides.
	EventPresentation
	// EventDialog marks doctor–patient (or doctor–doctor) dialog scenes.
	EventDialog
	// EventClinicalOperation marks surgery/diagnosis/symptom scenes.
	EventClinicalOperation
)

func (e EventKind) String() string {
	switch e {
	case EventPresentation:
		return "presentation"
	case EventDialog:
		return "dialog"
	case EventClinicalOperation:
		return "clinical-operation"
	default:
		return "unknown"
	}
}

// Scene is a collection of semantically related, temporally adjacent groups
// (§3, Definition 2), optionally labelled with a mined event.
type Scene struct {
	Index    int
	Groups   []*Group
	RepGroup *Group // §3.4 SelectRepGroup result; the scene centroid
	Event    EventKind
}

// Shots returns all shots of the scene in temporal order.
func (s *Scene) Shots() []*Shot {
	var out []*Shot
	for _, g := range s.Groups {
		out = append(out, g.Shots...)
	}
	return out
}

// ShotCount returns the number of shots in the scene.
func (s *Scene) ShotCount() int {
	n := 0
	for _, g := range s.Groups {
		n += len(g.Shots)
	}
	return n
}

// FrameSpan returns the first and one-past-last frame indices of the scene.
func (s *Scene) FrameSpan() (first, last int) {
	if len(s.Groups) == 0 {
		return 0, 0
	}
	first, _ = s.Groups[0].FrameSpan()
	_, last = s.Groups[len(s.Groups)-1].FrameSpan()
	return first, last
}

// ClusteredScene groups visually similar scenes that recur across the video
// (§3, Definition 2).
type ClusteredScene struct {
	Index    int
	Scenes   []*Scene
	RepGroup *Group // centroid of the cluster (§3.5 step 2)
}

// String summarises the cluster for logs.
func (c *ClusteredScene) String() string {
	return fmt.Sprintf("cluster %d (%d scenes)", c.Index, len(c.Scenes))
}

// GroundTruth carries the generator's annotations for evaluation: true shot
// boundaries, true scene extents with event labels, and speaker turns.
type GroundTruth struct {
	ShotStarts  []int            // frame index where each true shot begins
	Scenes      []TrueScene      // true semantic units in temporal order
	SpeakerTurn []SpeakerSegment // who speaks when (frame-indexed)
}

// TrueScene is one annotated semantic unit.
type TrueScene struct {
	StartFrame int
	EndFrame   int // exclusive
	Event      EventKind
	ClusterID  int // scenes sharing a ClusterID are recurrences of one set
}

// SpeakerSegment annotates a contiguous frame range with a speaker identity;
// ID 0 means silence or non-speech audio.
type SpeakerSegment struct {
	StartFrame int
	EndFrame   int // exclusive
	SpeakerID  int
}

// SceneAt returns the index of the true scene containing the frame, or -1.
func (g *GroundTruth) SceneAt(frame int) int {
	for i, s := range g.Scenes {
		if frame >= s.StartFrame && frame < s.EndFrame {
			return i
		}
	}
	return -1
}
