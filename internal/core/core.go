// Package core is ClassMiner itself: the Fig. 3 pipeline that turns a raw
// video into its mined content structure and events. It chains shot
// segmentation with representative-frame selection (§3.1), group detection
// and classification (§3.2), group merging into scenes (§3.4), scene
// clustering (§3.5), visual/audio event mining (§4) and the scalable
// skimming construction (§5), and exposes the result as database index
// entries (§2, §6.2).
package core

import (
	"fmt"

	"classminer/internal/audio"
	"classminer/internal/cluster"
	"classminer/internal/concept"
	"classminer/internal/event"
	"classminer/internal/index"
	"classminer/internal/shotdet"
	"classminer/internal/skim"
	"classminer/internal/structure"
	"classminer/internal/synth"
	"classminer/internal/vidmodel"
)

// Options configures the full pipeline. The zero value reproduces the
// paper's published settings.
type Options struct {
	Shot    shotdet.Config
	Group   structure.GroupConfig
	Scene   structure.SceneConfig
	Cluster cluster.Options
	// EventLambda is the BIC penalty factor λ (0 = default).
	EventLambda float64
	// SkipEvents disables audio processing and event mining (structure-
	// only runs are much faster; used by the Fig. 12/13 harness where
	// events play no role).
	SkipEvents bool
	// SkipClusters disables §3.5 scene clustering.
	SkipClusters bool
	// ClassifierSeed fixes the speech/non-speech GMM training (0 = 1).
	ClassifierSeed int64
}

// Analyzer is a reusable pipeline instance. The speech/non-speech
// classifier is trained once at construction (on synthetic labelled clips,
// the §4.2 substitution) and reused across videos.
type Analyzer struct {
	opts Options
	clf  *audio.SpeechClassifier
}

// NewAnalyzer builds a pipeline. Training the audio classifier costs a
// couple of seconds; construct one analyzer and reuse it.
func NewAnalyzer(opts Options) (*Analyzer, error) {
	a := &Analyzer{opts: opts}
	if !opts.SkipEvents {
		seed := opts.ClassifierSeed
		if seed == 0 {
			seed = 1
		}
		speech, non := synth.TrainingClips(8000, audio.ClipSeconds, 30, seed)
		clf, err := audio.TrainSpeechClassifier(speech, non, 8000, seed)
		if err != nil {
			return nil, fmt.Errorf("core: training speech classifier: %w", err)
		}
		a.clf = clf
	}
	return a, nil
}

// Result is the full mined content structure of one video.
type Result struct {
	Video     *vidmodel.Video
	Shots     []*vidmodel.Shot
	ShotTrace *shotdet.Trace
	Groups    []*vidmodel.Group
	Scenes    []*vidmodel.Scene
	Discarded []*vidmodel.Scene // scenes eliminated for having < 3 shots
	Clusters  []*vidmodel.ClusteredScene
	Events    map[int]vidmodel.EventKind // scene index -> mined event
	Skim      *skim.Skim
}

// Analyze runs the complete pipeline on one video.
func (a *Analyzer) Analyze(v *vidmodel.Video) (*Result, error) {
	if v == nil || len(v.Frames) == 0 {
		return nil, fmt.Errorf("core: empty video")
	}
	res := &Result{Video: v}

	shots, trace, err := shotdet.Detect(v, a.opts.Shot)
	if err != nil {
		return nil, fmt.Errorf("core: shot detection: %w", err)
	}
	res.Shots, res.ShotTrace = shots, trace

	gres, err := structure.DetectGroups(shots, a.opts.Group)
	if err != nil {
		return nil, fmt.Errorf("core: group detection: %w", err)
	}
	res.Groups = gres.Groups

	sres, err := structure.MergeScenes(gres.Groups, a.opts.Scene)
	if err != nil {
		return nil, fmt.Errorf("core: scene merging: %w", err)
	}
	res.Scenes, res.Discarded = sres.Scenes, sres.Discarded

	if !a.opts.SkipClusters && len(res.Scenes) > 0 {
		cres, err := cluster.ClusterScenes(res.Scenes, a.opts.Cluster)
		if err != nil {
			return nil, fmt.Errorf("core: scene clustering: %w", err)
		}
		res.Clusters = cres.Clusters
	}

	if !a.opts.SkipEvents && v.Audio != nil && len(res.Scenes) > 0 {
		miner, err := event.NewMiner(a.clf, event.Config{
			Lambda:     a.opts.EventLambda,
			SampleRate: v.Audio.SampleRate,
		})
		if err != nil {
			return nil, fmt.Errorf("core: event miner: %w", err)
		}
		res.Events = miner.MineAll(v, res.Scenes, shots)
	}

	sk, err := skim.Build(res.Shots, res.Groups, res.Scenes, res.Clusters, len(v.Frames))
	if err != nil {
		return nil, fmt.Errorf("core: skimming: %w", err)
	}
	res.Skim = sk
	return res, nil
}

// IndexEntries converts the mined result into hierarchical index entries
// under the given subcluster concept (e.g. "medicine"): every shot is filed
// beneath the scene-level concept its mined event maps to.
//
// The entries are cut from one array, and a run of shots filed under one
// concept shares one path, which nothing writes.
func (r *Result) IndexEntries(subcluster string) []*index.Entry {
	inScene := make(map[int]*vidmodel.Scene, len(r.Shots))
	for _, sc := range r.Scenes {
		for _, s := range sc.Shots() {
			inScene[s.Index] = sc
		}
	}
	entries := make([]index.Entry, len(r.Shots))
	out := make([]*index.Entry, len(r.Shots))
	var path []string
	last := vidmodel.EventUnknown
	for i, s := range r.Shots {
		kind := vidmodel.EventUnknown
		if sc, ok := inScene[s.Index]; ok {
			kind = sc.Event
		}
		if path == nil || kind != last {
			path, last = []string{"medical education", subcluster, concept.SceneConcept(subcluster, kind)}, kind
		}
		entries[i] = index.Entry{VideoName: r.Video.Name, Shot: s, Path: path}
		out[i] = &entries[i]
	}
	return out
}

// EventOf returns the mined event of the scene containing the given frame,
// or EventUnknown.
func (r *Result) EventOf(frame int) vidmodel.EventKind {
	for _, sc := range r.Scenes {
		first, last := sc.FrameSpan()
		if frame >= first && frame < last {
			return sc.Event
		}
	}
	return vidmodel.EventUnknown
}

// Summary prints a compact human-readable description of the result.
func (r *Result) Summary() string {
	clusters := len(r.Clusters)
	events := map[vidmodel.EventKind]int{}
	for _, sc := range r.Scenes {
		events[sc.Event]++
	}
	return fmt.Sprintf("%s: %d frames, %d shots, %d groups, %d scenes (+%d discarded), %d clustered scenes; events: %d presentation, %d dialog, %d clinical, %d unknown",
		r.Video.Name, len(r.Video.Frames), len(r.Shots), len(r.Groups), len(r.Scenes), len(r.Discarded), clusters,
		events[vidmodel.EventPresentation], events[vidmodel.EventDialog],
		events[vidmodel.EventClinicalOperation], events[vidmodel.EventUnknown])
}
