package eval

import (
	"fmt"
	"math/rand"
	"time"

	"classminer/internal/audio"
	"classminer/internal/baseline"
	"classminer/internal/concept"
	"classminer/internal/core"
	"classminer/internal/event"
	"classminer/internal/index"
	"classminer/internal/shotdet"
	"classminer/internal/skim"
	"classminer/internal/structure"
	"classminer/internal/synth"
	"classminer/internal/vidmodel"
)

// CorpusConfig selects the synthetic evaluation corpus. Scale 1 is the
// paper-shaped corpus (≈100 scenes across five videos); smaller scales run
// proportionally faster with the same metric definitions.
type CorpusConfig struct {
	Scale float64
	Seed  int64
}

func (c CorpusConfig) withDefaults() CorpusConfig {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 2003
	}
	return c
}

// forEachVideo generates and visits the corpus one video at a time so that
// only one video's frames and audio are resident at once.
func forEachVideo(cfg CorpusConfig, fn func(v *vidmodel.Video) error) error {
	cfg = cfg.withDefaults()
	scripts := synth.CorpusScripts(cfg.Scale, cfg.Seed)
	for vi, script := range scripts {
		v, err := synth.Generate(synth.DefaultConfig(), script, cfg.Seed+int64(vi)*7919)
		if err != nil {
			return fmt.Errorf("eval: generating %q: %w", script.Name, err)
		}
		if err := fn(v); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Fig. 12 / Fig. 13 — scene detection precision and compression rate for
// Method A (ours), Method B (Rui et al.) and Method C (Lin & Zhang).

// MethodRow is one bar of Figs. 12–13.
type MethodRow struct {
	Method    string
	Right     int
	Total     int // detected scenes
	Shots     int
	Precision float64 // Eq. (20)
	CRF       float64 // Eq. (21)
}

// RunSceneDetection regenerates Figs. 12 and 13 over the corpus.
func RunSceneDetection(cfg CorpusConfig) ([]MethodRow, error) {
	rows := map[string]*MethodRow{
		"A": {Method: "A (ours)"},
		"B": {Method: "B (Rui et al.)"},
		"C": {Method: "C (Lin-Zhang)"},
	}
	err := forEachVideo(cfg, func(v *vidmodel.Video) error {
		shots, _, err := shotdet.Detect(v, shotdet.Config{})
		if err != nil {
			return err
		}
		perMethod := map[string][]*vidmodel.Scene{}

		gres, err := structure.DetectGroups(shots, structure.GroupConfig{})
		if err != nil {
			return err
		}
		sres, err := structure.MergeScenes(gres.Groups, structure.SceneConfig{})
		if err != nil {
			return err
		}
		perMethod["A"] = sres.Scenes

		bres, err := baseline.RuiTOC(shots, baseline.RuiConfig{})
		if err != nil {
			return err
		}
		perMethod["B"] = bres.Scenes

		cres, err := baseline.LinZhang(shots, baseline.LinConfig{})
		if err != nil {
			return err
		}
		perMethod["C"] = cres.Scenes

		for m, scenes := range perMethod {
			right, total, _ := ScenePrecision(scenes, v.Truth)
			rows[m].Right += right
			rows[m].Total += total
			rows[m].Shots += len(shots)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]MethodRow, 0, 3)
	for _, m := range []string{"A", "B", "C"} {
		r := rows[m]
		if r.Total > 0 {
			r.Precision = float64(r.Right) / float64(r.Total)
		}
		r.CRF = CRF(r.Total, r.Shots)
		out = append(out, *r)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Table 1 — event mining over benchmark scenes.

// RunEventMining regenerates Table 1. Following §6.1, the benchmark scenes
// are the ground-truth semantic units that distinctly belong to one of the
// three categories; the miner then labels them blind and SN/DN/TN/PR/RE
// are tabulated per category.
func RunEventMining(cfg CorpusConfig) ([]EventRow, error) {
	speech, non := synth.TrainingClips(8000, audio.ClipSeconds, 30, 404)
	clf, err := audio.TrainSpeechClassifier(speech, non, 8000, 17)
	if err != nil {
		return nil, err
	}
	names := map[vidmodel.EventKind]string{
		vidmodel.EventPresentation:      "presentation",
		vidmodel.EventDialog:            "dialog",
		vidmodel.EventClinicalOperation: "clinical operation",
	}
	rows := map[vidmodel.EventKind]*EventRow{}
	for kind, name := range names {
		rows[kind] = &EventRow{Event: name}
	}
	err = forEachVideo(cfg, func(v *vidmodel.Video) error {
		shots, _, err := shotdet.Detect(v, shotdet.Config{})
		if err != nil {
			return err
		}
		miner, err := event.NewMiner(clf, event.Config{SampleRate: v.Audio.SampleRate})
		if err != nil {
			return err
		}
		evidence := miner.GatherEvidence(v, shots)
		for _, ts := range v.Truth.Scenes {
			if _, benchmark := rows[ts.Event]; !benchmark {
				continue // establishing material is not a benchmark scene
			}
			members := shotsWithin(shots, ts.StartFrame, ts.EndFrame)
			if len(members) == 0 {
				continue
			}
			gres, err := structure.DetectGroups(members, structure.GroupConfig{})
			if err != nil {
				return err
			}
			scene := &vidmodel.Scene{Groups: gres.Groups}
			got := miner.MineScene(scene, evidence)
			rows[ts.Event].SN++
			if r, detected := rows[got]; detected {
				r.DN++
			}
			if got == ts.Event {
				rows[ts.Event].TN++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []EventRow
	for _, kind := range []vidmodel.EventKind{vidmodel.EventPresentation, vidmodel.EventDialog, vidmodel.EventClinicalOperation} {
		r := rows[kind]
		r.FinishRow()
		out = append(out, *r)
	}
	out = append(out, AverageRow(out))
	return out, nil
}

func shotsWithin(shots []*vidmodel.Shot, start, end int) []*vidmodel.Shot {
	var out []*vidmodel.Shot
	for _, s := range shots {
		mid := (s.Start + s.End) / 2
		if mid >= start && mid < end {
			out = append(out, s)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// §6.2 — cluster-based indexing versus flat scan.

// SearchCostRow compares flat (Eq. 24) against hierarchical (Eq. 25)
// retrieval at one database size.
type SearchCostRow struct {
	N              int // database size (shots)
	FlatFloatOps   int
	HierFloatOps   int
	FlatNanos      int64
	HierNanos      int64
	FlatCandidates int
	HierCandidates int
	TopAgree       float64 // fraction of queries where hier found flat's top-1 in its top-5
}

// RunIndexCost regenerates the §6.2 analysis: it indexes the corpus's shots
// under their ground-truth concepts and measures retrieval cost at growing
// database sizes.
func RunIndexCost(cfg CorpusConfig, sizes []int, queries int) ([]SearchCostRow, error) {
	entries, err := corpusEntries(cfg)
	if err != nil {
		return nil, err
	}
	if len(sizes) == 0 {
		sizes = []int{len(entries)}
	}
	if queries <= 0 {
		queries = 20
	}
	rng := rand.New(rand.NewSource(cfg.withDefaults().Seed + 5))
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })

	var out []SearchCostRow
	for _, n := range sizes {
		if n > len(entries) {
			n = len(entries)
		}
		sub := entries[:n]
		ix, err := index.Build(sub, index.Options{})
		if err != nil {
			return nil, err
		}
		row := SearchCostRow{N: n}
		agree := 0
		for q := 0; q < queries; q++ {
			query := sub[rng.Intn(n)].Shot.Feature()
			t0 := time.Now()
			flat, fs := index.FlatSearch(sub, query, 10)
			row.FlatNanos += time.Since(t0).Nanoseconds()
			t0 = time.Now()
			hier, hs := ix.Search(nil, query, 10, nil)
			row.HierNanos += time.Since(t0).Nanoseconds()
			row.FlatFloatOps += fs.FloatOps
			row.HierFloatOps += hs.FloatOps
			row.FlatCandidates += fs.Candidates
			row.HierCandidates += hs.Candidates
			for i, h := range hier {
				if i >= 5 {
					break
				}
				if h.Entry == flat[0].Entry {
					agree++
					break
				}
			}
		}
		row.TopAgree = float64(agree) / float64(queries)
		out = append(out, row)
	}
	return out, nil
}

// corpusEntries mines the corpus structure-only and files every shot under
// its ground-truth scene concept (the cost experiment isolates indexing
// from event-mining accuracy).
func corpusEntries(cfg CorpusConfig) ([]*index.Entry, error) {
	var entries []*index.Entry
	err := forEachVideo(cfg, func(v *vidmodel.Video) error {
		shots, _, err := shotdet.Detect(v, shotdet.Config{})
		if err != nil {
			return err
		}
		for _, s := range shots {
			kind := vidmodel.EventUnknown
			if ti := v.Truth.SceneAt((s.Start + s.End) / 2); ti >= 0 {
				kind = v.Truth.Scenes[ti].Event
			}
			leaf := concept.SceneConcept("medicine", kind)
			entries = append(entries, &index.Entry{
				VideoName: v.Name,
				Shot:      s,
				Path:      []string{"medical education", "medicine", leaf},
			})
		}
		return nil
	})
	return entries, err
}

// ---------------------------------------------------------------------------
// Fig. 14 / Fig. 15 — scalable skimming quality and frame compression.

// FCRRow is one Fig. 15 point.
type FCRRow struct {
	Level skim.Level
	FCR   float64
}

// RunSkimStudy regenerates Figs. 14 and 15: the full pipeline runs on every
// corpus video, the four skim levels are built, the simulated viewer panel
// scores each level (Fig. 14) and the frame compression ratios are
// averaged (Fig. 15).
func RunSkimStudy(cfg CorpusConfig) ([]SkimScores, []FCRRow, error) {
	analyzer, err := core.NewAnalyzer(core.Options{SkipEvents: true})
	if err != nil {
		return nil, nil, err
	}
	cfgD := cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfgD.Seed + 11))
	sum := map[skim.Level]*SkimScores{}
	fcr := map[skim.Level]float64{}
	videos := 0
	err = forEachVideo(cfg, func(v *vidmodel.Video) error {
		res, err := analyzer.Analyze(v)
		if err != nil {
			return err
		}
		videos++
		for l := skim.Level1; l <= skim.Level4; l++ {
			sc := ScoreSkim(res.Skim, l, v.Truth, rng)
			if sum[l] == nil {
				sum[l] = &SkimScores{Level: l}
			}
			sum[l].Q1 += sc.Q1
			sum[l].Q2 += sc.Q2
			sum[l].Q3 += sc.Q3
			fcr[l] += res.Skim.FCR(l)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var scores []SkimScores
	var fcrs []FCRRow
	for l := skim.Level1; l <= skim.Level4; l++ {
		s := sum[l]
		s.Q1 /= float64(videos)
		s.Q2 /= float64(videos)
		s.Q3 /= float64(videos)
		scores = append(scores, *s)
		fcrs = append(fcrs, FCRRow{Level: l, FCR: fcr[l] / float64(videos)})
	}
	return scores, fcrs, nil
}

// ---------------------------------------------------------------------------
// Fig. 5 — shot detection with locally adaptive thresholds.

// ShotDetectionReport summarises the Fig. 5 run on one corpus video.
type ShotDetectionReport struct {
	Video     string
	Trace     *shotdet.Trace
	TrueCuts  int
	Detected  int
	Matched   int // detected cuts within ±1 frame of a true cut
	Recall    float64
	Precision float64
}

// RunShotDetection regenerates Fig. 5 on the named corpus video (empty
// name = the first video).
func RunShotDetection(cfg CorpusConfig, videoName string) (*ShotDetectionReport, error) {
	cfgD := cfg.withDefaults()
	if videoName == "" {
		videoName = synth.CorpusNames()[0]
	}
	script := synth.CorpusScript(videoName, cfgD.Scale, cfgD.Seed)
	if script == nil {
		return nil, fmt.Errorf("eval: unknown corpus video %q", videoName)
	}
	v, err := synth.Generate(synth.DefaultConfig(), script, cfgD.Seed)
	if err != nil {
		return nil, err
	}
	shots, trace, err := shotdet.Detect(v, shotdet.Config{})
	if err != nil {
		return nil, err
	}
	rep := &ShotDetectionReport{Video: videoName, Trace: trace}
	trueCuts := v.Truth.ShotStarts[1:]
	rep.TrueCuts = len(trueCuts)
	var detected []int
	for _, s := range shots[1:] {
		detected = append(detected, s.Start)
	}
	rep.Detected = len(detected)
	for _, d := range detected {
		for _, tc := range trueCuts {
			if d-tc <= 1 && tc-d <= 1 {
				rep.Matched++
				break
			}
		}
	}
	if rep.Detected > 0 {
		rep.Precision = float64(rep.Matched) / float64(rep.Detected)
	}
	if rep.TrueCuts > 0 {
		rep.Recall = float64(rep.Matched) / float64(rep.TrueCuts)
	}
	return rep, nil
}
