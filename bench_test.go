package classminer

// One benchmark per table and figure of the paper's evaluation section,
// plus ablation benches for the pipeline's load-bearing design choices
// (adaptive thresholds, PCS clustering, multi-center index nodes,
// dimensionality reduction). Each bench re-runs the experiment's
// computational core per iteration and reports the headline quantities via
// b.ReportMetric, so `go test -bench=.` regenerates both the numbers and
// their cost. Serving-layer latency benches live in server_bench_test.go.

import (
	"math/rand"
	"sync"
	"testing"

	"classminer/internal/audio"
	"classminer/internal/baseline"
	"classminer/internal/cluster"
	"classminer/internal/core"
	"classminer/internal/eval"
	"classminer/internal/event"
	"classminer/internal/index"
	"classminer/internal/shotdet"
	"classminer/internal/structure"
	"classminer/internal/synth"
	"classminer/internal/vidmodel"
)

// benchScale keeps per-iteration work bounded; regenerate the full-scale
// numbers with `go run ./cmd/experiments -scale 1.0`.
const benchScale = 0.4

// benchCorpus caches generated videos and detected shots across benches.
type benchCorpusT struct {
	videos []*vidmodel.Video
	shots  [][]*vidmodel.Shot
}

var (
	benchOnce   sync.Once
	benchCorpus benchCorpusT
	benchErr    error
)

func corpus(b *testing.B) *benchCorpusT {
	b.Helper()
	benchOnce.Do(func() {
		scripts := synth.CorpusScripts(benchScale, 2003)
		for vi, script := range scripts {
			v, err := synth.Generate(synth.DefaultConfig(), script, 2003+int64(vi)*7919)
			if err != nil {
				benchErr = err
				return
			}
			shots, _, err := shotdet.Detect(v, shotdet.Config{})
			if err != nil {
				benchErr = err
				return
			}
			benchCorpus.videos = append(benchCorpus.videos, v)
			benchCorpus.shots = append(benchCorpus.shots, shots)
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return &benchCorpus
}

// BenchmarkFig05ShotDetection regenerates Fig. 5: windowed adaptive-
// threshold shot-cut detection. Metrics: boundary recall and precision.
func BenchmarkFig05ShotDetection(b *testing.B) {
	c := corpus(b)
	v := c.videos[0]
	b.ResetTimer()
	var recall, precision float64
	for i := 0; i < b.N; i++ {
		shots, _, err := shotdet.Detect(v, shotdet.Config{})
		if err != nil {
			b.Fatal(err)
		}
		recall, precision = boundaryScore(shots, v.Truth.ShotStarts)
	}
	b.ReportMetric(recall, "recall")
	b.ReportMetric(precision, "precision")
}

func boundaryScore(shots []*vidmodel.Shot, truth []int) (recall, precision float64) {
	var starts []int
	for _, s := range shots[1:] {
		starts = append(starts, s.Start)
	}
	match := func(a, bs []int) int {
		n := 0
		for _, x := range a {
			for _, y := range bs {
				if x-y <= 1 && y-x <= 1 {
					n++
					break
				}
			}
		}
		return n
	}
	trueCuts := truth[1:]
	if len(trueCuts) == 0 || len(starts) == 0 {
		return 0, 0
	}
	return float64(match(trueCuts, starts)) / float64(len(trueCuts)),
		float64(match(starts, trueCuts)) / float64(len(starts))
}

// runMethods applies methods A, B, C to the cached corpus and aggregates
// Eq. (20) precision and Eq. (21) CRF.
func runMethods(b *testing.B, c *benchCorpusT) map[string][2]float64 {
	b.Helper()
	right := map[string]int{}
	total := map[string]int{}
	shotsN := 0
	for vi, v := range c.videos {
		shots := c.shots[vi]
		shotsN += len(shots)
		gres, err := structure.DetectGroups(shots, structure.GroupConfig{})
		if err != nil {
			b.Fatal(err)
		}
		sres, err := structure.MergeScenes(gres.Groups, structure.SceneConfig{})
		if err != nil {
			b.Fatal(err)
		}
		bres, err := baseline.RuiTOC(shots, baseline.RuiConfig{})
		if err != nil {
			b.Fatal(err)
		}
		cres, err := baseline.LinZhang(shots, baseline.LinConfig{})
		if err != nil {
			b.Fatal(err)
		}
		for m, scenes := range map[string][]*vidmodel.Scene{"A": sres.Scenes, "B": bres.Scenes, "C": cres.Scenes} {
			r, t, _ := eval.ScenePrecision(scenes, v.Truth)
			right[m] += r
			total[m] += t
		}
	}
	out := map[string][2]float64{}
	for _, m := range []string{"A", "B", "C"} {
		p := 0.0
		if total[m] > 0 {
			p = float64(right[m]) / float64(total[m])
		}
		out[m] = [2]float64{p, eval.CRF(total[m], shotsN)}
	}
	return out
}

// BenchmarkFig12ScenePrecision regenerates Fig. 12 (precision per method).
func BenchmarkFig12ScenePrecision(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	var res map[string][2]float64
	for i := 0; i < b.N; i++ {
		res = runMethods(b, c)
	}
	b.ReportMetric(res["A"][0], "P(A)")
	b.ReportMetric(res["B"][0], "P(B)")
	b.ReportMetric(res["C"][0], "P(C)")
}

// BenchmarkFig13CompressionRate regenerates Fig. 13 (CRF per method).
func BenchmarkFig13CompressionRate(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	var res map[string][2]float64
	for i := 0; i < b.N; i++ {
		res = runMethods(b, c)
	}
	b.ReportMetric(res["A"][1], "CRF(A)")
	b.ReportMetric(res["B"][1], "CRF(B)")
	b.ReportMetric(res["C"][1], "CRF(C)")
}

// table1State caches the trained classifier and gathered evidence so the
// bench times the per-scene mining decisions.
type table1StateT struct {
	miner    *event.Miner
	scenes   []*vidmodel.Scene
	truth    []vidmodel.EventKind
	evidence []map[int]*event.ShotEvidence
	sceneVid []int
}

var (
	table1Once  sync.Once
	table1State table1StateT
	table1Err   error
)

func table1(b *testing.B) *table1StateT {
	b.Helper()
	c := corpus(b)
	table1Once.Do(func() {
		speech, non := synth.TrainingClips(8000, audio.ClipSeconds, 30, 404)
		clf, err := audio.TrainSpeechClassifier(speech, non, 8000, 17)
		if err != nil {
			table1Err = err
			return
		}
		miner, err := event.NewMiner(clf, event.Config{SampleRate: 8000})
		if err != nil {
			table1Err = err
			return
		}
		table1State.miner = miner
		for vi, v := range c.videos {
			evidence := miner.GatherEvidence(v, c.shots[vi])
			table1State.evidence = append(table1State.evidence, evidence)
			for _, ts := range v.Truth.Scenes {
				if ts.Event == vidmodel.EventUnknown {
					continue
				}
				var members []*vidmodel.Shot
				for _, s := range c.shots[vi] {
					mid := (s.Start + s.End) / 2
					if mid >= ts.StartFrame && mid < ts.EndFrame {
						members = append(members, s)
					}
				}
				if len(members) == 0 {
					continue
				}
				gres, err := structure.DetectGroups(members, structure.GroupConfig{})
				if err != nil {
					table1Err = err
					return
				}
				table1State.scenes = append(table1State.scenes, &vidmodel.Scene{Groups: gres.Groups})
				table1State.truth = append(table1State.truth, ts.Event)
				table1State.sceneVid = append(table1State.sceneVid, vi)
			}
		}
	})
	if table1Err != nil {
		b.Fatal(table1Err)
	}
	return &table1State
}

// BenchmarkTable1EventMining regenerates Table 1: event mining over
// benchmark scenes. Metrics: average precision and recall.
func BenchmarkTable1EventMining(b *testing.B) {
	st := table1(b)
	b.ResetTimer()
	var pr, re float64
	for i := 0; i < b.N; i++ {
		sn, dn, tn := 0, 0, 0
		for si, sc := range st.scenes {
			got := st.miner.MineScene(sc, st.evidence[st.sceneVid[si]])
			sn++
			if got != vidmodel.EventUnknown {
				dn++
			}
			if got == st.truth[si] {
				tn++
			}
		}
		pr, re = safeDiv(tn, dn), safeDiv(tn, sn)
	}
	b.ReportMetric(pr, "PR(avg)")
	b.ReportMetric(re, "RE(avg)")
}

func safeDiv(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// sec62State caches index entries and the built index.
type sec62StateT struct {
	entries []*index.Entry
	ix      *index.Index
}

var (
	sec62Once  sync.Once
	sec62State sec62StateT
	sec62Err   error
)

func sec62(b *testing.B) *sec62StateT {
	b.Helper()
	c := corpus(b)
	sec62Once.Do(func() {
		for vi, v := range c.videos {
			for _, s := range c.shots[vi] {
				kind := vidmodel.EventUnknown
				if ti := v.Truth.SceneAt((s.Start + s.End) / 2); ti >= 0 {
					kind = v.Truth.Scenes[ti].Event
				}
				leaf := "medicine/other"
				switch kind {
				case vidmodel.EventPresentation:
					leaf = "medicine/presentation"
				case vidmodel.EventDialog:
					leaf = "medicine/dialog"
				case vidmodel.EventClinicalOperation:
					leaf = "medicine/clinical operation"
				}
				sec62State.entries = append(sec62State.entries, &index.Entry{
					VideoName: v.Name, Shot: s,
					Path: []string{"medical education", "medicine", leaf},
				})
			}
		}
		sec62State.ix, sec62Err = index.Build(sec62State.entries, index.Options{Seed: 9})
	})
	if sec62Err != nil {
		b.Fatal(sec62Err)
	}
	return &sec62State
}

// BenchmarkSec62FlatSearch times the Eq. (24) baseline: full-database,
// full-dimension scan plus ranking.
func BenchmarkSec62FlatSearch(b *testing.B) {
	st := sec62(b)
	q := st.entries[len(st.entries)/3].Shot.Feature()
	b.ResetTimer()
	var stats index.Stats
	for i := 0; i < b.N; i++ {
		_, stats = index.FlatSearch(st.entries, q, 10)
	}
	b.ReportMetric(float64(stats.FloatOps), "float-ops")
	b.ReportMetric(float64(stats.Candidates), "candidates")
}

// BenchmarkSec62HierSearch times the Eq. (25) path: multi-center descent,
// reduced-space bounds on the visited leaves' rows, exact refine.
func BenchmarkSec62HierSearch(b *testing.B) {
	st := sec62(b)
	q := st.entries[len(st.entries)/3].Shot.Feature()
	b.ResetTimer()
	var stats index.Stats
	for i := 0; i < b.N; i++ {
		_, stats = st.ix.Search(q, 10)
	}
	b.ReportMetric(float64(stats.FloatOps), "float-ops")
	b.ReportMetric(float64(stats.Candidates), "candidates")
	b.ReportMetric(float64(stats.Exact), "exact")
}

// skimState caches one fully analysed corpus video.
var (
	skimOnce   sync.Once
	skimResult *core.Result
	skimErr    error
)

func skimRes(b *testing.B) *core.Result {
	b.Helper()
	c := corpus(b)
	skimOnce.Do(func() {
		analyzer, err := core.NewAnalyzer(core.Options{SkipEvents: true})
		if err != nil {
			skimErr = err
			return
		}
		skimResult, skimErr = analyzer.Analyze(c.videos[0])
	})
	if skimErr != nil {
		b.Fatal(skimErr)
	}
	return skimResult
}

// BenchmarkFig14SkimQuality regenerates Fig. 14: the simulated viewer
// panel over the four skim levels. Metrics: level-3 scores (the knee).
func BenchmarkFig14SkimQuality(b *testing.B) {
	res := skimRes(b)
	c := corpus(b)
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	var s3 eval.SkimScores
	for i := 0; i < b.N; i++ {
		for l := 1; l <= 4; l++ {
			sc := eval.ScoreSkim(res.Skim, skimLevel(l), c.videos[0].Truth, rng)
			if l == 3 {
				s3 = sc
			}
		}
	}
	b.ReportMetric(s3.Q1, "Q1(l3)")
	b.ReportMetric(s3.Q2, "Q2(l3)")
	b.ReportMetric(s3.Q3, "Q3(l3)")
}

func skimLevel(l int) (out SkimLevel) { return SkimLevel(l) }

// BenchmarkFig15FCR regenerates Fig. 15: frame compression ratio per level.
func BenchmarkFig15FCR(b *testing.B) {
	res := skimRes(b)
	b.ResetTimer()
	var f1, f4 float64
	for i := 0; i < b.N; i++ {
		f1 = res.Skim.FCR(SkimLevel1)
		f4 = res.Skim.FCR(SkimLevel4)
	}
	b.ReportMetric(f1, "FCR(l1)")
	b.ReportMetric(f4, "FCR(l4)")
}

// ---------------------------------------------------------------------------
// Ablations.

// truthScenes builds truth-aligned scenes with cluster labels for purity
// scoring.
func truthScenes(b *testing.B, c *benchCorpusT, vi int) ([]*vidmodel.Scene, map[*vidmodel.Scene]int) {
	b.Helper()
	v := c.videos[vi]
	var scenes []*vidmodel.Scene
	labels := map[*vidmodel.Scene]int{}
	for _, ts := range v.Truth.Scenes {
		var members []*vidmodel.Shot
		for _, s := range c.shots[vi] {
			mid := (s.Start + s.End) / 2
			if mid >= ts.StartFrame && mid < ts.EndFrame {
				members = append(members, s)
			}
		}
		if len(members) == 0 {
			continue
		}
		gres, err := structure.DetectGroups(members, structure.GroupConfig{})
		if err != nil {
			b.Fatal(err)
		}
		sc := &vidmodel.Scene{Index: len(scenes), Groups: gres.Groups}
		sc.RepGroup = structure.SelectRepGroup(sc)
		scenes = append(scenes, sc)
		labels[sc] = ts.ClusterID
	}
	return scenes, labels
}

// clusterPurity scores a clustering against ground-truth cluster IDs:
// weighted fraction of each cluster's scenes sharing its dominant ID.
func clusterPurity(clusters []*vidmodel.ClusteredScene, labels map[*vidmodel.Scene]int) float64 {
	total, pure := 0, 0
	for _, c := range clusters {
		counts := map[int]int{}
		for _, s := range c.Scenes {
			counts[labels[s]]++
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		pure += best
		total += len(c.Scenes)
	}
	if total == 0 {
		return 0
	}
	return float64(pure) / float64(total)
}

// BenchmarkAblationPCSvsKMeans compares the seedless Pairwise Cluster
// Scheme against seeded k-means (§3.5's motivation). Metrics: purity of
// each and k-means' seed sensitivity (purity spread across seeds).
func BenchmarkAblationPCSvsKMeans(b *testing.B) {
	c := corpus(b)
	scenes, labels := truthScenes(b, c, 0)
	b.ResetTimer()
	var pcsP, kmP, kmSpread float64
	for i := 0; i < b.N; i++ {
		pres, err := cluster.ClusterScenes(scenes, cluster.Options{})
		if err != nil {
			b.Fatal(err)
		}
		pcsP = clusterPurity(pres.Clusters, labels)
		lo, hi, sum := 1.0, 0.0, 0.0
		const seeds = 5
		for s := int64(0); s < seeds; s++ {
			kres, err := cluster.KMeansScenes(scenes, pres.OptimalN, rand.New(rand.NewSource(s)))
			if err != nil {
				b.Fatal(err)
			}
			p := clusterPurity(kres.Clusters, labels)
			sum += p
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
		kmP = sum / seeds
		kmSpread = hi - lo
	}
	b.ReportMetric(pcsP, "purity(PCS)")
	b.ReportMetric(kmP, "purity(kmeans)")
	b.ReportMetric(kmSpread, "kmeans-seed-spread")
}

// BenchmarkAblationAdaptiveThreshold compares the windowed locally
// adaptive shot threshold against one global threshold (window = whole
// video), the §3.1 claim. Metrics: boundary F1 of both.
func BenchmarkAblationAdaptiveThreshold(b *testing.B) {
	c := corpus(b)
	v := c.videos[0]
	b.ResetTimer()
	var f1Local, f1Global float64
	for i := 0; i < b.N; i++ {
		local, _, err := shotdet.Detect(v, shotdet.Config{})
		if err != nil {
			b.Fatal(err)
		}
		global, _, err := shotdet.Detect(v, shotdet.Config{Window: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		r1, p1 := boundaryScore(local, v.Truth.ShotStarts)
		r2, p2 := boundaryScore(global, v.Truth.ShotStarts)
		f1Local = f1(r1, p1)
		f1Global = f1(r2, p2)
	}
	b.ReportMetric(f1Local, "F1(adaptive)")
	b.ReportMetric(f1Global, "F1(global)")
}

func f1(r, p float64) float64 {
	if r+p == 0 {
		return 0
	}
	return 2 * r * p / (r + p)
}

// BenchmarkAblationClusterValidity compares the ρ(N) validity analysis of
// Eqs. (14)–(16) against the fixed 40 % reduction the paper rejects.
func BenchmarkAblationClusterValidity(b *testing.B) {
	c := corpus(b)
	scenes, labels := truthScenes(b, c, 0)
	b.ResetTimer()
	var validityP, fixedP float64
	for i := 0; i < b.N; i++ {
		auto, err := cluster.ClusterScenes(scenes, cluster.Options{})
		if err != nil {
			b.Fatal(err)
		}
		fixedN := len(scenes) * 6 / 10 // "reduce by 40%"
		if fixedN < 1 {
			fixedN = 1
		}
		fixed, err := cluster.ClusterScenes(scenes, cluster.Options{N: fixedN})
		if err != nil {
			b.Fatal(err)
		}
		validityP = clusterPurity(auto.Clusters, labels)
		fixedP = clusterPurity(fixed.Clusters, labels)
	}
	b.ReportMetric(validityP, "purity(validity)")
	b.ReportMetric(fixedP, "purity(fixed40)")
}

// BenchmarkAblationMultiCenter compares multi-center non-leaf index nodes
// (the paper's choice) against single-center nodes. Metrics: top-1
// flat-scan agreement of each.
func BenchmarkAblationMultiCenter(b *testing.B) {
	st := sec62(b)
	multi, err := index.Build(st.entries, index.Options{Centers: 3, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	single, err := index.Build(st.entries, index.Options{Centers: 1, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	b.ResetTimer()
	var aMulti, aSingle float64
	for i := 0; i < b.N; i++ {
		const trials = 20
		mHit, sHit := 0, 0
		for t := 0; t < trials; t++ {
			q := st.entries[rng.Intn(len(st.entries))].Shot.Feature()
			flat, _ := index.FlatSearch(st.entries, q, 1)
			if topAgree(multi, q, flat[0].Entry) {
				mHit++
			}
			if topAgree(single, q, flat[0].Entry) {
				sHit++
			}
		}
		aMulti = float64(mHit) / trials
		aSingle = float64(sHit) / trials
	}
	b.ReportMetric(aMulti, "agree(multi)")
	b.ReportMetric(aSingle, "agree(single)")
}

func topAgree(ix *index.Index, q []float64, want *index.Entry) bool {
	hits, _ := ix.Search(q, 5)
	for _, h := range hits {
		if h.Entry == want {
			return true
		}
	}
	return false
}

// BenchmarkAblationDimReduction compares the default reduced-subspace
// index against a near-full-dimension one (§6.2: discriminating features
// shrink the per-comparison cost). Metrics: float-ops of each.
func BenchmarkAblationDimReduction(b *testing.B) {
	st := sec62(b)
	reduced := st.ix
	full, err := index.Build(st.entries, index.Options{SelectDims: 266, PCADims: 64, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	q := st.entries[7].Shot.Feature()
	b.ResetTimer()
	var opsReduced, opsFull float64
	for i := 0; i < b.N; i++ {
		_, rs := reduced.Search(q, 10)
		_, fs := full.Search(q, 10)
		opsReduced = float64(rs.FloatOps)
		opsFull = float64(fs.FloatOps)
	}
	b.ReportMetric(opsReduced, "float-ops(reduced)")
	b.ReportMetric(opsFull, "float-ops(full)")
}
