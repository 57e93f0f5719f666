package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"classminer"
	"classminer/internal/index"
	"classminer/internal/store"
	"classminer/internal/synth"
	"classminer/internal/vidmodel"
)

// corpusSize fixes how much library a run serves. base-10k (the benchmark's
// corpus) is 400 videos of 25 shots: large enough that the hierarchical
// index prunes most of a flat scan, small enough to ingest over HTTP in
// seconds.
type corpusSize struct {
	Videos        int     // base library size
	ShotsPerVideo int     // shots in every generated video
	Pool          int     // pre-encoded write bodies for the churn workloads
	MineScale     float64 // synth corpus scale the real shots are mined at
}

var (
	base10k   = corpusSize{Videos: 400, ShotsPerVideo: 25, Pool: 256, MineScale: 0.3}
	smokeSize = corpusSize{Videos: 40, ShotsPerVideo: 25, Pool: 32, MineScale: 0.12}
)

// subclusters are rotated over the generated videos so searches cross all
// three concept subtrees of the hierarchy.
var subclusters = [...]string{"medicine", "nursing", "dentistry"}

// namePlaceholder stands where a write-pool body's video name is spliced in
// at send time; nothing else in a body (numbers, fixed keys, subcluster
// names) contains an '@'.
const namePlaceholder = "@@NAME@@"

// ingestBody is the POST /v1/videos request; the handler takes the name from
// the top level, so saved.videoName stays empty.
type ingestBody struct {
	Subcluster string             `json:"subcluster"`
	Name       string             `json:"name"`
	Saved      *store.SavedResult `json:"saved"`
}

// poolBody is one pre-encoded POST /v1/videos body split around its name, so
// a churn op only copies bytes: nothing is marshalled inside a timed loop.
type poolBody struct {
	prefix, suffix []byte
}

// splice writes the body for name into dst (reusing its capacity).
func (b poolBody) splice(dst []byte, name string) []byte {
	dst = append(dst[:0], b.prefix...)
	dst = append(dst, name...)
	return append(dst, b.suffix...)
}

// corpus is the library every run ingests. The daemon only ever sees the
// generated bodies.
type corpus struct {
	size  corpusSize
	dim   int
	names []string // base video names, ingest order
	// entries are the base library's shots in ingest order (video-major):
	// loadgen's own copy for the exact flat scan and the in-process probes.
	entries []*index.Entry
	saved   []*store.SavedResult // base videos, for the in-process probes
	// baseBodies[i] is the POST /v1/videos body registering names[i].
	baseBodies [][]byte
	pool       []poolBody
	poolShots  [][]store.SavedShot // pool[i]'s shots, to verify hits on churn videos
	// searchBodies[id] is the POST /v1/search body whose example is entries[id].
	searchBodies [][]byte
	mined        []*vidmodel.Video // the real videos, kept for probe.core.*
	realShots    int
	// exact[n] is loadgen's own answer to the n-th query of qualitySample:
	// the flat scan of Eq. (24) over the corpus it generated.
	exact     [][]hitKey
	flatStats []index.Stats
	byKey     map[hitKey]int // base (video, shot) -> position in entries
}

// distanceTo recomputes, from loadgen's own copy of the features, the
// full-space distance between query shot id and the named shot, which is
// what the daemon must report for that hit. Churn videos resolve through the
// write pool their name indexes. ok is false for a shot loadgen never sent.
func (c *corpus) distanceTo(id int, video string, shot int) (dist float64, ok bool) {
	query := c.entries[id].Shot.Feature()
	if at, found := c.byKey[hitKey{video, shot}]; found {
		return math.Sqrt(index.ShotSqDist(c.entries[at].Shot, query)), true
	}
	var op int
	if _, err := fmt.Sscanf(video, "churn-%d", &op); err != nil || op < 0 {
		return 0, false
	}
	shots := c.poolShots[op%len(c.poolShots)]
	if shot < 0 || shot >= len(shots) {
		return 0, false
	}
	sh := &shots[shot]
	return math.Sqrt(index.ShotSqDist(&vidmodel.Shot{Color: sh.Color, Texture: sh.Texture}, query)), true
}

func baseName(v int) string { return fmt.Sprintf("base-%04d", v) }

// generateCorpus mines the five synthetic corpus videos for real shot
// features, then expands them by seeded multiplicative per-dimension jitter
// into size.Videos base videos plus size.Pool write-pool videos. Every call
// yields byte-identical bodies (see layoutSeed).
func generateCorpus(size corpusSize) (*corpus, error) {
	analyzer, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
	if err != nil {
		return nil, err
	}
	c := &corpus{size: size, byKey: map[hitKey]int{}}
	// A mined shot keeps the concept a curator would file it under: the
	// subcluster of its source video and the annotated event of its scene.
	// Every jittered copy inherits that placement, so concept leaves hold
	// visually related shots, as they do in a really mined library, and the
	// index's concept-then-feature descent has something to descend by.
	pools := map[placement][]*vidmodel.Shot{}
	for i, script := range synth.CorpusScripts(size.MineScale, layoutSeed) {
		v, err := synth.Generate(synth.DefaultConfig(), script, layoutSeed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		res, err := analyzer.Analyze(v)
		if err != nil {
			return nil, fmt.Errorf("mining %s: %w", v.Name, err)
		}
		for _, sh := range res.Shots {
			at := placement{sub: i % len(subclusters)}
			if sc := v.Truth.SceneAt(sh.Start); sc >= 0 {
				at.event = v.Truth.Scenes[sc].Event
			}
			pools[at] = append(pools[at], sh)
			if c.dim == 0 {
				c.dim = len(sh.Color) + len(sh.Texture)
			}
		}
		c.realShots += len(res.Shots)
		c.mined = append(c.mined, v)
	}
	if c.realShots == 0 {
		return nil, fmt.Errorf("mining produced no shots")
	}
	// events[sub] lists, in fixed order, the events sub has shots for.
	var events [len(subclusters)][]vidmodel.EventKind
	for sub := range events {
		for ev := vidmodel.EventUnknown; ev <= vidmodel.EventClinicalOperation; ev++ {
			if len(pools[placement{sub, ev}]) > 0 {
				events[sub] = append(events[sub], ev)
			}
		}
		if len(events[sub]) == 0 {
			return nil, fmt.Errorf("mining produced no shots for subcluster %s", subclusters[sub])
		}
	}

	rng := rand.New(rand.NewSource(layoutSeed))
	for v := 0; v < size.Videos+size.Pool; v++ {
		name := baseName(v)
		subIdx := v % len(subclusters)
		sub := subclusters[subIdx]
		sr := syntheticVideo(rng, v, size.ShotsPerVideo, events[subIdx], func(ev vidmodel.EventKind) []*vidmodel.Shot {
			return pools[placement{subIdx, ev}]
		})
		if v >= size.Videos {
			body, err := json.Marshal(ingestBody{Subcluster: sub, Name: namePlaceholder, Saved: sr})
			if err != nil {
				return nil, err
			}
			at := bytes.Index(body, []byte(namePlaceholder))
			c.pool = append(c.pool, poolBody{prefix: body[:at:at], suffix: body[at+len(namePlaceholder):]})
			c.poolShots = append(c.poolShots, sr.Shots)
			continue
		}
		body, err := json.Marshal(ingestBody{Subcluster: sub, Name: name, Saved: sr})
		if err != nil {
			return nil, err
		}
		c.names = append(c.names, name)
		c.saved = append(c.saved, sr)
		c.baseBodies = append(c.baseBodies, body)
		// The entries loadgen scans are derived by the code the daemon runs
		// on the same body, so both sides rank the same shots.
		res, err := store.DecodeResult(sr)
		if err != nil {
			return nil, err
		}
		res.Video.Name = name
		for s, e := range res.IndexEntries(sub) {
			c.byKey[hitKey{name, s}] = len(c.entries)
			c.entries = append(c.entries, e)
			c.searchBodies = append(c.searchBodies,
				[]byte(fmt.Sprintf(`{"video":%q,"shot":%d,"k":%d}`, name, s, searchK)))
		}
	}
	for _, id := range qualitySample(len(c.entries)) {
		res, stats := index.FlatSearch(c.entries, c.entries[id].Shot.Feature(), searchK)
		keys := make([]hitKey, len(res))
		for i, r := range res {
			keys[i] = hitKey{r.Entry.VideoName, r.Entry.Shot.Index}
		}
		c.exact = append(c.exact, keys)
		c.flatStats = append(c.flatStats, stats)
	}
	return c, nil
}

// shotFrames is the synthetic length of every generated shot.
const shotFrames = 40

// jitterSpread is the relative standard deviation of the per-dimension
// factor. Scaling (not adding) keeps a mined histogram's zeros zero: really
// mined shots have about 18 non-zero dimensions of 266 and encode to under
// 1 KB of JSON each, and so do these.
const jitterSpread = 0.3

// placement is where the concept hierarchy files a shot.
type placement struct {
	sub   int // index into subclusters
	event vidmodel.EventKind
}

// layoutSeed generates the corpus, which is the same for every run: the run
// seed decides only what is asked of it (every client's query sequence and
// the hot set). How much work a search is depends on the data (cluster and
// leaf sizes), and so does recall; with the data fixed, runs with different
// seeds time the same library under different traffic, their timings can be
// compared, and recall and the index's work counts repeat exactly.
const layoutSeed = 2003

// syntheticVideo builds one structurally valid mined result of n shots in
// groups of five and scenes of two groups. Scene events rotate over events,
// and every shot of a scene is a real mined shot of that event (drawn from
// pool) with each feature dimension scaled by its own random factor: the
// feature distribution (sparsity, per-dimension spread, cluster structure)
// stays that of real mining output while no two shots coincide.
func syntheticVideo(rng *rand.Rand, v, n int, events []vidmodel.EventKind, pool func(vidmodel.EventKind) []*vidmodel.Shot) *store.SavedResult {
	sr := &store.SavedResult{Version: store.FormatVersion, FPS: 25, TotalFrames: n * shotFrames}
	jitter := func(src []float64) []float64 {
		out := make([]float64, len(src))
		for i, x := range src {
			out[i] = x * (1 + jitterSpread*rng.NormFloat64())
		}
		return out
	}
	for g := 0; g*5 < n; g++ {
		sg := store.SavedGroup{Index: g, RepShots: []int{g * 5}}
		for s := g * 5; s < n && s < (g+1)*5; s++ {
			sg.Shots = append(sg.Shots, s)
		}
		sr.Groups = append(sr.Groups, sg)
	}
	for sc := 0; sc*2 < len(sr.Groups); sc++ {
		ev := events[(v+sc)%len(events)]
		ss := store.SavedScene{Index: sc, RepGroup: sc * 2, Event: int(ev)}
		for g := sc * 2; g < len(sr.Groups) && g < (sc+1)*2; g++ {
			ss.Groups = append(ss.Groups, g)
			for _, s := range sr.Groups[g].Shots {
				src := pool(ev)[rng.Intn(len(pool(ev)))]
				sr.Shots = append(sr.Shots, store.SavedShot{
					Index: s, Start: s * shotFrames, End: (s + 1) * shotFrames, RepFrame: s*shotFrames + 9,
					Color: jitter(src.Color), Texture: jitter(src.Texture),
				})
			}
		}
		sr.Scenes = append(sr.Scenes, ss)
		sr.Clusters = append(sr.Clusters, store.SavedCluster{Index: sc, Scenes: []int{sc}, RepGroup: sc * 2})
	}
	return sr
}

// querySource draws the example shots one client searches for. Each client
// owns one, seeded from the run seed and its client number, so the sequence
// a client sends does not depend on timing.
type querySource struct {
	rng      *rand.Rand
	shots    int     // uniform draws range over [0, shots)
	hot      []int   // the fixed hot set (nil = always uniform)
	hotShare float64 // probability a draw comes from the hot set
}

// hotSetSize is a quarter of the daemon's default 256-entry search cache.
const hotSetSize = 64

// hotSet picks the fixed hot shots for a seed.
func hotSet(seed int64, shots int) []int {
	n := hotSetSize
	if n > shots {
		n = shots
	}
	return rand.New(rand.NewSource(seed ^ 0x686f74)).Perm(shots)[:n]
}

func newQuerySource(seed int64, client, shots int, hot []int, hotShare float64) *querySource {
	return &querySource{
		rng:   rand.New(rand.NewSource(seed*1000003 + int64(client) + 1)),
		shots: shots, hot: hot, hotShare: hotShare,
	}
}

func (q *querySource) next() int {
	if len(q.hot) > 0 && (q.hotShare >= 1 || q.rng.Float64() < q.hotShare) {
		return q.hot[q.rng.Intn(len(q.hot))]
	}
	return q.rng.Intn(q.shots)
}

// qualitySample is the fixed query set recall and the index cost counts are
// taken on: up to 500 distinct shots, the same in every run.
func qualitySample(shots int) []int {
	n := 500
	if n > shots {
		n = shots
	}
	return rand.New(rand.NewSource(layoutSeed ^ 0x7175616c)).Perm(shots)[:n]
}

// hitKey names one shot of the library.
type hitKey struct {
	Video string
	Shot  int
}
