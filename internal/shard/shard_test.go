package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"classminer"
	"classminer/internal/store"
	"classminer/internal/wal"
)

var (
	analyzerOnce sync.Once
	analyzerVal  *classminer.Analyzer
	analyzerErr  error
)

// testAnalyzer trains the (stateless, reusable) analyzer once per test
// binary; every router in this file shares it, exactly as every shard of
// one router shares it in production.
func testAnalyzer(t testing.TB) *classminer.Analyzer {
	t.Helper()
	analyzerOnce.Do(func() {
		analyzerVal, analyzerErr = classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
	})
	if analyzerErr != nil {
		t.Fatal(analyzerErr)
	}
	return analyzerVal
}

var admin = classminer.User{Name: "admin", Clearance: classminer.Administrator}

// tinyResult fabricates a small mined result with deterministic
// pseudo-random features, through the same SavedResult decode path a
// journal replay uses (mirrors the root package's recovery fixtures).
func tinyResult(t testing.TB, name string, seed int64, shots int) *classminer.Result {
	t.Helper()
	res, err := store.DecodeResult(tinySaved(name, seed, shots))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func tinySaved(name string, seed int64, shots int) *store.SavedResult {
	rng := rand.New(rand.NewSource(seed))
	sr := &store.SavedResult{
		Version:     store.FormatVersion,
		VideoName:   name,
		FPS:         25,
		TotalFrames: shots * 50,
	}
	feat := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	group := store.SavedGroup{Index: 0}
	for i := 0; i < shots; i++ {
		sr.Shots = append(sr.Shots, store.SavedShot{
			Index: i, Start: i * 50, End: (i+1)*50 - 1, RepFrame: i * 50,
			Color: feat(8), Texture: feat(4),
		})
		group.Shots = append(group.Shots, i)
	}
	group.RepShots = []int{0}
	sr.Groups = []store.SavedGroup{group}
	sr.Scenes = []store.SavedScene{{Index: 0, Groups: []int{0}, RepGroup: 0}}
	return sr
}

func quietWAL() classminer.DurableOptions {
	return classminer.DurableOptions{CheckpointBytes: -1, CheckpointRecords: -1}
}

func fixedQueries(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		q := make([]float64, dim)
		for j := range q {
			q[j] = rng.Float64()
		}
		out[i] = q
	}
	return out
}

// corpus is a deterministic set of (name, seed, shots) fixtures spread over
// enough distinct names that every shard count under test gets multiple
// owners.
type corpusVideo struct {
	name  string
	seed  int64
	shots int
}

func testCorpus(seed int64, videos int) []corpusVideo {
	out := make([]corpusVideo, 0, videos)
	for i := 0; i < videos; i++ {
		out = append(out, corpusVideo{
			name:  fmt.Sprintf("case-%d-%02d", seed, i),
			seed:  seed*1000 + int64(i),
			shots: 2 + i%3,
		})
	}
	return out
}

func totalShots(c []corpusVideo) int {
	n := 0
	for _, v := range c {
		n += v.shots
	}
	return n
}

// buildRouter registers the corpus on an in-memory router of n shards and
// fits every shard's index.
func buildRouter(t testing.TB, n int, corpus []corpusVideo, subclusterOf func(corpusVideo) string) *Library {
	t.Helper()
	l, err := New(testAnalyzer(t), n)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range corpus {
		sub := "medicine"
		if subclusterOf != nil {
			sub = subclusterOf(v)
		}
		if err := l.AddResult(tinyResult(t, v.name, v.seed, v.shots), sub); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return l
}

func searchAll(t testing.TB, l *Library, u classminer.User, queries [][]float64, k int) [][]classminer.SearchHit {
	t.Helper()
	out := make([][]classminer.SearchHit, len(queries))
	for i, q := range queries {
		hits, _, err := l.SearchIntoCtx(context.Background(), nil, u, q, k)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = hits
	}
	return out
}

func mustSameHits(t testing.TB, label string, got, want [][]classminer.SearchHit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: answered %d queries, want %d", label, len(got), len(want))
	}
	for qi := range want {
		if len(got[qi]) != len(want[qi]) {
			t.Fatalf("%s query %d: %d hits vs %d", label, qi, len(got[qi]), len(want[qi]))
		}
		for hi := range want[qi] {
			g, w := got[qi][hi], want[qi][hi]
			if g.Entry.VideoName != w.Entry.VideoName || g.Entry.Shot.Index != w.Entry.Shot.Index || g.Dist != w.Dist {
				t.Fatalf("%s query %d hit %d: (%s,%d,%g) vs (%s,%d,%g)", label, qi, hi,
					g.Entry.VideoName, g.Entry.Shot.Index, g.Dist,
					w.Entry.VideoName, w.Entry.Shot.Index, w.Dist)
			}
		}
	}
}

// TestShardIndexDeterministicAndSpread pins the placement function: stable
// per name, in range, and not degenerate (a realistic corpus of names must
// land on more than one shard).
func TestShardIndexDeterministicAndSpread(t *testing.T) {
	used := map[int]bool{}
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("video-%03d", i)
		s := shardIndex(name, 4)
		if s < 0 || s >= 4 {
			t.Fatalf("shardIndex(%q, 4) = %d, out of range", name, s)
		}
		if s != shardIndex(name, 4) {
			t.Fatalf("shardIndex(%q, 4) not deterministic", name)
		}
		used[s] = true
	}
	if len(used) != 4 {
		t.Fatalf("64 names covered only shards %v of 4", used)
	}
}

// TestGoldenEquivalence is the tentpole contract: for the same corpus and
// queries, a sharded router returns byte-identical rankings at every shard
// count. k exceeds the corpus size, which forces every shard's whole-leaf
// candidate fallback — per-shard coverage is complete, so the router's
// exact full-space re-rank with its (dist, name, shot) total order yields
// one canonical ranking regardless of how entries were partitioned.
func TestGoldenEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 2003} {
		corpus := testCorpus(seed, 12+int(seed%5))
		k := totalShots(corpus) + 3
		queries := fixedQueries(8, 12, seed)

		base := buildRouter(t, 1, corpus, nil)
		want := searchAll(t, base, admin, queries, k)
		for qi, hits := range want {
			if len(hits) != totalShots(corpus) {
				t.Fatalf("seed %d query %d: baseline returned %d hits, want the whole corpus (%d)",
					seed, qi, len(hits), totalShots(corpus))
			}
		}

		for n := 2; n <= 4; n++ {
			l := buildRouter(t, n, corpus, nil)
			got := searchAll(t, l, admin, queries, k)
			mustSameHits(t, fmt.Sprintf("seed %d shards %d", seed, n), got, want)
		}
	}
}

// TestGoldenEquivalenceAcrossLeaves is TestGoldenEquivalence on a corpus
// spread over three subclusters, more concept leaves than the default beam
// of 2 reaches: a search asking for every shot must still visit every leaf
// on every shard, so each shard count answers with the whole corpus in one
// order.
func TestGoldenEquivalenceAcrossLeaves(t *testing.T) {
	subs := []string{"medicine", "nursing", "dentistry"}
	subOf := func(v corpusVideo) string { return subs[v.seed%3] }
	corpus := testCorpus(5, 15)
	queries := fixedQueries(8, 12, 5)
	for _, k := range []int{totalShots(corpus), totalShots(corpus) + 3} {
		want := searchAll(t, buildRouter(t, 1, corpus, subOf), admin, queries, k)
		for qi, hits := range want {
			if len(hits) != totalShots(corpus) {
				t.Fatalf("k=%d query %d: one shard returned %d hits, want the whole corpus (%d)",
					k, qi, len(hits), totalShots(corpus))
			}
		}
		for n := 2; n <= 4; n++ {
			got := searchAll(t, buildRouter(t, n, corpus, subOf), admin, queries, k)
			mustSameHits(t, fmt.Sprintf("k=%d shards %d", k, n), got, want)
		}
	}
}

// TestOneShardMatchesPlainLibrary pins that dist means one thing: a plain
// *classminer.Library and a router over a single shard return the same
// hits with the same Dist, bit for bit, whether k cuts the ranking short or
// exceeds the corpus — the index already reports the exact full-space
// distance the router's merge recomputes.
func TestOneShardMatchesPlainLibrary(t *testing.T) {
	for _, seed := range []int64{3, 19} {
		corpus := testCorpus(seed, 30)
		plain := classminer.NewLibrary(testAnalyzer(t))
		for _, v := range corpus {
			if err := plain.AddResult(tinyResult(t, v.name, v.seed, v.shots), "medicine"); err != nil {
				t.Fatal(err)
			}
		}
		if err := plain.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		router := buildRouter(t, 1, corpus, nil)
		queries := fixedQueries(8, 12, seed)
		for _, k := range []int{1, 5, totalShots(corpus) + 3} {
			want := make([][]classminer.SearchHit, len(queries))
			for i, q := range queries {
				hits, _, err := plain.SearchIntoCtx(context.Background(), nil, admin, q, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(hits) == 0 {
					t.Fatalf("seed %d k=%d query %d: plain library found nothing", seed, k, i)
				}
				want[i] = hits
			}
			mustSameHits(t, fmt.Sprintf("seed %d k=%d one shard vs plain", seed, k), searchAll(t, router, admin, queries, k), want)
		}
	}
}

// TestGoldenEquivalenceFiltered repeats the golden check under an access
// policy: Protect fans out to every shard, so shard-local ACL filtering
// must leave the merged ranking identical across shard counts.
func TestGoldenEquivalenceFiltered(t *testing.T) {
	corpus := testCorpus(11, 14)
	k := totalShots(corpus) + 1
	queries := fixedQueries(6, 12, 11)
	// Alternate subclusters, then protect one of them.
	subOf := func(v corpusVideo) string {
		if v.seed%2 == 0 {
			return "medicine"
		}
		return "nursing"
	}
	rule := classminer.Rule{Concept: "medicine", MinClearance: classminer.Administrator}
	viewer := classminer.User{Name: "nurse", Clearance: classminer.Clinician}

	build := func(n int) *Library {
		l := buildRouter(t, n, corpus, subOf)
		l.Protect(rule)
		return l
	}
	base := build(1)
	want := searchAll(t, base, viewer, queries, k)
	saw := 0
	for _, hits := range want {
		saw += len(hits)
		for _, h := range hits {
			if !strings.Contains(strings.Join(h.Entry.Path, "/"), "nursing") {
				t.Fatalf("filtered baseline leaked protected hit %s (%v)", h.Entry.VideoName, h.Entry.Path)
			}
		}
	}
	if saw == 0 {
		t.Fatal("filtered baseline saw nothing; fixture lost its teeth")
	}
	for n := 2; n <= 4; n++ {
		got := searchAll(t, build(n), viewer, queries, k)
		mustSameHits(t, fmt.Sprintf("filtered shards %d", n), got, want)
	}
}

// TestMergeTieOrdering plants byte-identical features under different names
// — one name per shard of a 4-shard router, registered in reverse name order
// so that entry ids, a single index's own tie-break, run against the name
// order. The ranking must break the exact distance ties by (video name, shot
// index) at every shard count: across shard boundaries at N = 4, and at
// N = 1 too, where the one shard's hits arrive in entry-id order and only
// the router's sort puts them in the order every other N returns.
func TestMergeTieOrdering(t *testing.T) {
	const maxN, shots = 4, 3
	names := make([]string, 0, maxN)
	seen := map[int]bool{}
	for i := 0; len(names) < maxN && i < 1000; i++ {
		name := fmt.Sprintf("twin-%03d", i)
		if s := shardIndex(name, maxN); !seen[s] {
			seen[s] = true
			names = append(names, name)
		}
	}
	if len(names) < maxN {
		t.Fatalf("could not find names covering %d shards", maxN)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	queries := fixedQueries(4, 12, 42)

	var want [][]classminer.SearchHit
	for _, n := range []int{1, maxN} {
		l, err := New(testAnalyzer(t), n)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if err := l.AddResult(tinyResult(t, name, 42, shots), "medicine"); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		got := searchAll(t, l, admin, queries, maxN*shots)
		for _, hits := range got {
			if len(hits) != maxN*shots {
				t.Fatalf("shards %d: got %d hits, want %d", n, len(hits), maxN*shots)
			}
			for i := 1; i < len(hits); i++ {
				a, b := hits[i-1], hits[i]
				switch {
				case a.Dist < b.Dist:
				case a.Dist > b.Dist:
					t.Fatalf("shards %d hit %d: distance order violated (%g then %g)", n, i, a.Dist, b.Dist)
				case a.Entry.VideoName < b.Entry.VideoName:
				case a.Entry.VideoName > b.Entry.VideoName:
					t.Fatalf("shards %d hit %d: name tie-break violated (%s then %s at dist %g)",
						n, i, a.Entry.VideoName, b.Entry.VideoName, a.Dist)
				case a.Entry.Shot.Index >= b.Entry.Shot.Index:
					t.Fatalf("shards %d hit %d: shot tie-break violated (%s shot %d then %d)",
						n, i, a.Entry.VideoName, a.Entry.Shot.Index, b.Entry.Shot.Index)
				}
			}
			// The clones tie exactly, so every distance occurs once per name.
			for i := 0; i < len(hits); i += maxN {
				if hits[i].Dist != hits[i+maxN-1].Dist {
					t.Fatalf("shards %d: hits %d..%d are not one tied run; fixture lost its teeth", n, i, i+maxN-1)
				}
			}
		}
		if want == nil {
			want = got
		} else {
			mustSameHits(t, fmt.Sprintf("exact ties, shards %d vs 1", n), got, want)
		}
	}
}

// TestOneShardSearchAllocFree pins what "the router is free at N = 1" means
// mechanically: with one non-empty shard nothing is spawned, nothing is
// pooled and the merge sorts in place, so a search into a reused buffer
// allocates nothing — exactly like the plain library it wraps.
func TestOneShardSearchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts differ under the race detector")
	}
	l := buildRouter(t, 1, testCorpus(13, 30), nil)
	q := fixedQueries(1, 12, 13)[0]
	ctx := context.Background()
	dst := make([]classminer.SearchHit, 0, 64)
	search := func() {
		hits, _, err := l.SearchIntoCtx(ctx, dst, admin, q, 10)
		if err != nil || len(hits) != 10 {
			t.Fatalf("search: %d hits, %v", len(hits), err)
		}
	}
	for i := 0; i < 8; i++ {
		search() // warm the index's scratch pools
	}
	if got := testing.AllocsPerRun(200, search); got != 0 {
		t.Fatalf("one-shard router search = %v allocs/op, want 0", got)
	}
}

// TestBuildIndexSkipsCurrentShards: a rebuild refits only the shards that
// drifted. One registration lands on one shard; the other shards' indexes
// are current full fits, refitting them would be bit-identical, and their
// generation — which every index swap advances — must not move.
func TestBuildIndexSkipsCurrentShards(t *testing.T) {
	const n = 4
	corpus := testCorpus(17, 16)
	l := buildRouter(t, n, corpus, nil)
	before := l.Stats().Shards

	late := "late-arrival"
	if err := l.AddResult(tinyResult(t, late, 170, 3), "medicine"); err != nil {
		t.Fatal(err)
	}
	mid := l.Stats().Shards
	if err := l.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	after := l.Stats().Shards
	for i := range after {
		switch {
		case i == shardIndex(late, n):
			if after[i].Generation <= mid[i].Generation || after[i].IndexStaleness != 0 ||
				after[i].IndexedShots != before[i].IndexedShots+3 {
				t.Fatalf("drifted shard %d was not refit: %+v -> %+v", i, mid[i].LibraryStats, after[i].LibraryStats)
			}
		case after[i].Generation != before[i].Generation || after[i].IndexedShots != before[i].IndexedShots:
			t.Fatalf("current shard %d was refit: %+v -> %+v", i, before[i].LibraryStats, after[i].LibraryStats)
		}
	}
	// Nothing drifted now: a rebuild is a no-op, not an error.
	if err := l.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	for i, ss := range l.Stats().Shards {
		if ss.Generation != after[i].Generation {
			t.Fatalf("shard %d refit although nothing drifted", i)
		}
	}
}

// copyTree copies a data dir as it stands — taken while the library is open,
// that is the image a SIGKILL leaves.
func copyTree(t testing.TB, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// storedBytes re-encodes every registered video's result, by name.
func storedBytes(t testing.TB, l *Library) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range l.VideoNames() {
		saved, err := store.EncodeResult(l.Video(name).Result)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(saved)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(raw)
	}
	return out
}

// mustSameVideos requires got to hold exactly want's videos, each with the
// same stored result.
func mustSameVideos(t testing.TB, label string, got, want *Library) {
	t.Helper()
	g, w := storedBytes(t, got), storedBytes(t, want)
	if len(g) != len(w) {
		t.Fatalf("%s: holds %v, want %v", label, got.VideoNames(), want.VideoNames())
	}
	for name, raw := range w {
		if g[name] != raw {
			t.Fatalf("%s: video %q is missing or its stored result differs", label, name)
		}
	}
}

// mustPlainLayout requires dir to be one plain data dir: one LOCK, one
// MANIFEST, one snapshot, log segments, and nothing else — no SHARDS
// manifest, no shard-<i>/.
func mustPlainLayout(t testing.TB, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir():
			t.Fatalf("data dir holds a subdirectory %s", name)
		case name == "LOCK" || name == "MANIFEST":
			count[name]++
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".ckpt"):
			count["snap"]++
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			count["wal"]++
		default:
			t.Fatalf("data dir holds %s, which no plain data dir has", name)
		}
	}
	if count["LOCK"] != 1 || count["MANIFEST"] != 1 || count["snap"] != 1 || count["wal"] == 0 {
		t.Fatalf("data dir holds %v; want one LOCK, one MANIFEST, one snapshot and the log", count)
	}
}

// recoveryScript is one seeded interleaving of registers, replaces and
// deletes over a pool of names wide enough that every shard of every count
// under test owns several. run applies it to each library in turn, calling
// between(step) after every step.
type recoveryScript struct {
	seed  int64
	steps int
}

func (sc recoveryScript) run(t testing.TB, apply func(op func(*Library) error), between func(step int)) {
	t.Helper()
	rng := rand.New(rand.NewSource(sc.seed))
	var live []string
	next := 0
	for step := 0; step < sc.steps; step++ {
		switch r := rng.Float64(); {
		case r < 0.55 || len(live) < 4:
			name := fmt.Sprintf("case-%d-%02d", sc.seed, next)
			next++
			res := tinyResult(t, name, sc.seed*1000+int64(step), 2+rng.Intn(3))
			apply(func(x *Library) error { return x.AddResult(res, "medicine") })
			live = append(live, name)
		case r < 0.8:
			name := live[rng.Intn(len(live))]
			res := tinyResult(t, name, sc.seed*1000+int64(step), 2+rng.Intn(3))
			apply(func(x *Library) error {
				return x.ReplaceResultAsCtx(context.Background(), admin, res, "medicine")
			})
		default:
			i := rng.Intn(len(live))
			name := live[i]
			live = append(live[:i], live[i+1:]...)
			apply(func(x *Library) error { return x.DeleteVideoAsCtx(context.Background(), admin, name) })
		}
		between(step)
	}
}

// TestShardedRecoverEquivalence: any count opens any dir, across a crash.
// One script runs durably at each a in {1, 2, 4} beside an in-memory
// reference router of the same count, the data dir is copied as it stands
// after the last acknowledged op (no Close: the image a SIGKILL leaves), and
// the copy is recovered at each b in {1, 2, 4}. Every one of the nine holds
// the reference's videos with the same stored results and ranks the whole
// corpus identically; with a = b it also answers k = 10 exactly like the
// reference. The checkpoint variant puts the all-shard snapshot source — and
// the prune of the segments behind it — on the path.
func TestShardedRecoverEquivalence(t *testing.T) {
	a := testAnalyzer(t)
	counts := []int{1, 2, 4}
	script := recoveryScript{seed: 5, steps: 48}
	queries := fixedQueries(6, 12, 5)
	for _, variant := range []string{"wal-only", "checkpoint"} {
		t.Run(variant, func(t *testing.T) {
			opts := quietWAL()
			opts.SegmentBytes = 4 << 10        // several sealed segments per run
			var whole [][]classminer.SearchHit // the full ranking; the same for all nine
			for _, from := range counts {
				dir := t.TempDir()
				l, err := Recover(dir, from, a, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				ref, err := New(a, from)
				if err != nil {
					t.Fatal(err)
				}
				script.run(t, func(op func(*Library) error) {
					t.Helper()
					if err := op(l); err != nil {
						t.Fatal(err)
					}
					if err := op(ref); err != nil {
						t.Fatal(err)
					}
				}, func(step int) {
					if variant == "checkpoint" && step == script.steps*2/3 {
						if err := l.Checkpoint(); err != nil {
							t.Fatal(err)
						}
					}
				})
				if err := ref.BuildIndex(); err != nil {
					t.Fatal(err)
				}
				k := ref.Size() + 3
				if whole == nil {
					whole = searchAll(t, ref, admin, queries, k)
				}
				for _, to := range counts {
					label := fmt.Sprintf("written at %d, recovered at %d", from, to)
					killed := filepath.Join(t.TempDir(), "killed")
					copyTree(t, dir, killed)
					rec, err := Recover(killed, to, a, opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if rec.ShardCount() != to {
						t.Fatalf("%s: serving %d shards", label, rec.ShardCount())
					}
					mustSameVideos(t, label, rec, ref)
					if err := rec.BuildIndex(); err != nil {
						t.Fatal(err)
					}
					mustSameHits(t, label, searchAll(t, rec, admin, queries, k), whole)
					if to == from {
						mustSameHits(t, label+", k=10", searchAll(t, rec, admin, queries, 10), searchAll(t, ref, admin, queries, 10))
					}
					if err := rec.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestEveryShardCountLivesAtTopLevel: a durable router is one plain
// classminer data dir whatever its count — one engine, one lock, no SHARDS
// manifest, no shard-<i>/ — so the router at any N and classminer.Recover
// open each other's directories, and n = 0 means 1.
func TestEveryShardCountLivesAtTopLevel(t *testing.T) {
	a := testAnalyzer(t)
	corpus := testCorpus(9, 12)
	queries := fixedQueries(4, 12, 9)
	k := totalShots(corpus) + 1
	opts := quietWAL()
	opts.SegmentBytes = 2 << 10

	for _, n := range []int{0, 1, 2, 4} {
		t.Run(fmt.Sprintf("shards-%d", n), func(t *testing.T) {
			dir := t.TempDir()
			// Written by a plain library, killed without a checkpoint...
			pl, err := classminer.Recover(dir, a, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range corpus[:4] {
				if err := pl.AddResult(tinyResult(t, v.name, v.seed, v.shots), "medicine"); err != nil {
					t.Fatal(err)
				}
			}
			if err := pl.Close(); err != nil {
				t.Fatal(err)
			}
			// ...extended through the router at n, checkpointed twice...
			l, err := Recover(dir, n, a, opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := max(n, 1); l.ShardCount() != want || l.Stats().Videos != 4 {
				t.Fatalf("router over a plain dir: %d shards, %d videos; want %d, 4", l.ShardCount(), l.Stats().Videos, want)
			}
			for i := 0; i < l.ShardCount(); i++ {
				if eng := l.ShardAt(i).Engine(); eng == nil || eng != l.Engine() {
					t.Fatalf("shard %d journals to engine %p, the router's is %p; want one engine", i, eng, l.Engine())
				}
			}
			if other, err := Recover(dir, 2, a, opts); err == nil {
				other.Close()
				t.Fatal("a second router opened the dir; want the one data-dir lock to refuse it")
			}
			for _, v := range corpus[4:] {
				if err := l.AddResult(tinyResult(t, v.name, v.seed, v.shots), "medicine"); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for round := int64(1); round <= 2; round++ {
				for _, v := range corpus[:6] {
					res := tinyResult(t, v.name, v.seed+500*round, v.shots)
					if err := l.ReplaceResultAsCtx(context.Background(), admin, res, "medicine"); err != nil {
						t.Fatal(err)
					}
				}
				if round == 1 { // reclaims what the first round killed; the second supersedes its snapshot from the log
					if err := l.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := l.BuildIndex(); err != nil {
				t.Fatal(err)
			}
			want := searchAll(t, l, admin, queries, k)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			mustPlainLayout(t, dir)
			// ...and read back by a plain library, and by the router at 1 and 4.
			pl, err = classminer.Recover(dir, a, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := pl.Stats().Videos; got != len(corpus) {
				t.Fatalf("plain library recovered %d videos from the router's dir, want %d", got, len(corpus))
			}
			if err := pl.Close(); err != nil {
				t.Fatal(err)
			}
			for _, m := range []int{1, 4} {
				l, err = Recover(dir, m, a, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := l.BuildIndex(); err != nil {
					t.Fatal(err)
				}
				mustSameHits(t, fmt.Sprintf("reopened at %d shards", m), searchAll(t, l, admin, queries, k), want)
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}
			mustPlainLayout(t, dir)
		})
	}
}

// TestCheckpointSameBytesAtEveryShardCount: a checkpoint streams every
// shard's videos as one name-ordered run of records, so the snapshot a
// history leaves is the same file however many shards held it — and its
// header counts what follows.
func TestCheckpointSameBytesAtEveryShardCount(t *testing.T) {
	a := testAnalyzer(t)
	corpus := testCorpus(31, 14)
	var want []byte
	for _, n := range []int{1, 2, 4} {
		dir := t.TempDir()
		l, err := Recover(dir, n, a, quietWAL())
		if err != nil {
			t.Fatal(err)
		}
		for i := len(corpus) - 1; i >= 0; i-- { // registered against the name order
			v := corpus[i]
			if err := l.AddResult(tinyResult(t, v.name, v.seed, v.shots), "medicine"); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.DeleteVideoAsCtx(context.Background(), admin, corpus[3].name); err != nil {
			t.Fatal(err)
		}
		if err := l.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		snap := l.Engine().SnapshotPath()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			var h wal.SnapshotHeader
			var keys []string
			err := wal.ReadSnapshot(bytes.NewReader(got), func(hdr wal.SnapshotHeader) error { h = hdr; return nil },
				func(frame []byte) error {
					rec, err := wal.DecodeRecord(frame)
					keys = append(keys, rec.Key)
					return err
				})
			if err != nil {
				t.Fatal(err)
			}
			if wantH := (wal.SnapshotHeader{Videos: len(corpus) - 1, Rows: totalShots(corpus) - corpus[3].shots, Dim: 12}); h != wantH {
				t.Fatalf("snapshot header %+v, want %+v", h, wantH)
			}
			if !sort.StringsAreSorted(keys) || len(keys) != h.Videos {
				t.Fatalf("snapshot records %v: want %d in name order", keys, h.Videos)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("the snapshot written at %d shards differs from the one written at 1", n)
		}
	}
}

// TestStatsAggregation: the router's Stats must sum counters across shards,
// take the worst staleness, report the one log's WAL block once — on the
// aggregate, not per shard — and carry a per-shard breakdown of the library
// counters: the /v1/stats payload.
func TestStatsAggregation(t *testing.T) {
	a := testAnalyzer(t)
	dir := t.TempDir()
	l, err := Recover(dir, 3, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	corpus := testCorpus(21, 9)
	for _, v := range corpus {
		if err := l.AddResult(tinyResult(t, v.name, v.seed, v.shots), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	st := l.Stats()
	if len(st.Shards) != 3 {
		t.Fatalf("Stats carries %d shard blocks, want 3", len(st.Shards))
	}
	var videos, shots int
	var gen int64
	for i, ss := range st.Shards {
		if ss.Shard != i {
			t.Fatalf("shard block %d labeled %d", i, ss.Shard)
		}
		videos += ss.Videos
		shots += ss.Shots
		gen += ss.Generation
		if ss.WAL != nil {
			t.Fatalf("shard %d block carries WAL stats; the shards share one log", i)
		}
	}
	if videos != len(corpus) || st.Videos != videos {
		t.Fatalf("videos: aggregate %d, sum %d, want %d", st.Videos, videos, len(corpus))
	}
	if st.Shots != shots || shots != totalShots(corpus) {
		t.Fatalf("shots: aggregate %d, sum %d, want %d", st.Shots, shots, totalShots(corpus))
	}
	if st.Generation != gen {
		t.Fatalf("generation: aggregate %d, sum of shards %d", st.Generation, gen)
	}
	if st.WAL == nil {
		t.Fatal("aggregate WAL block missing on a durable library")
	}
	if ws, _ := l.WALStats(); *st.WAL != ws || ws.Records != int64(len(corpus)) {
		t.Fatalf("wal block = %+v, the engine says %+v; want %d records", *st.WAL, ws, len(corpus))
	}
	if g := l.Generation(); g != gen {
		t.Fatalf("Generation() = %d, want shard sum %d", g, gen)
	}
	// Every shard of a spread-out corpus should own something; the fixture
	// names are chosen to cover all three shards.
	for i, ss := range st.Shards {
		if ss.Videos == 0 {
			t.Fatalf("shard %d owns no videos; fixture names degenerate", i)
		}
	}
}

// TestConcurrentMutateWhileSearch hammers one router from searchers,
// mutators and an index rebuilder at once; run under -race this is the
// scatter-gather path's data-race gate. One pinned video per shard keeps
// every shard non-empty so searches never hit the all-empty error.
func TestConcurrentMutateWhileSearch(t *testing.T) {
	const n = 3
	l, err := New(testAnalyzer(t), n)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	pins := 0
	for i := 0; i < 1000 && pins < n; i++ {
		name := fmt.Sprintf("pin-%03d", i)
		if s := shardIndex(name, n); !seen[s] {
			seen[s] = true
			pins++
			if err := l.AddResult(tinyResult(t, name, int64(i), 3), "medicine"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	const iters = 120
	queries := fixedQueries(4, 12, 77)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := queries[(w+i)%len(queries)]
				if _, _, err := l.SearchIntoCtx(context.Background(), nil, admin, q, 5); err != nil {
					t.Errorf("search: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			name := fmt.Sprintf("churn-%03d", i%20)
			switch {
			case i%5 == 4:
				// Deletes may race another delete of the same name.
				_ = l.DeleteVideoAsCtx(context.Background(), admin, name)
			default:
				err := l.AddResult(tinyResult(t, name, int64(i), 2), "medicine")
				if err != nil && !errors.Is(err, classminer.ErrDuplicateVideo) {
					t.Errorf("add %s: %v", name, err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/10; i++ {
			if err := l.BuildIndex(); err != nil {
				t.Errorf("rebuild: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if err := l.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	hits, _, err := l.SearchIntoCtx(context.Background(), nil, admin, queries[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits after churn")
	}
}

// TestSearchBatchMatchesSingleQueries: the batch path must agree with the
// one-at-a-time scatter-gather path query by query.
func TestSearchBatchMatchesSingleQueries(t *testing.T) {
	corpus := testCorpus(41, 11)
	l := buildRouter(t, 3, corpus, nil)
	k := totalShots(corpus) + 1
	queries := fixedQueries(5, 12, 41)

	batch, _, err := l.SearchBatch(admin, queries, k)
	if err != nil {
		t.Fatal(err)
	}
	mustSameHits(t, "batch", batch, searchAll(t, l, admin, queries, k))
}

// TestEmptyRouterSearchError: an entirely empty router mirrors the single
// library's "index not built" contract.
func TestEmptyRouterSearchError(t *testing.T) {
	l, err := New(testAnalyzer(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.SearchIntoCtx(context.Background(), nil, admin, make([]float64, 12), 5); err == nil {
		t.Fatal("search on an empty router succeeded; want the index-not-built error")
	}
	if err := l.BuildIndex(); err == nil {
		t.Fatal("BuildIndex on an empty router succeeded; want the no-videos error")
	}
}

// TestScenesByEventOrder pins the order of an event's scene listing: by video
// name, then scene index, the same for every identical request and at every
// shard count — and the same order a shard, a plain library, answers in.
func TestScenesByEventOrder(t *testing.T) {
	corpus := testCorpus(5, 8)
	var want []string
	for _, v := range corpus { // testCorpus names sort in corpus order
		for sc := 0; sc < 3; sc++ {
			want = append(want, fmt.Sprintf("%s/%d", v.name, sc))
		}
	}
	listing := func(refs []classminer.SceneRef) []string {
		out := make([]string, len(refs))
		for i, r := range refs {
			out[i] = fmt.Sprintf("%s/%d", r.VideoName, r.Scene.Index)
		}
		return out
	}
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			l, err := New(testAnalyzer(t), n)
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range rand.New(rand.NewSource(int64(n))).Perm(len(corpus)) {
				v := corpus[i]
				sr := tinySaved(v.name, v.seed, v.shots)
				sr.Scenes = nil
				for sc := 0; sc < 3; sc++ {
					sr.Scenes = append(sr.Scenes, store.SavedScene{Index: sc, Groups: []int{0}, RepGroup: 0, Event: int(classminer.EventDialog)})
				}
				res, err := store.DecodeResult(sr)
				if err != nil {
					t.Fatal(err)
				}
				if err := l.AddResultCtx(context.Background(), res, "medicine"); err != nil {
					t.Fatal(err)
				}
			}
			for call := 0; call < 20; call++ {
				if got := listing(l.ScenesByEvent(admin, classminer.EventDialog)); !slices.Equal(got, want) {
					t.Fatalf("call %d: scenes %v, want %v", call, got, want)
				}
			}
			for i := 0; i < n; i++ {
				got := listing(l.ShardAt(i).ScenesByEvent(admin, classminer.EventDialog))
				if !slices.IsSorted(got) {
					t.Fatalf("shard %d: scenes %v, not in name order", i, got)
				}
			}
		})
	}
}
