package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"classminer"
	"classminer/internal/store"
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
		hits, _, err := l.Search(u, q, k)
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
				hits, _, err := plain.Search(admin, q, k)
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
		case i == l.Owner(late):
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

// TestShardedRecoverEquivalence drives a durable sharded router through
// registrations, a replace and a delete, kills it without any shutdown
// save, and requires the reopened router (shard count read back from the
// SHARDS manifest) to answer exactly like an in-memory reference.
func TestShardedRecoverEquivalence(t *testing.T) {
	a := testAnalyzer(t)
	dir := t.TempDir()
	corpus := testCorpus(5, 12)
	k := totalShots(corpus) + 3
	queries := fixedQueries(6, 12, 5)

	l, err := Recover(dir, 4, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(op func(*Library) error) {
		t.Helper()
		if err := op(l); err != nil {
			t.Fatal(err)
		}
		if err := op(ref); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range corpus {
		v := v
		apply(func(x *Library) error { return x.AddResult(tinyResult(t, v.name, v.seed, v.shots), "medicine") })
	}
	apply(func(x *Library) error { return x.DeleteVideo(corpus[3].name) })
	apply(func(x *Library) error {
		return x.ReplaceResultAsCtx(context.Background(), admin, tinyResult(t, corpus[5].name, 999, 4), "medicine")
	})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Layout: parent holds the SHARDS manifest plus one subdir per shard,
	// each a full single-shard data dir (lock file + its own WAL).
	if n, err := recordedCount(dir); err != nil || n != 4 {
		t.Fatalf("recordedCount(%s) = %d, %v; want 4", dir, n, err)
	}
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(filepath.Join(shardDir(dir, i), "LOCK")); err != nil {
			t.Fatalf("shard %d has no data dir lock: %v", i, err)
		}
		segs, _ := filepath.Glob(filepath.Join(shardDir(dir, i), "wal-*.log"))
		if len(segs) == 0 {
			t.Fatalf("shard %d has no WAL segments", i)
		}
	}

	// n <= 0 means "use the recorded shard count".
	rec, err := Recover(dir, 0, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.ShardCount() != 4 {
		t.Fatalf("recovered %d shards, want 4", rec.ShardCount())
	}
	if err := rec.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if err := ref.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	mustSameHits(t, "recovered", searchAll(t, rec, admin, queries, k), searchAll(t, ref, admin, queries, k))

	st := rec.Stats()
	if st.Videos != len(corpus)-1 {
		t.Fatalf("recovered %d videos, want %d", st.Videos, len(corpus)-1)
	}
}

// TestRecoverShardCountPinned: reopening with a different shard count is an
// error (resharding is a migration, not a flag change), in both layouts.
func TestRecoverShardCountPinned(t *testing.T) {
	a := testAnalyzer(t)
	dir := t.TempDir()
	l, err := Recover(dir, 3, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2} {
		if _, err := Recover(dir, n, a, quietWAL()); err == nil {
			t.Fatalf("reopening a 3-shard dir with n=%d succeeded; want an error", n)
		}
	}

	plain := t.TempDir()
	pl, err := classminer.Recover(plain, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(plain, 4, a, quietWAL()); err == nil {
		t.Fatal("sharding over a one-shard dir succeeded; want an error")
	}
	if n, _ := recordedCount(plain); n != 0 {
		t.Fatalf("the refused reshard left a SHARDS manifest recording %d", n)
	}
}

// TestOneShardLivesAtTopLevel: one shard is a plain classminer data dir — no
// SHARDS manifest, no shard-0/ — so the router and classminer.Recover open
// each other's directories, and n = 0 on a dir that records nothing means 1.
func TestOneShardLivesAtTopLevel(t *testing.T) {
	a := testAnalyzer(t)
	dir := t.TempDir()
	corpus := testCorpus(9, 6)
	queries := fixedQueries(4, 12, 9)
	k := totalShots(corpus) + 1

	// Written by a plain library, killed without a checkpoint...
	pl, err := classminer.Recover(dir, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range corpus[:3] {
		if err := pl.AddResult(tinyResult(t, v.name, v.seed, v.shots), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	// ...extended through the router (n = 0: the dir records nothing, so 1)...
	l, err := Recover(dir, 0, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	if l.ShardCount() != 1 || l.Stats().Videos != 3 {
		t.Fatalf("router over a plain dir: %d shards, %d videos; want 1, 3", l.ShardCount(), l.Stats().Videos)
	}
	for _, v := range corpus[3:] {
		if err := l.AddResult(tinyResult(t, v.name, v.seed, v.shots), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	want := searchAll(t, l, admin, queries, k)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{manifestName, "shard-0"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("one-shard data dir grew %s (stat: %v)", name, err)
		}
	}
	// ...and read back by a plain library, and by the router asked for 1.
	pl, err = classminer.Recover(dir, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Stats().Videos; got != len(corpus) {
		t.Fatalf("plain library recovered %d videos from the router's dir, want %d", got, len(corpus))
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Recover(dir, 1, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	mustSameHits(t, "reopened one-shard dir", searchAll(t, l, admin, queries, k), want)
}

// TestStatsAggregation: the router's Stats must sum counters across shards,
// take the worst staleness, aggregate the WAL block (sum counters, min
// generation) and carry a per-shard breakdown — the /v1/stats payload.
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
	var gen, walRecords, walSyncs int64
	for i, ss := range st.Shards {
		if ss.Shard != i {
			t.Fatalf("shard block %d labeled %d", i, ss.Shard)
		}
		videos += ss.Videos
		shots += ss.Shots
		gen += ss.Generation
		if ss.WAL == nil {
			t.Fatalf("shard %d missing WAL stats on a durable library", i)
		}
		walRecords += ss.WAL.Records
		walSyncs += ss.WAL.Syncs
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
	if st.WAL.Records != walRecords || walRecords != int64(len(corpus)) {
		t.Fatalf("wal records: aggregate %d, sum %d, want %d", st.WAL.Records, walRecords, len(corpus))
	}
	if st.WAL.Syncs != walSyncs {
		t.Fatalf("wal syncs: aggregate %d, sum %d", st.WAL.Syncs, walSyncs)
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

// TestImportSnapshotRoutesAcrossShards: ImportSnapshot must route a library
// snapshot (classminer.Library.Save's format, what -load reads) across
// shards by name, skipping what is already registered when asked to.
func TestImportSnapshotRoutesAcrossShards(t *testing.T) {
	corpus := testCorpus(31, 10)
	one := buildRouter(t, 1, corpus, nil)
	var snap bytes.Buffer
	if err := one.ShardAt(0).Save(&snap); err != nil {
		t.Fatal(err)
	}

	imported, err := New(testAnalyzer(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	n, err := imported.ImportSnapshot(bytes.NewReader(snap.Bytes()), false)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(corpus) {
		t.Fatalf("imported %d videos, want %d", n, len(corpus))
	}
	if n, err := imported.ImportSnapshot(bytes.NewReader(snap.Bytes()), true); err != nil || n != 0 {
		t.Fatalf("re-import skipping existing = %d, %v; want 0, nil", n, err)
	}
	if err := imported.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	k := totalShots(corpus) + 1
	queries := fixedQueries(4, 12, 31)
	mustSameHits(t, "imported", searchAll(t, imported, admin, queries, k), searchAll(t, one, admin, queries, k))
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
				if _, _, err := l.Search(admin, q, 5); err != nil {
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
				_ = l.DeleteVideo(name)
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
	hits, _, err := l.Search(admin, queries[0], 5)
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
	if _, _, err := l.Search(admin, make([]float64, 12), 5); err == nil {
		t.Fatal("search on an empty router succeeded; want the index-not-built error")
	}
	if err := l.BuildIndex(); err == nil {
		t.Fatal("BuildIndex on an empty router succeeded; want the no-videos error")
	}
}
