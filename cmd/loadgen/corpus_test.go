package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"

	"classminer/internal/index"
	"classminer/internal/store"
	"classminer/internal/vidmodel"
)

// smokeCorpus caches the small corpus the tests share.
var smokeCorpus = sync.OnceValues(func() (*corpus, error) { return generateCorpus(smokeSize) })

func testCorpus(t *testing.T) *corpus {
	t.Helper()
	co, err := smokeCorpus()
	if err != nil {
		t.Fatal(err)
	}
	return co
}

func TestSeedFixesCorpusAndQueries(t *testing.T) {
	a := testCorpus(t)
	b, err := generateCorpus(smokeSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.baseBodies) != smokeSize.Videos || len(a.pool) != smokeSize.Pool || len(a.entries) != smokeSize.Videos*smokeSize.ShotsPerVideo {
		t.Fatalf("corpus has %d videos, %d pool bodies, %d shots", len(a.baseBodies), len(a.pool), len(a.entries))
	}
	// The corpus is the same in every run, whatever the seed.
	for i := range a.baseBodies {
		if !bytes.Equal(a.baseBodies[i], b.baseBodies[i]) {
			t.Fatalf("two generations differ in the body for %s", a.names[i])
		}
	}
	for i := range a.pool {
		if !bytes.Equal(a.pool[i].prefix, b.pool[i].prefix) || !bytes.Equal(a.pool[i].suffix, b.pool[i].suffix) {
			t.Fatalf("two generations differ in write-pool body %d", i)
		}
	}
	for i := range a.searchBodies {
		if !bytes.Equal(a.searchBodies[i], b.searchBodies[i]) {
			t.Fatalf("two generations differ in search body %d", i)
		}
	}
	for n := range a.exact {
		if fmt.Sprint(a.exact[n]) != fmt.Sprint(b.exact[n]) {
			t.Fatalf("two generations differ in the exact answer to sample query %d", n)
		}
	}
	if bytes.Equal(a.baseBodies[0], a.baseBodies[3]) {
		t.Error("two videos of the same subcluster share a body")
	}

	// The seed decides the traffic.
	shots := len(a.entries)
	hot := hotSet(7, shots)
	draw := func(seed int64, client int, hot []int, share float64) []int {
		src := newQuerySource(seed, client, shots, hot, share)
		out := make([]int, 1000)
		for i := range out {
			out[i] = src.next()
		}
		return out
	}
	if fmt.Sprint(draw(7, 0, hot, 0.8)) != fmt.Sprint(draw(7, 0, hot, 0.8)) {
		t.Error("same seed and client, different query sequence")
	}
	if fmt.Sprint(draw(7, 0, hot, 0.8)) == fmt.Sprint(draw(7, 1, hot, 0.8)) {
		t.Error("two clients share one query sequence")
	}
	if fmt.Sprint(draw(7, 0, hot, 0.8)) == fmt.Sprint(draw(8, 0, hot, 0.8)) {
		t.Error("two seeds share one query sequence")
	}
	if fmt.Sprint(hotSet(8, shots)) == fmt.Sprint(hot) {
		t.Error("two seeds share one hot set")
	}
	if fmt.Sprint(hotSet(7, shots)) != fmt.Sprint(hot) || len(hot) != hotSetSize {
		t.Errorf("hot set is not a fixed %d-shot set", hotSetSize)
	}
	inHot := map[int]bool{}
	for _, id := range hot {
		inHot[id] = true
	}
	for _, id := range draw(7, 0, hot, 1) {
		if !inHot[id] {
			t.Fatalf("cached workload drew shot %d from outside the hot set", id)
		}
	}
	fromHot := 0
	for _, id := range draw(7, 0, hot, 0.8) {
		if inHot[id] {
			fromHot++
		}
	}
	if fromHot < 750 || fromHot > 900 {
		t.Errorf("mixed workload drew %d of 1000 from the hot set, want about 800", fromHot)
	}
}

func TestNameSplicing(t *testing.T) {
	co := testCorpus(t)
	var scratch []byte
	for _, name := range []string{"churn-0", "churn-123456"} {
		scratch = co.pool[3].splice(scratch, name)
		var req struct {
			Subcluster string             `json:"subcluster"`
			Name       string             `json:"name"`
			Saved      *store.SavedResult `json:"saved"`
		}
		if err := json.Unmarshal(scratch, &req); err != nil {
			t.Fatalf("spliced body for %s is not JSON: %v", name, err)
		}
		if req.Name != name {
			t.Errorf("spliced body names %q, want %q", req.Name, name)
		}
		if req.Saved == nil || len(req.Saved.Shots) != smokeSize.ShotsPerVideo || req.Subcluster == "" {
			t.Errorf("spliced body for %s lost its payload", name)
		}
		if bytes.Contains(scratch, []byte(namePlaceholder)) {
			t.Errorf("spliced body for %s still holds the placeholder", name)
		}
		if _, err := store.DecodeResult(req.Saved); err != nil {
			t.Errorf("spliced body for %s does not decode: %v", name, err)
		}
	}
	// The scratch buffer is reused, and a shorter name after a longer one
	// must not leave a tail behind.
	long := append([]byte(nil), co.pool[3].splice(scratch, "churn-123456")...)
	short := co.pool[3].splice(scratch, "churn-1")
	if len(short) != len(long)-5 {
		t.Errorf("re-spliced body is %d bytes, want %d", len(short), len(long)-5)
	}
}

func TestCheckReplyCatchesWrongAnswers(t *testing.T) {
	co := testCorpus(t)
	const id = 11
	query := co.entries[id].Shot.Feature()
	// A correct reply: loadgen's own flat scan, true distances, exact order.
	good := func() *searchReply {
		r := &searchReply{}
		res, _ := index.FlatSearch(co.entries, query, searchK)
		for _, h := range res {
			r.Hits = append(r.Hits, replyHit{Video: h.Entry.VideoName, Shot: h.Entry.Shot.Index, Dist: h.Dist})
		}
		return r
	}
	if err := checkReply(co, id, good()); err != nil {
		t.Fatalf("exact answer rejected: %v", err)
	}
	if top := good().Hits[0]; top.Dist != 0 || top.Video != co.entries[id].VideoName || top.Shot != co.entries[id].Shot.Index {
		t.Fatalf("the example is not its own nearest neighbour: %+v", top)
	}
	// A single library reports reduced-space distances, which are shorter.
	shrunk := good()
	for i := range shrunk.Hits {
		shrunk.Hits[i].Dist *= 0.9
	}
	if err := checkReply(co, id, shrunk); err != nil {
		t.Errorf("distances under the true ones rejected: %v", err)
	}
	corrupt := map[string]func(r *searchReply){
		"a hit dropped":              func(r *searchReply) { r.Hits = r.Hits[:searchK-1] },
		"ranks swapped":              func(r *searchReply) { r.Hits[1], r.Hits[8] = r.Hits[8], r.Hits[1] },
		"a hit repeated":             func(r *searchReply) { r.Hits[2] = r.Hits[1] },
		"a shot that was never sent": func(r *searchReply) { r.Hits[4].Video = "base-9999" },
		"a distance overstated":      func(r *searchReply) { r.Hits[9].Dist *= 1.01 },
		"a churn shot out of range":  func(r *searchReply) { r.Hits[4].Video, r.Hits[4].Shot = "churn-3", 999 },
	}
	for what, mutate := range corrupt {
		r := good()
		mutate(r)
		if err := checkReply(co, id, r); err == nil {
			t.Errorf("reply with %s passed the oracle", what)
		}
	}
	// A hit on a churn video resolves through the write pool body its op used.
	op := len(co.pool) + 3
	got, ok := co.distanceTo(id, churnName(op), 2)
	sh := co.poolShots[3][2]
	want := math.Sqrt(index.ShotSqDist(&vidmodel.Shot{Color: sh.Color, Texture: sh.Texture}, query))
	if !ok || got != want {
		t.Errorf("distance to %s/2 = %v (found %v), want %v", churnName(op), got, ok, want)
	}
}

func TestCorruptedRecordingFailsTheRun(t *testing.T) {
	s := &session{co: testCorpus(t)}
	ids := []int{1, 2, 3}
	recorded := [][]byte{[]byte(`[{"video":"a"}]`), []byte(`[{"video":"b"}]`), []byte(`[{"video":"c"}]`)}
	same := [][]byte{[]byte(`[{"video":"a"}]`), []byte(`[{"video":"b"}]`), []byte(`[{"video":"c"}]`)}
	s.compareAnswers(ids, recorded, same, "the pre-kill recording")
	if s.failed != 0 {
		t.Fatalf("identical answers counted %d failures", s.failed)
	}
	recorded[1] = []byte(`[{"video":"B"}]`) // corrupt one recorded answer
	s.compareAnswers(ids, recorded, same, "the pre-kill recording")
	if s.failed != 1 || len(s.failures) != 1 {
		t.Fatalf("a corrupted recording counted %d failures, want 1", s.failed)
	}
	if code := exitCode(s.failed); code == 0 {
		t.Error("a run with a failed operation exits 0")
	}
	if code := exitCode(0); code != 0 {
		t.Errorf("a clean run exits %d", code)
	}
}
