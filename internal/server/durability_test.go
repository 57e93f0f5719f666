package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"classminer"
	"classminer/internal/store"
)

// tinySavedResult fabricates a small mined result for ingestion tests
// (deterministic features, one group, one scene) without running the
// mining pipeline.
func tinySavedResult(name string, seed int64, shots int) *store.SavedResult {
	rng := rand.New(rand.NewSource(seed))
	sr := &store.SavedResult{
		Version: store.FormatVersion, VideoName: name, FPS: 25, TotalFrames: shots * 50,
	}
	feat := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	group := store.SavedGroup{Index: 0, RepShots: []int{0}}
	for i := 0; i < shots; i++ {
		sr.Shots = append(sr.Shots, store.SavedShot{
			Index: i, Start: i * 50, End: (i+1)*50 - 1, RepFrame: i * 50,
			Color: feat(8), Texture: feat(4),
		})
		group.Shots = append(group.Shots, i)
	}
	sr.Groups = []store.SavedGroup{group}
	sr.Scenes = []store.SavedScene{{Index: 0, Groups: []int{0}, RepGroup: 0}}
	return sr
}

// mustIngest pushes one saved result through POST /v1/videos and requires
// the 202 that says it is done: registrations land in call order.
func mustIngest(t *testing.T, s *Server, name string, seed int64) {
	t.Helper()
	mustIngestSaved(t, s, tinySavedResult(name, seed, 3+int(seed)%3))
}

// mustIngestSaved is mustIngest for a result the caller made.
func mustIngestSaved(t *testing.T, s *Server, sr *store.SavedResult) {
	t.Helper()
	mustPostIngest(t, s, map[string]any{"subcluster": "medicine", "saved": sr})
}

// mustPostIngest posts one ingest body as the administrator and requires a
// 202 whose job record is done.
func mustPostIngest(t *testing.T, s *Server, req map[string]any) {
	t.Helper()
	var job Job
	w := doRaw(t, s, http.MethodPost, "/v1/videos", "admin-tok", req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("ingest = %d: %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &job); err != nil {
		t.Fatal(err)
	}
	if job.Status != "done" || job.ID == "" {
		t.Fatalf("ingest answered 202 with %+v, want a done job", job)
	}
}

// searchBody builds a fixed /v1/search request from a deterministic query.
func searchBody(qseed int64) map[string]any {
	rng := rand.New(rand.NewSource(qseed))
	q := make([]float64, 12)
	for i := range q {
		q[i] = rng.Float64()
	}
	return map[string]any{"query": q, "k": 5}
}

// TestKillAndRestartServesIdenticalSearches is the ISSUE 3 acceptance
// test: register results through the HTTP ingest path into a durable
// library, abandon the process state SIGKILL-style (no shutdown save, no
// Close), recover from the data directory, and verify the recovered
// library serves byte-identical /v1/search results for a fixed query set.
func TestKillAndRestartServesIdenticalSearches(t *testing.T) {
	a, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wopts := classminer.DurableOptions{CheckpointBytes: -1, CheckpointRecords: -1}
	lib, err := classminer.Recover(dir, a, wopts)
	if err != nil {
		t.Fatal(err)
	}
	// Cache disabled so both runs compute every answer.
	s := New(lib, Options{Tokens: testTokens(), CacheSize: -1})

	const n = 8
	for i := 0; i < n; i++ {
		mustIngest(t, s, fmt.Sprintf("ingested-%02d", i), int64(i))
	}
	// Refit over the full registration set before capturing: the serving
	// index at this point is the cold-start fit plus incremental inserts,
	// whose distances come from the older fit's reduced spaces. Recovery
	// also ends in a full BuildIndex, so byte-identical comparison is
	// full-fit vs full-fit over the same entries in the same order.
	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	var before []string
	for q := 0; q < 6; q++ {
		w := doRaw(t, s, http.MethodPost, "/v1/search", "admin-tok", searchBody(int64(q)))
		if w.Code != http.StatusOK {
			t.Fatalf("search %d = %d: %s", q, w.Code, w.Body.String())
		}
		before = append(before, w.Body.String())
	}
	// SIGKILL-style abandonment: the server stops and the library is never
	// saved or checkpointed — recovery may use only what the WAL already
	// made durable. (Close releases the data-dir flock exactly as process
	// death would; under the default SyncAlways it writes nothing, so the
	// on-disk state is byte-identical to a kill.)
	s.Close()
	if err := lib.Close(); err != nil {
		t.Fatal(err)
	}
	s, lib = nil, nil

	recovered, err := classminer.Recover(dir, a, wopts)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := recovered.Stats().Videos; got != n {
		t.Fatalf("recovered %d videos, want %d", got, n)
	}
	if err := recovered.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	s2 := New(recovered, Options{Tokens: testTokens(), CacheSize: -1})
	t.Cleanup(s2.Close)
	for q := 0; q < 6; q++ {
		w := doRaw(t, s2, http.MethodPost, "/v1/search", "admin-tok", searchBody(int64(q)))
		if w.Code != http.StatusOK {
			t.Fatalf("recovered search %d = %d", q, w.Code)
		}
		if got := w.Body.String(); got != before[q] {
			t.Fatalf("query %d diverged after recovery:\nbefore: %s\nafter:  %s", q, before[q], got)
		}
	}
}

// mustReplace pushes a replacement through POST /v1/videos with the
// replace flag and requires the 202 that says it is done.
func mustReplace(t *testing.T, s *Server, name string, seed int64) {
	t.Helper()
	mustPostIngest(t, s, map[string]any{
		"subcluster": "medicine",
		"saved":      tinySavedResult(name, seed, 2),
		"replace":    true,
	})
}

// TestVideoLifecycleEndpoints drives the HTTP mutation surface on a
// non-durable library: DELETE gating (401/403/404), conflict-vs-replace on
// ingest, and the list/detail/search views converging on the mutated set.
func TestVideoLifecycleEndpoints(t *testing.T) {
	a, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := classminer.NewLibrary(a)
	s := New(lib, Options{Tokens: testTokens()})
	t.Cleanup(s.Close)
	for i := 0; i < 3; i++ {
		mustIngest(t, s, fmt.Sprintf("vid-%d", i), int64(i))
	}

	// Conflict without the flag; replacement with it.
	req := map[string]any{"subcluster": "medicine", "saved": tinySavedResult("vid-1", 50, 2)}
	if code := do(t, s, http.MethodPost, "/v1/videos", "admin-tok", req, nil); code != http.StatusConflict {
		t.Fatalf("duplicate ingest = %d, want 409", code)
	}
	mustReplace(t, s, "vid-1", 50)
	var detail struct {
		Shots int `json:"shots"`
	}
	if code := do(t, s, http.MethodGet, "/v1/videos/vid-1", "admin-tok", nil, &detail); code != http.StatusOK {
		t.Fatalf("detail after replace = %d", code)
	}
	if detail.Shots != 2 {
		t.Fatalf("replaced video has %d shots, want 2", detail.Shots)
	}

	// DELETE gating: anonymous 401, public 403, unknown 404, then success.
	if code := do(t, s, http.MethodDelete, "/v1/videos/vid-0", "", nil, nil); code != http.StatusUnauthorized {
		t.Fatalf("anonymous delete = %d, want 401", code)
	}
	if code := do(t, s, http.MethodDelete, "/v1/videos/vid-0", "pub-tok", nil, nil); code != http.StatusForbidden {
		t.Fatalf("public delete = %d, want 403", code)
	}
	if code := do(t, s, http.MethodDelete, "/v1/videos/ghost", "admin-tok", nil, nil); code != http.StatusNotFound {
		t.Fatalf("delete of unknown video = %d, want 404", code)
	}
	var del struct {
		Deleted   string `json:"deleted"`
		IndexLive bool   `json:"indexLive"`
	}
	if code := do(t, s, http.MethodDelete, "/v1/videos/vid-0", "clin-tok", nil, &del); code != http.StatusOK {
		t.Fatalf("delete = %d", code)
	}
	// The serving index masks the deleted shots incrementally — no rebuild
	// happened yet, but the index is already consistent with the delete.
	if del.Deleted != "vid-0" || !del.IndexLive {
		t.Fatalf("delete response = %+v", del)
	}
	if code := do(t, s, http.MethodGet, "/v1/videos/vid-0", "admin-tok", nil, nil); code != http.StatusNotFound {
		t.Fatalf("detail after delete = %d, want 404", code)
	}
	var list struct {
		Videos []videoSummary `json:"videos"`
	}
	if code := do(t, s, http.MethodGet, "/v1/videos", "admin-tok", nil, &list); code != http.StatusOK {
		t.Fatalf("list = %d", code)
	}
	for _, v := range list.Videos {
		if v.Name == "vid-0" {
			t.Fatal("deleted video still listed")
		}
	}
	// Searches never surface the deleted video's shots.
	w := doRaw(t, s, http.MethodPost, "/v1/search", "admin-tok", searchBody(1))
	if w.Code != http.StatusOK {
		t.Fatalf("search after delete = %d", w.Code)
	}
	if bytes.Contains(w.Body.Bytes(), []byte("vid-0")) {
		t.Fatalf("search still ranks deleted video: %s", w.Body.String())
	}
}

// TestReplaceIngestPolicyGated: replace-on-ingest must not supersede a
// video the policy hides from the caller — the same gate DELETE enforces,
// checked both at the 202 accept and atomically when the job applies.
func TestReplaceIngestPolicyGated(t *testing.T) {
	a, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := classminer.NewLibrary(a)
	s := New(lib, Options{Tokens: testTokens()})
	t.Cleanup(s.Close)
	mustIngest(t, s, "hidden-vid", 1)
	lib.Protect(classminer.Rule{Concept: "medicine", MinClearance: classminer.Administrator})

	req := map[string]any{"subcluster": "medicine", "saved": tinySavedResult("hidden-vid", 9, 2), "replace": true}
	if code := do(t, s, http.MethodPost, "/v1/videos", "clin-tok", req, nil); code != http.StatusForbidden {
		t.Fatalf("clinician replace of a hidden video = %d, want 403", code)
	}
	// The admin may still replace it.
	mustReplace(t, s, "hidden-vid", 9)
}

// TestDeleteReplaceCompactKillRestart is the lifecycle acceptance test at
// the serving layer: mutate a durable library over HTTP (ingest, delete,
// replace), reclaim the log the deletes and replacements left dead through
// the admin endpoint — a checkpoint, the one way there is — abandon the
// process SIGKILL-style, recover, and require byte-identical /v1/search
// responses plus the mutated video set.
func TestDeleteReplaceCompactKillRestart(t *testing.T) {
	a, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wopts := classminer.DurableOptions{
		CheckpointBytes:   -1,
		CheckpointRecords: -1,
		SegmentBytes:      2 << 10, // a couple of records per segment: the checkpoint prunes a chain of them
	}
	lib, err := classminer.Recover(dir, a, wopts)
	if err != nil {
		t.Fatal(err)
	}
	s := New(lib, Options{Tokens: testTokens(), CacheSize: -1})

	const n = 8
	for i := 0; i < n; i++ {
		mustIngest(t, s, fmt.Sprintf("ingested-%02d", i), int64(i))
	}
	for i := 0; i < 3; i++ {
		if code := do(t, s, http.MethodDelete, fmt.Sprintf("/v1/videos/ingested-%02d", i), "admin-tok", nil, nil); code != http.StatusOK {
			t.Fatalf("delete %d = %d", i, code)
		}
	}
	mustReplace(t, s, "ingested-03", 77)
	mustReplace(t, s, "ingested-04", 88)

	if code := do(t, s, http.MethodPost, "/v1/admin/checkpoint", "clin-tok", nil, nil); code != http.StatusForbidden {
		t.Fatalf("clinician checkpoint = %d, want 403", code)
	}
	// There is no second reclaim endpoint.
	if code := do(t, s, http.MethodPost, "/v1/admin/compact", "admin-tok", nil, nil); code != http.StatusNotFound {
		t.Fatalf("POST /v1/admin/compact = %d, want 404", code)
	}
	var ckptResp struct {
		WAL classminer.WALStats `json:"wal"`
	}
	if code := do(t, s, http.MethodPost, "/v1/admin/checkpoint", "admin-tok", nil, &ckptResp); code != http.StatusOK {
		t.Fatalf("admin checkpoint = %d", code)
	}
	if ckptResp.WAL.Records != 0 || ckptResp.WAL.Bytes != 0 || ckptResp.WAL.Segments != 1 {
		t.Fatalf("the checkpoint left log behind (13 records went in, 5 of them dead): %+v", ckptResp.WAL)
	}

	// Refit before capturing, for the same reason as
	// TestKillAndRestartServesIdenticalSearches: recovery ends in a full
	// fit, so the byte-identical comparison must start from one too.
	if err := lib.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	var before []string
	for q := 0; q < 6; q++ {
		w := doRaw(t, s, http.MethodPost, "/v1/search", "admin-tok", searchBody(int64(q)))
		if w.Code != http.StatusOK {
			t.Fatalf("search %d = %d: %s", q, w.Code, w.Body.String())
		}
		before = append(before, w.Body.String())
	}
	// SIGKILL-style abandonment (see TestKillAndRestartServesIdenticalSearches).
	s.Close()
	if err := lib.Close(); err != nil {
		t.Fatal(err)
	}
	s, lib = nil, nil

	recovered, err := classminer.Recover(dir, a, wopts)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := recovered.Stats().Videos; got != n-3 {
		t.Fatalf("recovered %d videos, want %d", got, n-3)
	}
	for i := 0; i < 3; i++ {
		if recovered.Video(fmt.Sprintf("ingested-%02d", i)) != nil {
			t.Fatalf("deleted ingested-%02d resurrected", i)
		}
	}
	if err := recovered.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	s2 := New(recovered, Options{Tokens: testTokens(), CacheSize: -1})
	t.Cleanup(s2.Close)
	for q := 0; q < 6; q++ {
		w := doRaw(t, s2, http.MethodPost, "/v1/search", "admin-tok", searchBody(int64(q)))
		if w.Code != http.StatusOK {
			t.Fatalf("recovered search %d = %d", q, w.Code)
		}
		if got := w.Body.String(); got != before[q] {
			t.Fatalf("query %d diverged after checkpoint+recovery:\nbefore: %s\nafter:  %s", q, before[q], got)
		}
	}
}

// TestAdminCheckpointEndpoint drives POST /v1/admin/checkpoint: admin-only,
// 501 on a non-durable library, and on success the WAL lag drops to zero
// and the generation advances.
func TestAdminCheckpointEndpoint(t *testing.T) {
	a, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib, err := classminer.Recover(t.TempDir(), a, classminer.DurableOptions{CheckpointBytes: -1, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lib.Close() })
	s := New(lib, Options{Tokens: testTokens()})
	t.Cleanup(s.Close)

	mustIngest(t, s, "ckpt-video", 5)

	if code := do(t, s, http.MethodPost, "/v1/admin/checkpoint", "clin-tok", nil, nil); code != http.StatusForbidden {
		t.Fatalf("clinician checkpoint = %d, want 403", code)
	}
	var stats struct {
		Library classminer.LibraryStats `json:"library"`
	}
	if code := do(t, s, http.MethodGet, "/v1/stats", "admin-tok", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if stats.Library.WAL == nil || stats.Library.WAL.Records != 1 {
		t.Fatalf("pre-checkpoint WAL stats = %+v", stats.Library.WAL)
	}
	var resp struct {
		Checkpointed bool                `json:"checkpointed"`
		WAL          classminer.WALStats `json:"wal"`
	}
	if code := do(t, s, http.MethodPost, "/v1/admin/checkpoint", "admin-tok", nil, &resp); code != http.StatusOK {
		t.Fatalf("admin checkpoint = %d", code)
	}
	if !resp.Checkpointed || resp.WAL.Records != 0 || resp.WAL.Generation != 1 {
		t.Fatalf("checkpoint response = %+v", resp)
	}
	if code := do(t, s, http.MethodGet, "/v1/stats", "admin-tok", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if stats.Library.WAL.Records != 0 || stats.Library.WAL.Generation != 1 {
		t.Fatalf("post-checkpoint WAL stats = %+v", stats.Library.WAL)
	}
}

// TestAdminCheckpointNotDurable hits the endpoint on a snapshot-mode
// library.
func TestAdminCheckpointNotDurable(t *testing.T) {
	s := newTestServer(t, Options{})
	if code := do(t, s, http.MethodPost, "/v1/admin/checkpoint", "admin-tok", nil, nil); code != http.StatusNotImplemented {
		t.Fatalf("non-durable checkpoint = %d, want 501", code)
	}
}

// doRaw is do without response decoding: byte-identical body comparison is
// the point of the kill-and-restart test.
func doRaw(t testing.TB, s *Server, method, path, token string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(method, path, bytes.NewReader(b))
	if token != "" {
		r.Header.Set("X-Api-Token", token)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}
