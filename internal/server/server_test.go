package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"classminer"
	"classminer/internal/access"
	"classminer/internal/store"
	"classminer/internal/synth"
)

// Shared fixture: one mined corpus video behind a protected clinical leaf.
// Mining is the slow part, so the Result is mined once; every caller gets a
// library of its own over it, because tests mutate theirs (ingests, deletes,
// protection rules) and a second run of a test must meet what the first met.
// A registered Result is never written, so the libraries share it.
var (
	fixOnce sync.Once
	fixRes  *classminer.Result
	fixErr  error
)

func fixtureLibrary(t testing.TB) *classminer.Library {
	t.Helper()
	fixOnce.Do(func() {
		a, err := classminer.NewAnalyzer(classminer.Options{})
		if err != nil {
			fixErr = err
			return
		}
		// scale 0.2 / seed 11 mines at least one dialog and one clinical
		// scene, which the events and policy-filter tests depend on.
		script := synth.CorpusScript("laparoscopy", 0.2, 11)
		v, err := synth.Generate(synth.DefaultConfig(), script, 11)
		if err != nil {
			fixErr = err
			return
		}
		fixRes, fixErr = a.Analyze(v)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	lib := classminer.NewLibrary(nil)
	if err := lib.AddResultCtx(context.Background(), fixRes, "medicine"); err != nil {
		t.Fatal(err)
	}
	lib.Protect(classminer.Rule{
		Concept: "medicine/clinical operation", MinClearance: classminer.Clinician,
	})
	if err := lib.BuildIndexCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	return lib
}

func testTokens() map[string]access.User {
	return map[string]access.User{
		"pub-tok":   {Name: "visitor", Clearance: access.Public},
		"clin-tok":  {Name: "dr.lee", Clearance: access.Clinician, Roles: []string{"surgeon"}},
		"admin-tok": {Name: "root", Clearance: access.Administrator},
	}
}

func newTestServer(t testing.TB, opts Options) *Server {
	t.Helper()
	if opts.Tokens == nil {
		opts.Tokens = testTokens()
	}
	s := New(fixtureLibrary(t), opts)
	t.Cleanup(s.Close)
	return s
}

// do runs one request through the full middleware stack and decodes the
// JSON response into out (when non-nil).
func do(t testing.TB, s *Server, method, path, token string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	r := httptest.NewRequest(method, path, &buf)
	if token != "" {
		r.Header.Set("X-Api-Token", token)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if out != nil && w.Body.Len() > 0 {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w.Code
}

func TestHealthzNeedsNoAuth(t *testing.T) {
	s := newTestServer(t, Options{}) // no Anonymous: everything else is 401
	var resp map[string]any
	if code := do(t, s, http.MethodGet, "/healthz", "", nil, &resp); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if resp["status"] != "ok" {
		t.Fatalf("resp = %v", resp)
	}
	if code := do(t, s, http.MethodGet, "/v1/videos", "", nil, nil); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated list = %d, want 401", code)
	}
	if code := do(t, s, http.MethodGet, "/v1/videos", "bogus", nil, nil); code != http.StatusUnauthorized {
		t.Fatalf("unknown token = %d, want 401", code)
	}
}

func TestAuthDenialIs403(t *testing.T) {
	anon := access.User{Name: "anon", Clearance: access.Public}
	s := newTestServer(t, Options{Anonymous: &anon})
	// Admin endpoint: authenticated but under-cleared users get 403.
	for _, tok := range []string{"", "pub-tok", "clin-tok"} {
		if code := do(t, s, http.MethodPost, "/v1/admin/checkpoint", tok, nil, nil); code != http.StatusForbidden {
			t.Fatalf("checkpoint as %q = %d, want 403", tok, code)
		}
	}
	// Ingestion requires Clinician.
	body := map[string]any{"saved": tinySavedResult("face-repair", 5, 3), "subcluster": "medicine"}
	if code := do(t, s, http.MethodPost, "/v1/videos", "pub-tok", body, nil); code != http.StatusForbidden {
		t.Fatalf("ingest as public = %d, want 403", code)
	}
}

func TestUnknownVideoIs404(t *testing.T) {
	anon := access.User{Name: "anon", Clearance: access.Administrator}
	s := newTestServer(t, Options{Anonymous: &anon})
	var resp map[string]string
	if code := do(t, s, http.MethodGet, "/v1/videos/colonoscopy", "", nil, &resp); code != http.StatusNotFound {
		t.Fatalf("detail = %d, want 404", code)
	}
	if resp["error"] == "" {
		t.Fatal("404 carries no error message")
	}
	if code := do(t, s, http.MethodGet, "/v1/jobs/job-99", "", nil, nil); code != http.StatusNotFound {
		t.Fatal("unknown job must 404")
	}
	if code := do(t, s, http.MethodGet, "/v1/nope", "", nil, nil); code != http.StatusNotFound {
		t.Fatal("unknown route must 404")
	}
}

func TestVideoListAndDetail(t *testing.T) {
	s := newTestServer(t, Options{})
	var list struct {
		Videos []videoSummary `json:"videos"`
	}
	if code := do(t, s, http.MethodGet, "/v1/videos", "admin-tok", nil, &list); code != http.StatusOK {
		t.Fatalf("list = %d", code)
	}
	// The fixture library is shared across tests; other tests may have
	// ingested more videos, but laparoscopy is always there.
	var lap *videoSummary
	for i := range list.Videos {
		if list.Videos[i].Name == "laparoscopy" {
			lap = &list.Videos[i]
		}
	}
	if lap == nil {
		t.Fatalf("laparoscopy missing from %+v", list.Videos)
	}
	if lap.Shots == 0 || lap.DurationSec <= 0 || lap.Subcluster != "medicine" {
		t.Fatalf("empty summary: %+v", lap)
	}

	var detail struct {
		Name         string          `json:"name"`
		Scenes       []sceneJSON     `json:"scenes"`
		ScenesHidden int             `json:"scenesHidden"`
		Skim         []skimLevelJSON `json:"skim"`
	}
	if code := do(t, s, http.MethodGet, "/v1/videos/laparoscopy", "admin-tok", nil, &detail); code != http.StatusOK {
		t.Fatalf("detail = %d", code)
	}
	if len(detail.Scenes) == 0 || len(detail.Skim) != 4 {
		t.Fatalf("detail = %+v", detail)
	}
	adminScenes := len(detail.Scenes)

	// The clinical leaf is protected: a public viewer sees fewer scenes.
	var pubDetail struct {
		Scenes       []sceneJSON `json:"scenes"`
		ScenesHidden int         `json:"scenesHidden"`
	}
	if code := do(t, s, http.MethodGet, "/v1/videos/laparoscopy", "pub-tok", nil, &pubDetail); code != http.StatusOK {
		t.Fatalf("public detail = %d", code)
	}
	if pubDetail.ScenesHidden == 0 {
		t.Skip("no clinical scenes mined at this corpus scale")
	}
	if len(pubDetail.Scenes)+pubDetail.ScenesHidden != adminScenes {
		t.Fatalf("public sees %d + %d hidden, admin sees %d",
			len(pubDetail.Scenes), pubDetail.ScenesHidden, adminScenes)
	}
}

func TestSearchRoundTripAndCache(t *testing.T) {
	s := newTestServer(t, Options{})
	req := map[string]any{"video": "laparoscopy", "shot": 0, "k": 5}
	var first searchResponse
	if code := do(t, s, http.MethodPost, "/v1/search", "admin-tok", req, &first); code != http.StatusOK {
		t.Fatalf("search = %d", code)
	}
	if len(first.Hits) == 0 || first.Cached {
		t.Fatalf("first search: %+v", first)
	}
	if first.Stats.DistanceOps <= 0 || first.Stats.Candidates <= 0 {
		t.Fatalf("missing cost stats: %+v", first.Stats)
	}
	// Query by example must find the example itself first.
	if h := first.Hits[0]; h.Video != "laparoscopy" || h.Dist > 1e-9 {
		t.Fatalf("top hit = %+v", h)
	}
	var second searchResponse
	do(t, s, http.MethodPost, "/v1/search", "admin-tok", req, &second)
	if !second.Cached {
		t.Fatal("identical repeat query not served from cache")
	}
	if len(second.Hits) != len(first.Hits) {
		t.Fatalf("cached hits %d != %d", len(second.Hits), len(first.Hits))
	}
	// A different identity must not share the cache entry (policy filters
	// differ), and mutating the policy must invalidate cached answers.
	var other searchResponse
	do(t, s, http.MethodPost, "/v1/search", "clin-tok", req, &other)
	if other.Cached {
		t.Fatal("cache leaked across identities")
	}
	s.lib.Protect(classminer.Rule{Concept: "medicine/other", MinClearance: access.Student})
	var third searchResponse
	do(t, s, http.MethodPost, "/v1/search", "admin-tok", req, &third)
	if third.Cached {
		t.Fatal("generation bump did not invalidate cache")
	}

	// Malformed queries are 400s.
	if code := do(t, s, http.MethodPost, "/v1/search", "admin-tok", map[string]any{"k": 3}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty query = %d, want 400", code)
	}
	bad := map[string]any{"query": []float64{1, 2, 3}}
	if code := do(t, s, http.MethodPost, "/v1/search", "admin-tok", bad, nil); code != http.StatusBadRequest {
		t.Fatalf("wrong dims = %d, want 400", code)
	}
	if code := do(t, s, http.MethodPost, "/v1/search", "admin-tok", map[string]any{"video": "nope"}, nil); code != http.StatusNotFound {
		t.Fatal("search by unknown video must 404")
	}
}

func TestEventsEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	var resp struct {
		Kind   string           `json:"kind"`
		Scenes []eventSceneJSON `json:"scenes"`
	}
	if code := do(t, s, http.MethodGet, "/v1/events/dialog", "admin-tok", nil, &resp); code != http.StatusOK {
		t.Fatalf("events = %d", code)
	}
	if resp.Kind != "dialog" {
		t.Fatalf("kind = %q", resp.Kind)
	}
	for _, sc := range resp.Scenes {
		if sc.Video == "" || sc.EndFrame <= sc.StartFrame {
			t.Fatalf("bad scene ref: %+v", sc)
		}
	}
	// The protected clinical category is invisible to a public viewer.
	var pub struct {
		Scenes []eventSceneJSON `json:"scenes"`
	}
	do(t, s, http.MethodGet, "/v1/events/clinical-operation", "pub-tok", nil, &pub)
	if len(pub.Scenes) != 0 {
		t.Fatalf("public sees %d protected clinical scenes", len(pub.Scenes))
	}
	if code := do(t, s, http.MethodGet, "/v1/events/opera", "admin-tok", nil, nil); code != http.StatusBadRequest {
		t.Fatal("unknown kind must 400")
	}
}

// TestIngestSavedResult: POST /v1/videos answers 202 once the video is
// registered and the index is live over it, and GET /v1/jobs/{id} serves
// the same finished record.
func TestIngestSavedResult(t *testing.T) {
	s := newTestServer(t, Options{})
	ve := s.lib.Video("laparoscopy")
	saved, err := store.EncodeResult(ve.Result)
	if err != nil {
		t.Fatal(err)
	}
	before := s.lib.Stats()

	var job Job
	body := map[string]any{"saved": saved, "subcluster": "nursing", "name": "lap-mirror"}
	if code := do(t, s, http.MethodPost, "/v1/videos", "clin-tok", body, &job); code != http.StatusAccepted {
		t.Fatalf("ingest = %d", code)
	}
	if job.ID == "" || job.Status != "done" || job.Video != "lap-mirror" || job.Subcluster != "nursing" {
		t.Fatalf("job = %+v", job)
	}
	if job.Created.After(job.Started) || job.Started.After(job.Finished) {
		t.Fatalf("job times out of order: %+v", job)
	}
	var got Job
	if code := do(t, s, http.MethodGet, "/v1/jobs/"+job.ID, "clin-tok", nil, &got); code != http.StatusOK || got != job {
		t.Fatalf("GET /v1/jobs/%s = %d %+v, want %+v", job.ID, code, got, job)
	}
	after := s.lib.Stats()
	if after.Videos != before.Videos+1 || after.IndexedShots <= before.IndexedShots {
		t.Fatalf("before %+v after %+v", before, after)
	}
	if after.IndexStale {
		t.Fatal("index left stale after ingest")
	}
	if code := do(t, s, http.MethodGet, "/v1/videos/lap-mirror", "clin-tok", nil, nil); code != http.StatusOK {
		t.Fatal("ingested video not served")
	}
	// Duplicate names are rejected synchronously.
	if code := do(t, s, http.MethodPost, "/v1/videos", "clin-tok", body, nil); code != http.StatusConflict {
		t.Fatal("duplicate ingest must 409")
	}
	// Validation failures are synchronous 400s.
	for _, tc := range []struct {
		body map[string]any
		want string
	}{
		{map[string]any{"subcluster": "astrology", "saved": saved}, "unknown subcluster"},
		// A real concept that is not a subcluster: placement there would
		// escape the protection subtrees, so it must be rejected too.
		{map[string]any{"subcluster": "health care", "saved": saved}, "unknown subcluster"},
		{map[string]any{"subcluster": "medicine/dialog", "saved": saved}, "unknown subcluster"},
		{map[string]any{"subcluster": "medicine"}, "saved is required"},
		// The daemon mines nothing: the retired corpus form is a body
		// without the mined result it needs.
		{map[string]any{"subcluster": "medicine", "corpus": "laparoscopy"}, "saved is required"},
		{map[string]any{"subcluster": "medicine", "corpus": "home-movies", "scale": 0.2, "seed": 7}, "saved is required"},
		// route trims a trailing slash off every path, so GET and DELETE
		// could never address a video registered under such a name.
		{map[string]any{"subcluster": "medicine", "saved": saved, "name": "slash/"}, "ends in /"},
		{map[string]any{"subcluster": "medicine", "saved": tinySavedResult("slash/", 3, 2)}, "ends in /"},
	} {
		var resp map[string]string
		if code := do(t, s, http.MethodPost, "/v1/videos", "clin-tok", tc.body, &resp); code != http.StatusBadRequest ||
			!strings.Contains(resp["error"], tc.want) {
			t.Fatalf("bad ingest %v = %d %q, want 400 naming %q", tc.body, code, resp["error"], tc.want)
		}
	}
}

// repeatByte is an endless run of one byte.
type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestOversizedBodyIs413: a body whose JSON value does not end within
// maxBodyBytes is answered 413, by the search decoder and the ingest reader
// alike; a value that ends within it may be followed by any number of
// bytes, and one cut short below the limit is still a malformed 400.
func TestOversizedBodyIs413(t *testing.T) {
	s := newTestServer(t, Options{})
	tiny, err := json.Marshal(widen(tinySavedResult("long-tail", 9, 3), 256, 10))
	if err != nil {
		t.Fatal(err)
	}
	post := func(path, head string, fill byte, tail string) *httptest.ResponseRecorder {
		body := io.MultiReader(strings.NewReader(head),
			io.LimitReader(repeatByte(fill), maxBodyBytes), strings.NewReader(tail))
		r := httptest.NewRequest(http.MethodPost, path, body)
		r.Header.Set("X-Api-Token", "admin-tok")
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		return w
	}
	for _, tc := range []struct {
		path, head string
		fill       byte
		tail       string
		want       int
	}{
		{"/v1/search", `{"video":"laparoscopy","shot":0,"k":3,"pad":"`, 'a', `"}`, http.StatusRequestEntityTooLarge},
		{"/v1/search", `{"video":"laparoscopy","shot":0,"k":3}`, ' ', "", http.StatusOK},
		{"/v1/videos", `{"subcluster":"medicine","pad":"`, 'a', `"}`, http.StatusRequestEntityTooLarge},
		{"/v1/videos", `{"subcluster":"medicine","saved":` + string(tiny) + `}`, ' ', "", http.StatusAccepted},
		// A value of the wrong type before the cut does not make the cut a
		// malformed body: encoding/json reads the whole value first.
		{"/v1/search", `{"video":7,"pad":"`, 'a', `"}`, http.StatusRequestEntityTooLarge},
		{"/v1/videos", `{"subcluster":7,"pad":"`, 'a', `"}`, http.StatusRequestEntityTooLarge},
	} {
		w := post(tc.path, tc.head, tc.fill, tc.tail)
		if w.Code != tc.want {
			t.Fatalf("POST %s %.40s… = %d %s, want %d", tc.path, tc.head, w.Code, w.Body.String(), tc.want)
		}
		if tc.want == http.StatusRequestEntityTooLarge && !strings.Contains(w.Body.String(), "request body exceeds 32 MiB") {
			t.Fatalf("POST %s: 413 body %s", tc.path, w.Body.String())
		}
	}
	for _, path := range []string{"/v1/search", "/v1/videos"} {
		r := httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"video":"lap`))
		r.Header.Set("X-Api-Token", "admin-tok")
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "bad request body: unexpected EOF") {
			t.Fatalf("truncated POST %s = %d %s, want 400 unexpected EOF", path, w.Code, w.Body.String())
		}
	}
}

// brokenBody is a request body whose connection fails after its bytes.
type brokenBody struct{ io.Reader }

func (b brokenBody) Read(p []byte) (int, error) {
	n, err := b.Reader.Read(p)
	if err == io.EOF {
		err = errors.New("connection reset")
	}
	return n, err
}

// TestIngestBodyReadError: as with a json.Decoder, a body that breaks off
// after its value has ended is accepted, and one that breaks off inside it
// is a 400 naming the read error.
func TestIngestBodyReadError(t *testing.T) {
	s := newTestServer(t, Options{})
	tiny, err := json.Marshal(widen(tinySavedResult("broken-tail", 8, 3), 256, 10))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"subcluster":"medicine","saved":` + string(tiny) + `} `, http.StatusAccepted},
		{`{"subcluster":"medicine","saved":` + string(tiny[:40]), http.StatusBadRequest},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/videos", brokenBody{strings.NewReader(tc.body)})
		r.Header.Set("X-Api-Token", "admin-tok")
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code != tc.want || tc.want == http.StatusBadRequest && !strings.Contains(w.Body.String(), "connection reset") {
			t.Fatalf("POST %.50q… = %d %s, want %d", tc.body, w.Code, w.Body.String(), tc.want)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	// Warm the cache so hit/miss counters are meaningful.
	req := map[string]any{"video": "laparoscopy", "shot": 1, "k": 3}
	do(t, s, http.MethodPost, "/v1/search", "admin-tok", req, nil)
	do(t, s, http.MethodPost, "/v1/search", "admin-tok", req, nil)

	var resp struct {
		Library  classminer.LibraryStats `json:"library"`
		Cache    cacheStats              `json:"cache"`
		Requests int64                   `json:"requests"`
	}
	if code := do(t, s, http.MethodGet, "/v1/stats", "admin-tok", nil, &resp); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if resp.Library.Videos == 0 || resp.Library.IndexedShots == 0 {
		t.Fatalf("library stats = %+v", resp.Library)
	}
	if resp.Cache.Hits == 0 || resp.Cache.Misses == 0 {
		t.Fatalf("cache stats = %+v", resp.Cache)
	}
	if resp.Requests < 3 {
		t.Fatalf("requests = %d", resp.Requests)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, Options{})
	if code := do(t, s, http.MethodDelete, "/v1/videos", "admin-tok", nil, nil); code != http.StatusMethodNotAllowed {
		t.Fatal("DELETE /v1/videos must 405")
	}
	if code := do(t, s, http.MethodGet, "/v1/search", "admin-tok", nil, nil); code != http.StatusMethodNotAllowed {
		t.Fatal("GET /v1/search must 405")
	}
	if code := do(t, s, http.MethodGet, "/v1/admin/checkpoint", "admin-tok", nil, nil); code != http.StatusMethodNotAllowed {
		t.Fatal("GET /v1/admin/checkpoint must 405")
	}
}

// TestConcurrentSearchDuringIngest hammers the query path while ingests
// register videos and swap the index — the serving guarantee the
// copy-on-write Library exists for. Run with -race.
func TestConcurrentSearchDuringIngest(t *testing.T) {
	s := newTestServer(t, Options{})
	saved, err := store.EncodeResult(s.lib.Video("laparoscopy").Result)
	if err != nil {
		t.Fatal(err)
	}
	base := s.lib.Stats().Videos
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := map[string]any{"video": "laparoscopy", "shot": (w + i) % 3, "k": 4}
				var resp searchResponse
				if code := do(t, s, http.MethodPost, "/v1/search", "admin-tok", req, &resp); code != http.StatusOK {
					t.Errorf("search during ingest = %d", code)
					return
				}
				if len(resp.Hits) == 0 {
					t.Error("search during ingest returned nothing")
					return
				}
				do(t, s, http.MethodGet, "/v1/events/dialog", "pub-tok", nil, nil)
			}
		}(w)
	}
	for i := 0; i < 3; i++ {
		body := map[string]any{"saved": saved, "subcluster": "dentistry", "name": fmt.Sprintf("race-%d", i)}
		if code := do(t, s, http.MethodPost, "/v1/videos", "admin-tok", body, nil); code != http.StatusAccepted {
			t.Fatalf("ingest %d = %d", i, code)
		}
	}
	close(stop)
	wg.Wait()
	if got := s.lib.Stats().Videos; got != base+3 || s.lib.IndexStale() {
		t.Fatalf("after 3 acknowledged ingests: %d videos (want %d), index stale %v", got, base+3, s.lib.IndexStale())
	}
}
