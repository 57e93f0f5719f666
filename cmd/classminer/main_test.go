package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"classminer"
	"classminer/internal/access"
	"classminer/internal/core"
	"classminer/internal/server"
	"classminer/internal/synth"
)

const token = "miner"

// call sends one request with the test token and returns the status and body.
func call(t *testing.T, base, method, path string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// serve starts a server over lib the way classminerd would.
func serve(t *testing.T, lib *classminer.Library) string {
	t.Helper()
	srv := server.New(lib, server.Options{
		Tokens: map[string]access.User{token: {Name: "miner", Clearance: access.Administrator}},
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts.URL
}

// searchHits is the raw "hits" member of a query-by-example search.
func searchHits(t *testing.T, base, video string) []byte {
	t.Helper()
	code, b := call(t, base, http.MethodPost, "/v1/search",
		[]byte(`{"video":"`+video+`","shot":0,"k":100}`))
	if code != http.StatusOK {
		t.Fatalf("search on %s = %d %s", base, code, b)
	}
	var resp struct {
		Hits json.RawMessage `json:"hits"`
	}
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Hits
}

// TestSavedBodyIngests is the contract between the offline miner and the
// daemon: the file -save writes is a POST /v1/videos body that the server
// takes as it is, and the video it registers answers searches byte for byte
// as the same mined result registered in process does.
func TestSavedBodyIngests(t *testing.T) {
	const video, scale, seed = "laparoscopy", 0.2, 11
	path := filepath.Join(t.TempDir(), "body.json")
	if err := run(video, scale, seed, 3, false, path); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	posted := serve(t, classminer.NewLibrary(nil))
	code, b := call(t, posted, http.MethodPost, "/v1/videos", body)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/videos = %d %s", code, b)
	}
	var job struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(b, &job); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); job.Status != "done"; {
		if job.Status == "failed" {
			t.Fatalf("ingest job failed: %s", job.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingest job stuck in %q", job.Status)
		}
		time.Sleep(10 * time.Millisecond)
		if code, b = call(t, posted, http.MethodGet, "/v1/jobs/"+job.ID, nil); code != http.StatusOK {
			t.Fatalf("job poll = %d %s", code, b)
		}
		if err := json.Unmarshal(b, &job); err != nil {
			t.Fatal(err)
		}
	}
	var list struct {
		Videos []struct {
			Name       string `json:"name"`
			Subcluster string `json:"subcluster"`
		} `json:"videos"`
	}
	if code, b = call(t, posted, http.MethodGet, "/v1/videos", nil); code != http.StatusOK {
		t.Fatalf("GET /v1/videos = %d %s", code, b)
	}
	if err := json.Unmarshal(b, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Videos) != 1 || list.Videos[0].Name != video || list.Videos[0].Subcluster != "medicine" {
		t.Fatalf("GET /v1/videos lists %+v, want %s under medicine", list.Videos, video)
	}

	// The same video, mined and registered in process.
	v, err := synth.Generate(synth.DefaultConfig(), synth.CorpusScript(video, scale, seed), seed)
	if err != nil {
		t.Fatal(err)
	}
	analyzer, err := core.NewAnalyzer(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := analyzer.Analyze(v)
	if err != nil {
		t.Fatal(err)
	}
	ref := classminer.NewLibrary(nil)
	if err := ref.AddResultCtx(context.Background(), res, "medicine"); err != nil {
		t.Fatal(err)
	}
	if err := ref.BuildIndexCtx(context.Background()); err != nil {
		t.Fatal(err)
	}

	got, want := searchHits(t, posted, video), searchHits(t, serve(t, ref), video)
	var hits []json.RawMessage
	if err := json.Unmarshal(want, &hits); err != nil || len(hits) < 2 {
		t.Fatalf("reference search found %d hits (%v): %s", len(hits), err, want)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("hits over HTTP ingest differ from in-process registration:\n got %s\nwant %s", got, want)
	}
}

// TestRunRejectsBadArguments: a level outside 1-4 or a scale <= 0 used to
// be clamped or read as 1, so the CLI printed one thing under the label of
// another. Each is now an error that names its flag, like an unknown video,
// and nothing is saved.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, c := range []struct {
		name  string
		video string
		scale float64
		level int
		want  string
	}{
		{"level 0", "laparoscopy", 0.2, 0, "-level 0"},
		{"level 5", "laparoscopy", 0.2, 5, "-level 5"},
		{"scale 0", "laparoscopy", 0, 3, "-scale 0"},
		{"scale -1", "laparoscopy", -1, 3, "-scale -1"},
		{"unknown video", "appendectomy", 0.2, 3, `"appendectomy"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "body.json")
			err := run(c.video, c.scale, 11, c.level, false, path)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("run = %v, want an error naming %s", err, c.want)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("a rejected run wrote %s (stat: %v)", path, err)
			}
		})
	}
}
