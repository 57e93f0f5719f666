package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"classminer"
)

// TestPoolFinishedJobsBounded: the job log holds a fixed number of records
// however many ingests a daemon runs. The newest jobLogSize ids answer
// GET /v1/jobs/{id} with their own record; the one before them, and any
// other spelling of a live id, is a 404.
func TestPoolFinishedJobsBounded(t *testing.T) {
	s := newTestServer(t, Options{})
	const total = 1000
	for i := 1; i <= total; i++ {
		if j := s.jobs.add(Job{Status: "done", Video: fmt.Sprintf("v-%d", i)}); j.ID != fmt.Sprintf("job-%d", i) {
			t.Fatalf("record %d got id %q", i, j.ID)
		}
	}
	for i := total - jobLogSize + 1; i <= total; i++ {
		var j Job
		id := fmt.Sprintf("job-%d", i)
		if code := do(t, s, http.MethodGet, "/v1/jobs/"+id, "admin-tok", nil, &j); code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s = %d, want 200", id, code)
		}
		if j.ID != id || j.Video != fmt.Sprintf("v-%d", i) {
			t.Fatalf("GET /v1/jobs/%s = %+v", id, j)
		}
	}
	for _, id := range []string{
		fmt.Sprintf("job-%d", total-jobLogSize), // the 257th-newest
		"job-1", "job-0", fmt.Sprintf("job-%d", total+1),
		fmt.Sprintf("job-0%d", total), fmt.Sprintf("%d", total), "job-", "nope",
	} {
		if code := do(t, s, http.MethodGet, "/v1/jobs/"+id, "admin-tok", nil, nil); code != http.StatusNotFound {
			t.Fatalf("GET /v1/jobs/%s = %d, want 404", id, code)
		}
	}
}

// TestIngestAnswersDurableAndIndexed: the 202 to POST /v1/videos is the
// end of the ingest, not a promise. Its body is a done job record; a search
// sent right after it, with no poll, ranks the video's own shot 0 first;
// and the video survives a crash (close without a checkpoint, recover).
func TestIngestAnswersDurableAndIndexed(t *testing.T) {
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
	s := New(lib, Options{Tokens: testTokens(), CacheSize: -1})
	// The first ingest fits the index (cold start); the second is inserted
	// into it.
	for i, name := range []string{"first", "second"} {
		req := map[string]any{"subcluster": "medicine", "saved": tinySavedResult(name, int64(10+i), 5)}
		w := doRaw(t, s, http.MethodPost, "/v1/videos", "clin-tok", req)
		if w.Code != http.StatusAccepted {
			t.Fatalf("ingest %s = %d: %s", name, w.Code, w.Body.String())
		}
		var job map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &job); err != nil {
			t.Fatal(err)
		}
		if job["status"] != "done" || job["video"] != name || w.Header().Get("Location") != fmt.Sprint("/v1/jobs/", job["id"]) {
			t.Fatalf("ingest %s answered 202 with %v (Location %q), want a done record", name, job, w.Header().Get("Location"))
		}
		var resp searchResponse
		q := map[string]any{"video": name, "shot": 0, "k": 3}
		if code := do(t, s, http.MethodPost, "/v1/search", "clin-tok", q, &resp); code != http.StatusOK {
			t.Fatalf("search right after ingesting %s = %d", name, code)
		}
		if len(resp.Hits) == 0 || resp.Hits[0].Video != name || resp.Hits[0].Shot != 0 {
			t.Fatalf("search right after ingesting %s: hits %+v, want %s shot 0 first", name, resp.Hits, name)
		}
	}
	// A crash: no checkpoint, so recovery has only what the log made durable.
	s.Close()
	if err := lib.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := classminer.Recover(dir, a, wopts)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	for _, name := range []string{"first", "second"} {
		if recovered.Video(name) == nil {
			t.Fatalf("acknowledged ingest %s lost in recovery", name)
		}
	}
}

// TestIngestRefusalStatus: an ingest that fails is answered with its error
// status, and leaves no job record: the next id goes to the next ingest
// that lands.
func TestIngestRefusalStatus(t *testing.T) {
	badVersion := tinySavedResult("bad-version", 1, 3)
	badVersion.Version = 99 // store.DecodeResult refuses it
	for _, c := range []struct {
		name string
		// run makes the refused request(s) and reports every status seen
		// besides one 202 it may allow.
		run  func(t *testing.T, s *Server) []int
		want int
	}{
		{"bad version", func(t *testing.T, s *Server) []int {
			req := map[string]any{"subcluster": "medicine", "saved": badVersion}
			return []int{do(t, s, http.MethodPost, "/v1/videos", "admin-tok", req, nil)}
		}, http.StatusBadRequest},
		{"dimension mismatch", func(t *testing.T, s *Server) []int {
			mustIngest(t, s, "twelve-dims", 1)
			wide := tinySavedResult("wider", 2, 3)
			for i := range wide.Shots {
				wide.Shots[i].Color = append(wide.Shots[i].Color, 0.5)
			}
			req := map[string]any{"subcluster": "medicine", "saved": wide}
			return []int{do(t, s, http.MethodPost, "/v1/videos", "admin-tok", req, nil)}
		}, http.StatusBadRequest},
		{"racing duplicate", func(t *testing.T, s *Server) []int {
			const racers = 8
			codes := make([]int, racers)
			var wg sync.WaitGroup
			for i := range codes {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					req := map[string]any{"subcluster": "medicine", "saved": tinySavedResult("twin", int64(i), 3)}
					codes[i] = do(t, s, http.MethodPost, "/v1/videos", "admin-tok", req, nil)
				}(i)
			}
			wg.Wait()
			var refused []int
			won := 0
			for _, code := range codes {
				if code == http.StatusAccepted {
					won++
				} else {
					refused = append(refused, code)
				}
			}
			if won != 1 {
				t.Fatalf("%d of %d racing twins were accepted, want 1 (%v)", won, racers, codes)
			}
			return refused
		}, http.StatusConflict},
		{"replace behind a policy wall", func(t *testing.T, s *Server) []int {
			mustIngest(t, s, "walled", 1)
			s.lib.Protect(classminer.Rule{Concept: "medicine", MinClearance: classminer.Administrator})
			req := map[string]any{"subcluster": "medicine", "saved": tinySavedResult("walled", 9, 2), "replace": true}
			return []int{do(t, s, http.MethodPost, "/v1/videos", "clin-tok", req, nil)}
		}, http.StatusForbidden},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New(classminer.NewLibrary(nil), Options{Tokens: testTokens()})
			t.Cleanup(s.Close)
			for _, code := range c.run(t, s) {
				if code != c.want {
					t.Fatalf("status %d, want %d", code, c.want)
				}
			}
			var job Job
			req := map[string]any{"subcluster": "medicine", "saved": tinySavedResult("after", 3, 3)}
			if code := do(t, s, http.MethodPost, "/v1/videos", "admin-tok", req, &job); code != http.StatusAccepted {
				t.Fatalf("ingest after the refusal = %d", code)
			}
			// Every registered video took an id; nothing else did.
			if want := fmt.Sprintf("job-%d", s.lib.Stats().Videos); job.ID != want {
				t.Fatalf("next ingest got %s, want %s", job.ID, want)
			}
		})
	}
}
