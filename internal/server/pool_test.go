package server

import (
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"classminer/internal/store"
)

// waitPoolDrained polls until the pool has finished n jobs or the deadline
// passes.
func waitPoolDrained(t *testing.T, p *ingestPool, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := p.Stats(1)
		if st.Done+st.Failed >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("pool did not finish %d jobs in time: %+v", n, p.Stats(1))
}

// TestPoolFinishedJobsBounded is the regression test for byID retaining
// every Job ever run: across 10k jobs the map must stay at the retention
// bound, while the most recent finishers remain pollable via Get.
func TestPoolFinishedJobsBounded(t *testing.T) {
	const total = 10000
	p := newIngestPool(1, 64, func(*Job) {})
	t.Cleanup(p.Close)
	// Age-free retention: pruning is purely count-based, so the bound is
	// exactly retainCount once the queue drains.
	p.retainCount = 8
	p.retainAge = 0

	for i := 0; i < total; i++ {
		j := &Job{}
		for {
			err := p.Submit(j)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("submit %d: %v", i, err)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	waitPoolDrained(t, p, total)

	p.mu.Lock()
	mapLen, finLen := len(p.byID), len(p.finished)
	p.mu.Unlock()
	if mapLen > p.retainCount {
		t.Fatalf("byID holds %d jobs after %d runs, want <= %d", mapLen, total, p.retainCount)
	}
	if finLen > p.retainCount {
		t.Fatalf("finished backlog = %d, want <= %d", finLen, p.retainCount)
	}
	// One worker finishes in submission order: the newest IDs are the last
	// finishers and must still answer /v1/jobs/{id}; the oldest must be gone.
	if j := p.Get(fmt.Sprintf("job-%d", total)); j == nil {
		t.Fatalf("most recent job pruned; want it retained")
	} else if j.Status != JobDone {
		t.Fatalf("most recent job status = %q, want done", j.Status)
	}
	if j := p.Get("job-1"); j != nil {
		t.Fatalf("job-1 still resident after %d jobs: %+v", total, j)
	}
	// Pruning bounds memory, not history: the counters still saw every job.
	if st := p.Stats(1); st.Done != total {
		t.Fatalf("done count = %d, want %d", st.Done, total)
	}
}

// TestFinishedJobReleasesPayload: a job drops its request — the decoded
// video, feature rows and all — the moment it finishes, done or failed,
// while GET /v1/jobs/{id} answers as it always did.
func TestFinishedJobReleasesPayload(t *testing.T) {
	s := newTestServer(t, Options{})
	good, err := store.EncodeResult(s.lib.Video("laparoscopy").Result)
	if err != nil {
		t.Fatal(err)
	}
	good.VideoName = "payload-done"
	bad := tinySavedResult("payload-failed", 5, 3)
	bad.Version = 99 // store.DecodeResult refuses it: the job fails
	for _, tc := range []struct {
		saved *store.SavedResult
		want  JobStatus
	}{
		{good, JobDone},
		{bad, JobFailed},
	} {
		var job Job
		req := map[string]any{"subcluster": "medicine", "saved": tc.saved}
		if code := do(t, s, http.MethodPost, "/v1/videos", "admin-tok", req, &job); code != http.StatusAccepted {
			t.Fatalf("ingest %s = %d", tc.saved.VideoName, code)
		}
		var got map[string]any
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			got = nil
			if code := do(t, s, http.MethodGet, "/v1/jobs/"+job.ID, "admin-tok", nil, &got); code != http.StatusOK {
				t.Fatalf("job poll = %d", code)
			}
			if st := JobStatus(fmt.Sprint(got["status"])); st == JobDone || st == JobFailed {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %v", job.ID, got["status"])
			}
		}
		if got["status"] != string(tc.want) || got["id"] != job.ID || got["video"] != tc.saved.VideoName ||
			got["subcluster"] != "medicine" || got["requestId"] != job.RequestID || job.RequestID == "" {
			t.Fatalf("GET /v1/jobs/%s = %v, want status %s for the submitted job", job.ID, got, tc.want)
		}
		for _, k := range []string{"created", "started", "finished"} {
			if _, ok := got[k]; !ok {
				t.Fatalf("GET /v1/jobs/%s lacks %q: %v", job.ID, k, got)
			}
		}
		if _, hasErr := got["error"]; hasErr != (tc.want == JobFailed) {
			t.Fatalf("GET /v1/jobs/%s error = %v for a %s job", job.ID, got["error"], tc.want)
		}
		s.pool.mu.Lock()
		held := s.pool.byID[job.ID].req.Saved
		s.pool.mu.Unlock()
		if held != nil {
			t.Fatalf("%s job %s still holds its payload", tc.want, job.ID)
		}
	}
}

// TestPoolRetireHardCap: a burst of finishers younger than retainAge must
// still be bounded — the 4x hard cap kicks in so the map size never depends
// on the job rate.
func TestPoolRetireHardCap(t *testing.T) {
	p := newIngestPool(0, 1, func(*Job) {})
	t.Cleanup(p.Close)
	p.retainCount = 4
	p.retainAge = time.Hour // nothing ages out during the test

	now := time.Now()
	p.mu.Lock()
	for i := 1; i <= 200; i++ {
		j := &Job{ID: fmt.Sprintf("job-%d", i), Status: JobDone, Finished: now}
		p.byID[j.ID] = j
		p.retire(j, now)
	}
	mapLen, finLen := len(p.byID), len(p.finished)
	p.mu.Unlock()

	if cap := 4 * p.retainCount; finLen > cap || mapLen > cap {
		t.Fatalf("burst retention: byID=%d finished=%d, want both <= %d", mapLen, finLen, cap)
	}
	if p.Get("job-200") == nil {
		t.Fatalf("newest finisher pruned under hard cap; want it retained")
	}
}

// TestPoolShedSubmitDoesNotBurnIDs: a Submit rejected with ErrQueueFull
// must not consume a sequence number or register anything — the job-N
// series has no holes, so operators can read it as "jobs the server took".
func TestPoolShedSubmitDoesNotBurnIDs(t *testing.T) {
	p := newIngestPool(0, 2, func(*Job) {}) // no workers: queue never drains
	t.Cleanup(p.Close)

	for i := 1; i <= 2; i++ {
		j := &Job{}
		if err := p.Submit(j); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if want := fmt.Sprintf("job-%d", i); j.ID != want {
			t.Fatalf("job ID = %q, want %q", j.ID, want)
		}
	}
	for i := 0; i < 5; i++ {
		if err := p.Submit(&Job{}); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("submit over depth: err = %v, want ErrQueueFull", err)
		}
	}
	p.mu.Lock()
	seq, mapLen := p.seq, len(p.byID)
	p.mu.Unlock()
	if seq != 2 || mapLen != 2 {
		t.Fatalf("after sheds: seq=%d byID=%d, want 2 and 2", seq, mapLen)
	}

	// Free one slot and resubmit: the next accepted job continues the
	// series at job-3 — the five rejections above left no gap.
	<-p.queue
	j := &Job{}
	if err := p.Submit(j); err != nil {
		t.Fatalf("resubmit after drain: %v", err)
	}
	if j.ID != "job-3" {
		t.Fatalf("post-shed ID = %q, want job-3 (sheds must not burn IDs)", j.ID)
	}
}
