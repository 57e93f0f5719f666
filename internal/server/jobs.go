package server

import (
	"strconv"
	"strings"
	"sync"
	"time"
)

// Job is the record of one ingest. POST /v1/videos writes it once the video
// is durable and indexed and answers 202 with it; GET /v1/jobs/{id} serves it
// again while it is among the newest jobLogSize. An ingest that fails is
// answered with its error and leaves no record, so every record is done.
type Job struct {
	ID         string    `json:"id"`
	Status     string    `json:"status"`
	Video      string    `json:"video"`
	Subcluster string    `json:"subcluster"`
	Created    time.Time `json:"created"`  // the request reached the handler
	Started    time.Time `json:"started"`  // its checks passed and the write began
	Finished   time.Time `json:"finished"` // the video was durable and indexed
}

// jobLogSize is how many of the newest records GET /v1/jobs/{id} answers for.
const jobLogSize = 256

// jobLog numbers ingest records job-1, job-2, … and keeps the newest
// jobLogSize of them in a ring indexed by number, so its memory is fixed
// however many ingests a long-lived daemon runs.
type jobLog struct {
	mu   sync.Mutex
	seq  int
	ring [jobLogSize]Job
}

// add numbers j, keeps it and returns it with its ID.
func (l *jobLog) add(j Job) Job {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	j.ID = "job-" + strconv.Itoa(l.seq)
	l.ring[l.seq%jobLogSize] = j
	return j
}

// get returns the record named id while it is among the newest jobLogSize.
func (l *jobLog) get(id string) (Job, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil || n < 1 || n > l.seq || n <= l.seq-jobLogSize {
		return Job{}, false
	}
	// The ID check refuses the other spellings Atoi reads ("job-01", "7").
	j := l.ring[n%jobLogSize]
	return j, j.ID == id
}
