package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"classminer/internal/access"
)

// JobStatus is an ingest job's lifecycle state.
type JobStatus string

const (
	JobQueued  JobStatus = "queued"
	JobRunning JobStatus = "running"
	JobDone    JobStatus = "done"
	JobFailed  JobStatus = "failed"
)

// Job is one asynchronous ingestion: a mined result to decode, journal and
// index. POST /v1/videos queues a Job and returns 202 with its ID, which the
// client polls. A job costs a journal fsync and an index insert; whether
// that still needs a queue is ROADMAP item 18(c).
type Job struct {
	ID         string    `json:"id"`
	Status     JobStatus `json:"status"`
	Video      string    `json:"video,omitempty"`
	Subcluster string    `json:"subcluster"`
	// RequestID names the request that submitted the job, so a 202's
	// X-Request-Id correlates with the job record, the worker's log lines,
	// and the job's own trace.
	RequestID string    `json:"requestId,omitempty"`
	Error     string    `json:"error,omitempty"`
	Created   time.Time `json:"created"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`

	// payload, set by the ingest handler, consumed by Server.runJob, and
	// dropped when the job finishes: a finished job is kept for polling, and
	// its feature rows would otherwise outlive the video they built.
	req ingestRequest
	// user is the submitter's identity, carried to the worker so a
	// replace-on-ingest is policy-gated against the video it supersedes at
	// apply time, not just at the 202 accept.
	user access.User
}

// ErrQueueFull is returned by Submit when the pending queue is at depth;
// the HTTP layer maps it to 503 so uploads shed load instead of blocking
// query traffic.
var ErrQueueFull = errors.New("server: ingest queue full")

var errPoolClosed = errors.New("server: ingest pool closed")

// Finished-job retention: byID must stay bounded no matter how many jobs a
// long-lived daemon runs, but /v1/jobs/{id} should keep answering for a
// while after a job completes (202-accepted clients poll the Location URL).
// The jobRetainCount most recent finishers are always kept; beyond them a
// finished job survives only until jobRetainAge passes — and under a burst,
// never past 4*jobRetainCount, so the map's bound does not depend on the
// job rate. Queued and running jobs are never pruned.
const (
	jobRetainCount = 64
	jobRetainAge   = 10 * time.Minute
)

// ingestPool runs jobs on a fixed set of workers with a bounded queue.
type ingestPool struct {
	queue chan *Job
	run   func(*Job)
	wg    sync.WaitGroup

	mu       sync.Mutex
	byID     map[string]*Job
	finished []*Job // done/failed jobs, oldest first, pending prune
	seq      int
	closed   bool
	counts   struct{ queued, running, done, failed int }

	// retention knobs; fixed defaults in production, overridden by tests.
	retainCount int
	retainAge   time.Duration
}

// newIngestPool starts workers goroutines consuming a queue of the given
// depth; run performs one job (status transitions are handled here).
func newIngestPool(workers, depth int, run func(*Job)) *ingestPool {
	if depth < 1 {
		depth = 1
	}
	p := &ingestPool{
		queue:       make(chan *Job, depth),
		run:         run,
		byID:        map[string]*Job{},
		retainCount: jobRetainCount,
		retainAge:   jobRetainAge,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *ingestPool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		p.transition(j, JobRunning, "")
		p.run(j)
		// run reports failure by setting j.Error under the pool lock via
		// Fail; anything still running at this point succeeded.
		p.mu.Lock()
		status := j.Status
		p.mu.Unlock()
		if status == JobRunning {
			p.transition(j, JobDone, "")
		}
	}
}

// Submit registers and enqueues a job, assigning its ID. The enqueue
// happens under the same lock as the closed check: Close also takes the
// lock before closing the channel, so Submit can never send on (or race
// with) a closed queue. The ID is assigned only once the job is actually
// accepted — a shed submission must not burn a sequence number, or the
// job-N series (which operators read as "jobs the server took") develops
// holes that count rejections.
func (p *ingestPool) Submit(j *Job) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errPoolClosed
	}
	// Every send happens under this lock and workers only drain the queue,
	// so a capacity check now cannot be invalidated before the send below.
	if len(p.queue) == cap(p.queue) {
		return ErrQueueFull
	}
	p.seq++
	j.ID = fmt.Sprintf("job-%d", p.seq)
	j.Status = JobQueued
	j.Created = time.Now()
	p.byID[j.ID] = j
	p.counts.queued++
	p.queue <- j
	return nil
}

// Fail marks the job failed with the given error; called from run.
func (p *ingestPool) Fail(j *Job, err error) { p.transition(j, JobFailed, err.Error()) }

// transition moves a job between states, keeping the counters consistent.
func (p *ingestPool) transition(j *Job, to JobStatus, errMsg string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch j.Status {
	case JobQueued:
		p.counts.queued--
	case JobRunning:
		p.counts.running--
	}
	j.Status = to
	j.Error = errMsg
	now := time.Now()
	switch to {
	case JobRunning:
		j.Started = now
		p.counts.running++
	case JobDone:
		j.Finished = now
		j.req = ingestRequest{}
		p.counts.done++
		p.retire(j, now)
	case JobFailed:
		j.Finished = now
		j.req = ingestRequest{}
		p.counts.failed++
		p.retire(j, now)
	}
}

// retire queues a finished job for pruning and prunes whatever is due: a
// job beyond the retainCount most recent finishers goes once its retainAge
// passes, or immediately once the backlog hits the 4x hard cap. Called with
// p.mu held. The completion counters are untouched — pruning bounds memory,
// not history.
func (p *ingestPool) retire(j *Job, now time.Time) {
	p.finished = append(p.finished, j)
	hardCap := 4 * p.retainCount
	cut := 0
	for n := len(p.finished) - cut; n > p.retainCount; n = len(p.finished) - cut {
		if n <= hardCap && now.Sub(p.finished[cut].Finished) < p.retainAge {
			break
		}
		delete(p.byID, p.finished[cut].ID)
		p.finished[cut] = nil // release the Job now
		cut++
	}
	if cut > 0 {
		p.finished = append(p.finished[:0], p.finished[cut:]...)
	}
}

// Get returns a snapshot of the job by ID (nil when unknown). The copy is
// taken under the lock so callers never observe a half-written transition.
func (p *ingestPool) Get(id string) *Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.byID[id]
	if !ok {
		return nil
	}
	cp := *j
	return &cp
}

// QueueLen reports how many submitted jobs are waiting for a worker (the
// channel length is an instantaneous sample; fine for a gauge).
func (p *ingestPool) QueueLen() int { return len(p.queue) }

// Close stops accepting jobs and waits for in-flight ones to finish.
func (p *ingestPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.queue)
	p.wg.Wait()
}

// poolStats is the /v1/stats slice of the ingest pool.
type poolStats struct {
	Queued        int `json:"queued"`
	Running       int `json:"running"`
	Done          int `json:"done"`
	Failed        int `json:"failed"`
	Workers       int `json:"workers"`
	QueueCapacity int `json:"queueCapacity"`
}

func (p *ingestPool) Stats(workers int) poolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return poolStats{
		Queued: p.counts.queued, Running: p.counts.running,
		Done: p.counts.done, Failed: p.counts.failed,
		Workers: workers, QueueCapacity: cap(p.queue),
	}
}
