package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"time"
)

// searchK is the k of every search the benchmark sends.
const searchK = 10

// client is one load-generating connection: its transport holds exactly one
// keep-alive connection, and one goroutine drives it.
type client struct {
	hc    *http.Client
	base  string
	token string
	buf   bytes.Buffer // response scratch, reused across calls
}

func newClient(base, token string) *client {
	tr := &http.Transport{
		MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
		DialContext:        (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
		DisableCompression: true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base, token: token}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response; the returned body is
// valid until the next call.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// getJSON fetches path and decodes the 200 response into v.
func (c *client) getJSON(path string, v any) error {
	status, body, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, firstLine(body))
	}
	return json.Unmarshal(body, v)
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 && len(b) > 200 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(bytes.TrimSpace(b))
}

// waitHealthy polls /healthz until the daemon answers or the deadline passes.
func (c *client) waitHealthy(d *daemon, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		status, _, err := c.do(http.MethodGet, "/healthz", nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not healthy after %v (last error: %v)", timeout, err)
		}
		select {
		case <-d.exited:
			return fmt.Errorf("daemon exited during boot: %v", d.err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// searchReply is the part of a /v1/search response the oracle reads.
type searchReply struct {
	Hits  []replyHit `json:"hits"`
	Stats struct {
		FloatOps   int `json:"FloatOps"`
		Candidates int `json:"Candidates"`
	} `json:"stats"`
}

type replyHit struct {
	Video string  `json:"video"`
	Shot  int     `json:"shot"`
	Dist  float64 `json:"dist"`
}

var hitMarker = []byte(`"video": `)

// search runs one query-by-example for corpus shot id. Every reply must be a
// 200 carrying exactly k hits; when full is set the reply is also decoded
// and put to checkReply. The reply is nil unless full.
func (c *client) search(co *corpus, id int, full bool) (*searchReply, error) {
	status, body, err := c.do(http.MethodPost, "/v1/search", co.searchBodies[id])
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("search %d: status %d: %s", id, status, firstLine(body))
	}
	if n := bytes.Count(body, hitMarker); n != searchK {
		return nil, fmt.Errorf("search %d: %d hits, want %d", id, n, searchK)
	}
	if !full {
		return nil, nil
	}
	var r searchReply
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("search %d: %v", id, err)
	}
	return &r, checkReply(co, id, &r)
}

// checkReply is the per-answer oracle. The index is approximate, so which
// shots come back is a quality question (measured as recall against the flat
// scan); what a reply says about the shots it does return must hold exactly:
// k distinct hits, nearest first, each a shot loadgen ingested, and no hit
// reported farther than it truly is. A single library ranks in its leaf's
// reduced space, an orthogonal projection that can only shrink a distance;
// the shard router reports the full-space distance itself. Either way the
// example shot, when returned, is at distance 0 and therefore first.
func checkReply(co *corpus, id int, r *searchReply) error {
	if len(r.Hits) != searchK {
		return fmt.Errorf("search %d: %d hits, want %d", id, len(r.Hits), searchK)
	}
	seen := make(map[hitKey]bool, searchK)
	for i, h := range r.Hits {
		if i > 0 && h.Dist < r.Hits[i-1].Dist {
			return fmt.Errorf("search %d: hit %d (dist %v) ranks after a farther one (%v)", id, i, h.Dist, r.Hits[i-1].Dist)
		}
		if seen[hitKey{h.Video, h.Shot}] {
			return fmt.Errorf("search %d: hit %s/%d returned twice", id, h.Video, h.Shot)
		}
		seen[hitKey{h.Video, h.Shot}] = true
		truth, ok := co.distanceTo(id, h.Video, h.Shot)
		if !ok {
			return fmt.Errorf("search %d: hit %s/%d is not a shot loadgen ingested", id, h.Video, h.Shot)
		}
		if h.Dist < 0 || h.Dist > truth*(1+1e-9)+1e-12 {
			return fmt.Errorf("search %d: hit %s/%d reports distance %v, beyond its true distance %v", id, h.Video, h.Shot, h.Dist, truth)
		}
	}
	return nil
}

// searchHits returns the reply's "hits" array byte for byte: what the
// recovery oracle records and compares.
func (c *client) searchHits(co *corpus, id int) ([]byte, error) {
	status, body, err := c.do(http.MethodPost, "/v1/search", co.searchBodies[id])
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("search %d: status %d: %s", id, status, firstLine(body))
	}
	var r struct {
		Hits json.RawMessage `json:"hits"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	return append([]byte(nil), r.Hits...), nil
}

// job is the part of a job record loadgen reads.
type job struct {
	ID       string    `json:"id"`
	Status   string    `json:"status"`
	Error    string    `json:"error"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
}

// submit POSTs one ingest body and returns the accepted job's id.
func (c *client) submit(body []byte) (string, error) {
	status, resp, err := c.do(http.MethodPost, "/v1/videos", body)
	if err != nil {
		return "", err
	}
	if status != http.StatusAccepted {
		return "", fmt.Errorf("ingest: status %d: %s", status, firstLine(resp))
	}
	var j job
	if err := json.Unmarshal(resp, &j); err != nil {
		return "", err
	}
	return j.ID, nil
}

// poll fetches a job record.
func (c *client) poll(id string) (job, error) {
	var j job
	err := c.getJSON("/v1/jobs/"+id, &j)
	if err == nil && j.Status == "failed" {
		err = fmt.Errorf("job %s failed: %s", id, j.Error)
	}
	return j, err
}

// pollBackoff is the sleep between polls of a job that is still running: it
// doubles from pollMin up to max.
type pollBackoff struct {
	max, cur time.Duration
}

const (
	pollMin = 500 * time.Microsecond
	pollMax = 4 * time.Millisecond
)

func (b *pollBackoff) reset() { b.cur = 0 }

func (b *pollBackoff) sleep() {
	if b.cur < pollMin {
		b.cur = pollMin
	}
	time.Sleep(b.cur)
	if b.cur *= 2; b.cur > b.max {
		b.cur = b.max
	}
}

// ingestWait submits a body and polls its job to done, sleeping between
// polls as backoff says.
func (c *client) ingestWait(body []byte, backoff pollBackoff) (job, error) {
	id, err := c.submit(body)
	if err != nil {
		return job{}, err
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		backoff.sleep()
		j, err := c.poll(id)
		if err != nil || j.Status == "done" {
			return j, err
		}
		if time.Now().After(deadline) {
			return j, fmt.Errorf("job %s still %s after 30s", id, j.Status)
		}
	}
}

// deleteVideo issues the synchronous durable DELETE.
func (c *client) deleteVideo(name string) error {
	status, body, err := c.do(http.MethodDelete, "/v1/videos/"+name, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("delete %s: status %d: %s", name, status, firstLine(body))
	}
	return nil
}

// listVideos returns the registered video names, sorted.
func (c *client) listVideos() ([]string, error) {
	var r struct {
		Videos []struct {
			Name string `json:"name"`
		} `json:"videos"`
	}
	if err := c.getJSON("/v1/videos", &r); err != nil {
		return nil, err
	}
	names := make([]string, len(r.Videos))
	for i, v := range r.Videos {
		names[i] = v.Name
	}
	sort.Strings(names)
	return names, nil
}

// scrape fetches and parses GET /metrics.
func (c *client) scrape() (promSnapshot, error) {
	status, body, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	return parseProm(bytes.NewReader(body))
}

// daemonStats is the part of GET /v1/stats the layer metrics read.
type daemonStats struct {
	Library struct {
		Videos         int     `json:"videos"`
		Shots          int     `json:"shots"`
		IndexStale     bool    `json:"indexStale"`
		IndexStaleness float64 `json:"indexStaleness"`
	} `json:"library"`
	Ingest struct {
		Queued int `json:"queued"`
	} `json:"ingest"`
	Index struct {
		Staleness float64 `json:"staleness"`
	} `json:"index"`
}

func (c *client) stats() (daemonStats, error) {
	var s daemonStats
	err := c.getJSON("/v1/stats", &s)
	return s, err
}

// traceView mirrors one kept trace of GET /debug/traces.
type traceView struct {
	TraceID    string     `json:"traceId"`
	Route      string     `json:"route"`
	Method     string     `json:"method"`
	Status     int        `json:"status"`
	DurationMS float64    `json:"durationMs"`
	Spans      []spanView `json:"spans"`
}

// traces pulls the daemon's trace ring, optionally filtered by route.
func (c *client) traces(route string) ([]traceView, error) {
	var r struct {
		Traces []traceView `json:"traces"`
	}
	path := "/debug/traces"
	if route != "" {
		path += "?route=" + route
	}
	err := c.getJSON(path, &r)
	return r.Traces, err
}
