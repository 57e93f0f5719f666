package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// runConfig is what one invocation fixes for every workload it runs.
type runConfig struct {
	seed    int64
	size    corpusSize
	seconds float64   // length of a measured run (ingest-churn derives its op count from it)
	setups  int       // daemon-side set-ups per run; their median is reported
	workDir string    // scratch directory inside the checkout
	bin     string    // the built daemon
	log     io.Writer // progress notes
}

func (c *runConfig) logf(format string, args ...any) {
	fmt.Fprintf(c.log, "loadgen: "+format+"\n", args...)
}

// Sizing constants shared by the workloads.
const (
	// churnInFlight is the ingest jobs each ingest-churn connection keeps
	// outstanding; two connections make the 8-writer group-commit cohort.
	churnInFlight = 4
	// churnRate sizes ingest-churn: it runs seconds*churnRate ops, which takes
	// about `seconds` at the rate HEAD sustains on the reference box.
	churnRate = 60.0
	// mixedPairsPerSecond is the open-loop write schedule of mixed-shards4.
	mixedPairsPerSecond = 20.0
	// A measured run is cut into at most maxWindows equal slices of time, each
	// holding at least minWindowSamples ops; every timing metric is taken per
	// slice (see quietQuartile).
	maxWindows       = 10
	minWindowSamples = 2000
	// fullCheckEvery: after warm-up one reply in this many is decoded and its
	// top hit verified; during warm-up every reply is.
	fullCheckEvery = 100
	// recoveryProbes is how many recorded answers must survive the kill.
	recoveryProbes = 50
)

// loadClients is how many goroutines (and connections) generate load: two,
// but never more than the machine has CPUs.
func loadClients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// session is one execution of one workload against one daemon lineage (the
// daemon is restarted inside it, always on the same data directory).
type session struct {
	cfg   *runConfig
	co    *corpus
	wl    workloadDef
	dcfg  daemonConfig
	d     *daemon
	conns []*client

	mu       sync.Mutex
	failed   int
	failures []string // the first few, for the report
}

func (s *session) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failed++
	if len(s.failures) < 5 {
		s.failures = append(s.failures, err.Error())
	}
}

// boot starts the daemon on the session's data directory and waits for it.
func (s *session) boot() error {
	d, err := s.dcfg.start()
	if err != nil {
		return err
	}
	s.d = d
	for _, c := range s.conns {
		c.close()
	}
	s.conns = s.conns[:0]
	for i := 0; i < 2; i++ { // mixed-shards4 always needs both roles
		s.conns = append(s.conns, newClient(d.base, benchToken))
	}
	return s.conns[0].waitHealthy(d, 60*time.Second)
}

func (s *session) teardown() {
	if s.d != nil {
		s.d.kill()
		s.d = nil
	}
	for _, c := range s.conns {
		c.close()
	}
}

// quality is what the fixed query sample measures: answer quality against
// loadgen's own flat scan, and the index's exact work counts.
type quality struct {
	recall     float64
	floatOps   float64 // per query, from the response stats
	candidates float64
	costRatio  float64 // hierarchical FloatOps / flat-scan FloatOps (Eq. 25 / Eq. 24)
	sampleSize int
}

// setUp brings a daemon to the measured state: fresh data dir, the base
// corpus ingested over POST /v1/videos one video at a time (so log order,
// and with it the index fit, is the same every run), a clean restart so the
// serving index is a fresh full fit over exactly that log. The workload's
// warm-up follows (see runPass).
func (s *session) setUp() error {
	s.teardown()
	if err := os.RemoveAll(s.dcfg.dataDir); err != nil {
		return err
	}
	if err := os.MkdirAll(s.dcfg.dataDir, 0o755); err != nil {
		return err
	}
	if err := s.boot(); err != nil {
		return err
	}
	c := s.conns[0]
	for i, body := range s.co.baseBodies {
		// Set-up polls at the floor: it wants the video in, not a realistic client.
		if _, err := c.ingestWait(body, pollBackoff{max: pollMin}); err != nil {
			return fmt.Errorf("ingesting %s: %w", s.co.names[i], err)
		}
	}
	if err := s.d.stop(); err != nil {
		return fmt.Errorf("clean restart: %w", err)
	}
	s.d = nil
	if err := s.boot(); err != nil {
		return err
	}
	st, err := s.conns[0].stats()
	if err != nil {
		return err
	}
	if st.Library.Videos != len(s.co.names) || st.Library.IndexStale || st.Library.IndexStaleness != 0 {
		return fmt.Errorf("after restart: %d videos (want %d), indexStale=%v staleness=%v",
			st.Library.Videos, len(s.co.names), st.Library.IndexStale, st.Library.IndexStaleness)
	}
	return nil
}

// qualitySample sends the fixed query sample once and compares every answer
// with loadgen's own flat scan. It runs on the freshly fit base library,
// before any write: the sample's answers are fixed by the corpus.
func (s *session) qualitySample(c *client) quality {
	ids := qualitySample(len(s.co.entries))
	var q quality
	var found, want int
	var flatFloatOps float64
	for n, id := range ids {
		r, err := c.search(s.co, id, true)
		if err != nil {
			s.fail(err)
			continue
		}
		exact, flat := s.co.exact[n], s.co.flatStats[n]
		in := make(map[hitKey]bool, len(exact))
		for _, k := range exact {
			in[k] = true
		}
		for _, h := range r.Hits {
			if in[hitKey{h.Video, h.Shot}] {
				found++
			}
		}
		want += len(exact)
		q.floatOps += float64(r.Stats.FloatOps)
		q.candidates += float64(r.Stats.Candidates)
		flatFloatOps += float64(flat.FloatOps)
		q.sampleSize++
	}
	if want > 0 {
		q.recall = float64(found) / float64(want)
	}
	if flatFloatOps > 0 {
		q.costRatio = q.floatOps / flatFloatOps
	}
	if q.sampleSize > 0 {
		q.floatOps /= float64(q.sampleSize)
		q.candidates /= float64(q.sampleSize)
	}
	return q
}

// warmDuration is the discarded lead-in of every measured run.
func (s *session) warmDuration() time.Duration {
	return time.Duration(s.cfg.seconds / 10 * float64(time.Second))
}

func (s *session) runDuration() time.Duration {
	return time.Duration(s.cfg.seconds * float64(time.Second))
}

// warmUp runs the workload's own loop with every reply verified, and for the
// write workloads first fills the library to its steady 400+128 videos.
func (s *session) warmUp() {
	switch s.wl.Name {
	case "ingest-churn":
		s.churnClosed(newChurn(s.co, 0, s.churnLag(), 0))
	case "mixed-shards4":
		s.churnClosed(newChurn(s.co, 0, s.churnLag(), 0))
		s.searchPhase(s.searchSources(phaseWarm), s.warmDuration(), 1)
	default:
		s.searchPhase(s.searchSources(phaseWarm), s.warmDuration(), 1)
	}
}

// Phases of a session; each gets its own query sequences, so what the
// measured run sends is fixed by the seed alone and not by how far the
// warm-up got.
const (
	phaseWarm = iota
	phaseMeasured
)

// searchSources builds the workload's per-client query sources for a phase.
func (s *session) searchSources(phase int) []*querySource {
	shots := len(s.co.entries)
	hot := hotSet(s.cfg.seed, shots)
	var share float64
	clients := loadClients()
	switch s.wl.Name {
	case "search-uncached":
		hot = nil
	case "search-cached":
		share = 1
	case "mixed-shards4":
		share = 0.8
		clients = 1 // the other connection carries the writes
	}
	var out []*querySource
	for i := 0; i < clients; i++ {
		out = append(out, newQuerySource(s.cfg.seed, phase*100+i, shots, hot, share))
	}
	return out
}

// searchPhase runs one closed-loop search client per source for d and
// returns the merged samples of successful searches.
func (s *session) searchPhase(sources []*querySource, d time.Duration, checkEvery int) []sample {
	start := time.Now()
	per := make([][]sample, len(sources))
	var wg sync.WaitGroup
	for i, src := range sources {
		wg.Add(1)
		go func(i int, src *querySource) {
			defer wg.Done()
			per[i] = s.searchLoop(s.conns[i], src, start, d, checkEvery)
		}(i, src)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

func (s *session) searchLoop(c *client, src *querySource, start time.Time, d time.Duration, checkEvery int) []sample {
	out := make([]sample, 0, 1<<16)
	for n := 0; ; n++ {
		t0 := time.Now()
		if t0.Sub(start) >= d {
			return out
		}
		_, err := c.search(s.co, src.next(), n%checkEvery == 0)
		t1 := time.Now()
		if err != nil {
			s.fail(err)
			continue
		}
		out = append(out, sample{at: t1.Sub(start), lat: t1.Sub(t0)})
	}
}

// churn is the shared state of a write workload: op i registers pool body
// i mod pool as churn-<i> and, once acknowledged, deletes churn-<i-lag>, so
// the library holds base+lag videos throughout.
type churn struct {
	co    *corpus
	first int // first op index of this phase
	count int
	lag   int
	next  atomic.Int64
	// ingested[i-first] records op i's acknowledgement; each element is
	// written by the one goroutine that ran the op.
	ingested []bool

	mu       sync.Mutex
	deleted  map[int]bool    // ops whose video was acknowledged deleted
	acks     []sample        // POST sent (or due) -> job finished timestamp
	deletes  []sample        // synchronous DELETE latency
	queueLat []time.Duration // job created -> started
	runLat   []time.Duration // job started -> finished
}

func churnName(i int) string { return fmt.Sprintf("churn-%d", i) }

// newChurn plans ops first..first+count-1; lag 0 means no deletes (the
// warm-up's fill).
func newChurn(co *corpus, first, count, lag int) *churn {
	ch := &churn{co: co, first: first, count: count, lag: lag, ingested: make([]bool, count), deleted: map[int]bool{}}
	ch.next.Store(int64(first))
	return ch
}

// churnLag is how many churn videos stay registered: half the write pool.
func (s *session) churnLag() int { return s.co.size.Pool / 2 }

// live lists the churn videos acknowledged as ingested and not acknowledged
// as deleted by this phase.
func (ch *churn) live() []string {
	var out []string
	for i, ok := range ch.ingested {
		if op := ch.first + i; ok && !ch.deleted[op] {
			out = append(out, churnName(op))
		}
	}
	return out
}

// finish records op's acknowledged ingest and issues its paired delete.
func (s *session) churnFinish(c *client, ch *churn, op int, j job, from, start time.Time) {
	ch.ingested[op-ch.first] = true
	ack := sample{at: j.Finished.Sub(start), lat: j.Finished.Sub(from)}
	var del *sample
	if victim := op - ch.lag; ch.lag > 0 && victim >= 0 {
		t0 := time.Now()
		err := c.deleteVideo(churnName(victim))
		t1 := time.Now()
		if err != nil {
			s.fail(err)
		} else {
			del = &sample{at: t1.Sub(start), lat: t1.Sub(t0)}
		}
	}
	ch.mu.Lock()
	ch.acks = append(ch.acks, ack)
	ch.queueLat = append(ch.queueLat, j.Started.Sub(j.Created))
	ch.runLat = append(ch.runLat, j.Finished.Sub(j.Started))
	if del != nil {
		ch.deletes = append(ch.deletes, *del)
		ch.deleted[op-ch.lag] = true
	}
	ch.mu.Unlock()
}

// churnClosed runs ch's ops closed-loop: every load connection keeps
// churnInFlight jobs outstanding, polling them with a 0.5 to 4 ms back-off.
func (s *session) churnClosed(ch *churn) {
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < loadClients(); i++ {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			s.churnConn(c, ch, start)
		}(s.conns[i])
	}
	wg.Wait()
}

func (s *session) churnConn(c *client, ch *churn, start time.Time) {
	type pending struct {
		op   int
		id   string
		sent time.Time
	}
	var (
		inflight []pending
		scratch  []byte
		backoff  = pollBackoff{max: pollMax}
	)
	end := ch.first + ch.count
	for {
		for len(inflight) < churnInFlight {
			op := int(ch.next.Add(1)) - 1
			if op >= end {
				break
			}
			scratch = ch.co.pool[op%len(ch.co.pool)].splice(scratch, churnName(op))
			sent := time.Now()
			id, err := c.submit(scratch)
			if err != nil {
				s.fail(err)
				continue
			}
			inflight = append(inflight, pending{op, id, sent})
		}
		if len(inflight) == 0 {
			return
		}
		progressed := false
		for i := 0; i < len(inflight); {
			p := inflight[i]
			j, err := c.poll(p.id)
			switch {
			case err != nil:
				s.fail(err)
			case j.Status == "done":
				s.churnFinish(c, ch, p.op, j, p.sent, start)
			case time.Since(p.sent) > 30*time.Second:
				s.fail(fmt.Errorf("job %s still %s after 30s", p.id, j.Status))
			default:
				i++
				continue
			}
			inflight = append(inflight[:i], inflight[i+1:]...)
			progressed = true
		}
		if progressed {
			backoff.reset()
		} else {
			backoff.sleep()
		}
	}
}

// churnOpen runs ch's pairs on an open-loop schedule: pair i is due at
// start + i/rate regardless of how earlier pairs went, and its ingest latency
// counts from the due time.
func (s *session) churnOpen(c *client, ch *churn, rate float64, start time.Time) *openLoop {
	ol := newOpenLoop(start, rate)
	var scratch []byte
	for i := 0; i < ch.count; i++ {
		if wait := time.Until(ol.due(i)); wait > 0 {
			time.Sleep(wait)
		}
		op := ch.first + i
		scratch = ch.co.pool[op%len(ch.co.pool)].splice(scratch, churnName(op))
		from := ol.sent(i, time.Now())
		j, err := c.ingestWait(scratch, pollBackoff{max: pollMax})
		if err != nil {
			s.fail(err)
			continue
		}
		s.churnFinish(c, ch, op, j, from, start)
	}
	return ol
}

// measured is what one workload's measured phase hands to the reporter.
type measured struct {
	elapsed   time.Duration
	searches  []sample
	ch        *churn // nil on the pure search workloads
	open      *openLoop
	liveChurn []string // churn videos the library must still hold
}

// ops counts every successful operation of the phase, of any kind.
func (m *measured) ops() int {
	n := len(m.searches)
	if m.ch != nil {
		n += len(m.ch.acks) + len(m.ch.deletes)
	}
	return n
}

// churnOps sizes ingest-churn: a fixed count, so a faster daemon finishes
// sooner instead of doing more.
func (s *session) churnOps() int { return int(math.Round(s.cfg.seconds * churnRate)) }

// measure runs the workload's measured phase.
func (s *session) measure() *measured {
	m := &measured{}
	lag := s.churnLag()
	start := time.Now()
	switch s.wl.Name {
	case "ingest-churn":
		m.ch = newChurn(s.co, lag, s.churnOps(), lag)
		s.churnClosed(m.ch)
	case "mixed-shards4":
		m.ch = newChurn(s.co, lag, int(s.cfg.seconds*mixedPairsPerSecond), lag)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.open = s.churnOpen(s.conns[1], m.ch, mixedPairsPerSecond, start)
		}()
		m.searches = s.searchPhase(s.searchSources(phaseMeasured), s.runDuration(), fullCheckEvery)
		wg.Wait()
	default:
		m.searches = s.searchPhase(s.searchSources(phaseMeasured), s.runDuration(), fullCheckEvery)
	}
	m.elapsed = time.Since(start)
	if m.ch != nil {
		// The warm-up's fill left churn-0..lag-1 registered; this phase's
		// deletes retire them first.
		for i := 0; i < lag; i++ {
			if !m.ch.deleted[i] {
				m.liveChurn = append(m.liveChurn, churnName(i))
			}
		}
		m.liveChurn = append(m.liveChurn, m.ch.live()...)
	}
	return m
}

// recovery is the crash test every workload ends with.
type recovery struct {
	seconds    float64 // the fastest of the kills (interference only slows a recovery)
	killedCopy string  // copy of the data dir as the first kill left it ("" unless kept)
	diskBytes  int64   // size of the data dir at the first kill
}

// kills is how many times the crash test kills and recovers the daemon.
const kills = 3

// crashAndRecover records answers to a fixed probe set, then kills times
// over: SIGKILL the daemon, restart it on the same data dir, and time kill ->
// first answered search. After every recovery the video listing must equal
// base + acknowledged ingests - acknowledged deletes. The first recovery's
// answers must pass the per-answer oracle, and equal the pre-kill recording
// byte for byte when the pre-kill index was a fresh fit (freshBefore): a
// recovered index is always a fresh fit, and only then are the two the same
// structure. Every later recovery must reproduce the first one's answers
// byte for byte, whatever the workload did: recovery is deterministic.
func (s *session) crashAndRecover(liveChurn []string, freshBefore, keepCopy bool) (recovery, error) {
	var rec recovery
	ids := qualitySample(len(s.co.entries))
	if len(ids) > recoveryProbes {
		ids = ids[:recoveryProbes]
	}
	before := s.probeAnswers(ids, false)
	want := append(append([]string(nil), s.co.names...), liveChurn...)
	sort.Strings(want)

	var times []float64
	var first [][]byte
	for n := 0; n < kills; n++ {
		s.d.kill()
		s.d = nil
		if n == 0 {
			rec.diskBytes = dirBytes(s.dcfg.dataDir)
			if keepCopy {
				rec.killedCopy = s.dcfg.dataDir + ".killed"
				if err := copyDir(s.dcfg.dataDir, rec.killedCopy); err != nil {
					return rec, err
				}
			}
		}
		t0 := time.Now()
		if err := s.boot(); err != nil {
			return rec, fmt.Errorf("restart after kill: %w", err)
		}
		if _, err := s.conns[0].searchHits(s.co, ids[0]); err != nil {
			return rec, fmt.Errorf("first search after recovery: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		after := s.probeAnswers(ids, n == 0)
		switch {
		case n == 0:
			first = after
			if freshBefore {
				s.compareAnswers(ids, before, after, "the pre-kill recording")
			}
		default:
			s.compareAnswers(ids, first, after, "the first recovery's")
		}
		s.checkListing(want)
	}
	s.cfg.logf("%s: recoveries took %.3f s", s.wl.Name, times)
	sort.Float64s(times)
	rec.seconds = times[0]
	return rec, nil
}

// probeAnswers fetches the "hits" array of every probe query, byte for byte
// (nil where the request failed, which counts as a failure). With check set
// each answer is also put to the per-answer oracle.
func (s *session) probeAnswers(ids []int, check bool) [][]byte {
	out := make([][]byte, len(ids))
	for i, id := range ids {
		raw, err := s.conns[0].searchHits(s.co, id)
		if err == nil && check {
			var r searchReply
			if err = json.Unmarshal(raw, &r.Hits); err == nil {
				err = checkReply(s.co, id, &r)
			}
		}
		if err != nil {
			s.fail(err)
			continue
		}
		out[i] = raw
	}
	return out
}

func (s *session) compareAnswers(ids []int, want, got [][]byte, what string) {
	for i, id := range ids {
		if want[i] != nil && got[i] != nil && !bytes.Equal(want[i], got[i]) {
			s.fail(fmt.Errorf("after recovery, hits for shot %d differ from %s", id, what))
		}
	}
}

// checkListing compares GET /v1/videos with the names loadgen holds
// acknowledgements for.
func (s *session) checkListing(want []string) {
	got, err := s.conns[0].listVideos()
	if err != nil {
		s.fail(err)
		return
	}
	if len(got) != len(want) {
		s.fail(fmt.Errorf("after recovery the library lists %d videos, want %d (base + acknowledged ingests - acknowledged deletes)", len(got), len(want)))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			s.fail(fmt.Errorf("after recovery the library lists %q where %q was acknowledged", got[i], want[i]))
			return
		}
	}
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil // a file vanishing mid-walk just is not counted
	})
	return n
}

func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
