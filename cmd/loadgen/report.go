package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workloadResult is one workload's section of a result file.
type workloadResult struct {
	Why        string         `json:"why"`
	DaemonArgs []string       `json:"daemonArgs"`
	Ops        int            `json:"ops"`
	Failed     int            `json:"failed"`
	Failures   []string       `json:"failures,omitempty"`
	Samples    map[string]int `json:"samples"`
	EndToEnd   metricSet      `json:"end_to_end"`
	PerLayer   metricSet      `json:"per_layer,omitempty"`
}

// pass is everything one execution of a workload observed.
type pass struct {
	setupS       float64 // median daemon-side set-up, seconds
	q            quality
	m            *measured
	before       promSnapshot
	after        promSnapshot
	statsAfter   daemonStats
	daemonCPU    time.Duration // daemon utime+stime over the measured phase
	selfCPU      time.Duration // loadgen's own
	rssMB        float64       // median resident set over the measured phase
	rssPeakMB    float64       // VmHWM at its end: the daemon's peak since boot
	cpu          []cpuSample   // the daemon's CPU time through the measured phase
	maxStaleness float64
	maxQueue     int
	traces       []traceView // traced pass only: the ring at the end of the run
	rebuilds     []traceView // traced pass only: rebuild traces seen during the run
	rec          recovery
}

// cpuSample is the daemon's cumulative CPU time at an offset into the run.
type cpuSample struct {
	at  time.Duration
	cpu time.Duration
}

// observer watches the daemon while a measured phase runs, on its own
// connection; it is bookkeeping, not load. Every 50 ms it reads the daemon's
// CPU time and resident set from /proc, so CPU per op can be taken per window
// and memory as the run's median (the peak is set by when the collector
// happened to run during recovery, and spreads four times as wide); ten times a run
// (at most a second apart) it fetches GET /v1/stats for the gauges whose
// maximum is reported. A traced pass also collects rebuild traces as they
// appear, because the ring only keeps the last 4096 traces and a refit is rare.
type observer struct {
	stop, done   chan struct{}
	cpu          []cpuSample
	rssMB        []float64
	maxStaleness float64
	maxQueue     int
	rebuilds     map[string]traceView
}

const cpuSampleEvery = 50 * time.Millisecond

func (s *session) observe(start time.Time) *observer {
	o := &observer{stop: make(chan struct{}), done: make(chan struct{}), rebuilds: map[string]traceView{}}
	statsEvery := int(s.runDuration() / 10 / cpuSampleEvery)
	if statsEvery > int(time.Second/cpuSampleEvery) {
		statsEvery = int(time.Second / cpuSampleEvery)
	}
	if statsEvery < 2 {
		statsEvery = 2
	}
	token := benchToken
	if s.dcfg.traced {
		token = adminToken
	}
	c := newClient(s.d.base, token)
	pid := s.d.pid()
	sampleProc := func() {
		if cpu, err := procCPU(pid); err == nil {
			o.cpu = append(o.cpu, cpuSample{at: time.Since(start), cpu: cpu})
		}
		if rss, err := procMemMB(pid, "VmRSS"); err == nil {
			o.rssMB = append(o.rssMB, rss)
		}
	}
	sampleProc()
	go func() {
		defer close(o.done)
		defer c.close()
		t := time.NewTicker(cpuSampleEvery)
		defer t.Stop()
		for n := 1; ; n++ {
			select {
			case <-o.stop:
				sampleProc()
				return
			case <-t.C:
			}
			sampleProc()
			if n%statsEvery != 0 {
				continue
			}
			if st, err := c.stats(); err == nil {
				if st.Index.Staleness > o.maxStaleness {
					o.maxStaleness = st.Index.Staleness
				}
				if st.Ingest.Queued > o.maxQueue {
					o.maxQueue = st.Ingest.Queued
				}
			}
			if s.dcfg.traced {
				if trs, err := c.traces("rebuild"); err == nil {
					for _, tr := range trs {
						o.rebuilds[tr.TraceID] = tr
					}
				}
			}
		}
	}()
	return o
}

func (o *observer) finish() {
	close(o.stop)
	<-o.done
}

// cpuAt interpolates the daemon's cumulative CPU time at offset t.
func cpuAt(samples []cpuSample, t time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	i := sort.Search(len(samples), func(i int) bool { return samples[i].at >= t })
	switch {
	case i == 0:
		return samples[0].cpu
	case i == len(samples):
		return samples[len(samples)-1].cpu
	}
	a, b := samples[i-1], samples[i]
	if b.at == a.at {
		return b.cpu
	}
	return a.cpu + time.Duration(float64(b.cpu-a.cpu)*float64(t-a.at)/float64(b.at-a.at))
}

// runPass sets the daemon up and warms it (cfg.setups times; the last set-up
// is the one measured), runs the measured phase between two scrapes, and, on
// an untraced pass, ends with the crash test.
func (s *session) runPass(keepKilledCopy bool) (*pass, error) {
	defer s.teardown()
	p := &pass{}
	var setups []float64
	n := max(1, s.cfg.setups)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := s.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		prepared := time.Since(t0)
		if i == n-1 {
			// Between set-up proper and warm-up, and not timed as either: the
			// quality sample wants the freshly fit base library, before the
			// write workloads' warm-up touches it.
			p.q = s.qualitySample(s.conns[0])
			s.cfg.logf("%s: recall@%d %.4f, %.0f float ops and %.0f candidates per query (%.4f of a flat scan)",
				s.wl.Name, searchK, p.q.recall, p.q.floatOps, p.q.candidates, p.q.costRatio)
		}
		t0 = time.Now()
		s.warmUp()
		setups = append(setups, (prepared + time.Since(t0)).Seconds())
	}
	p.setupS = median(setups)

	c := s.conns[0]
	var err error
	if p.before, err = c.scrape(); err != nil {
		return nil, err
	}
	cpu0, err := procCPU(s.d.pid())
	if err != nil {
		return nil, err
	}
	self0, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	obs := s.observe(time.Now())
	p.m = s.measure()
	obs.finish()
	p.cpu, p.maxStaleness, p.maxQueue = obs.cpu, obs.maxStaleness, obs.maxQueue
	if len(obs.rssMB) == 0 {
		return nil, fmt.Errorf("no resident-set sample of the daemon could be read from /proc")
	}
	p.rssMB = median(obs.rssMB)
	cpu1, err := procCPU(s.d.pid())
	if err != nil {
		return nil, err
	}
	self1, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	p.daemonCPU, p.selfCPU = cpu1-cpu0, self1-self0
	if p.after, err = c.scrape(); err != nil {
		return nil, err
	}
	if p.statsAfter, err = c.stats(); err != nil {
		return nil, err
	}
	if p.rssPeakMB, err = procMemMB(s.d.pid(), "VmHWM"); err != nil {
		return nil, err
	}
	if s.dcfg.traced {
		admin := newClient(s.d.base, adminToken)
		p.traces, err = admin.traces("")
		admin.close()
		if err != nil {
			return nil, err
		}
		for _, tr := range obs.rebuilds {
			p.rebuilds = append(p.rebuilds, tr)
		}
		return p, nil // the span budget needs no crash test
	}
	fresh := !p.statsAfter.Library.IndexStale && p.statsAfter.Library.IndexStaleness == 0
	if p.rec, err = s.crashAndRecover(p.m.liveChurn, fresh, keepKilledCopy); err != nil {
		return nil, err
	}
	return p, nil
}

// primary returns the samples of the workload's own operation: ingests on
// ingest-churn, searches everywhere else.
func (p *pass) primary() []sample {
	if len(p.m.searches) == 0 && p.m.ch != nil {
		return p.m.ch.acks
	}
	return p.m.searches
}

// allOps returns every successful operation of the phase, of any kind.
func (p *pass) allOps() []sample {
	all := append([]sample(nil), p.m.searches...)
	if ch := p.m.ch; ch != nil {
		all = append(append(all, ch.acks...), ch.deletes...)
	}
	return all
}

// windowCount cuts a run of n primary samples into up to maxWindows windows
// of at least minWindowSamples each. A window's median or rate only means
// something with enough samples in it: ingest-churn completes about 60 ops a
// second with a two-mode latency (a refit is running or it is not), and its
// per-window medians flip between the modes (cutting a 1200-op run in two
// widens the ten-run spread of its p50 from 7% to 12%), so it is reported whole.
func windowCount(n int) int {
	return max(1, min(maxWindows, n/minWindowSamples))
}

// quietP50 is the pass's op_p50_ms: the quiet-side quartile of the windows'
// median latencies.
func (p *pass) quietP50() float64 {
	prim := p.primary()
	var p50 []float64
	for _, w := range windowsOf(prim, p.m.elapsed, windowCount(len(prim))) {
		p50 = append(p50, w.p50)
	}
	return quietQuartile(p50, false)
}

// endToEndMetrics fills the client-visible metrics of one untraced pass. The
// three timing metrics are taken per window and reduced by quietQuartile.
func endToEndMetrics(p *pass, corpusS float64) metricSet {
	out := metricSet{}
	prim := p.primary()
	n := windowCount(len(prim))
	width := p.m.elapsed / time.Duration(n)
	var rate, cpuPerOp []float64
	for _, w := range windowsOf(prim, p.m.elapsed, n) {
		rate = append(rate, float64(w.ops)/width.Seconds())
	}
	for i, w := range windowsOf(p.allOps(), p.m.elapsed, n) {
		if w.ops > 0 {
			cpu := cpuAt(p.cpu, time.Duration(i+1)*width) - cpuAt(p.cpu, time.Duration(i)*width)
			cpuPerOp = append(cpuPerOp, float64(cpu.Microseconds())/float64(w.ops))
		}
	}
	out.set(endToEnd, "setup_s", corpusS+p.setupS)
	out.set(endToEnd, "op_rps", quietQuartile(rate, true))
	out.set(endToEnd, "op_p50_ms", p.quietP50())
	out.set(endToEnd, "recover_s", p.rec.seconds)
	out.set(endToEnd, "search_recall_at_10", p.q.recall)
	out.set(endToEnd, "daemon_cpu_us_per_op", quietQuartile(cpuPerOp, false))
	out.set(endToEnd, "daemon_rss_mb", p.rssMB)
	out.fill(endToEnd)
	return out
}

const searchRoute = `route="/v1/search"`

// featureBytes is the live payload of one video: its shots' float64 features.
func (co *corpus) featureBytes() float64 { return float64(co.size.ShotsPerVideo * co.dim * 8) }

// layerMetrics fills the per-layer metrics that come from the /metrics and
// /v1/stats deltas of the untraced measured run, plus loadgen's own.
func layerMetrics(out metricSet, p *pass, co *corpus) {
	set := func(name string, v float64) { out.set(perLayer, name, v) }
	b, a := p.before, p.after
	d := func(series string) float64 { return a.delta(b, series) }

	// The client-observed tail, reduced like op_p50_ms. It is per-layer, not
	// end-to-end, because ten runs of unchanged code spread it by 13% of its
	// median on the write workloads even on a quiet box (six samples lie beyond
	// the p99 of 600 ingests), which no bound the contract allows can carry.
	prim := p.primary()
	var p99 []float64
	for _, w := range windowsOf(prim, p.m.elapsed, windowCount(len(prim))) {
		p99 = append(p99, w.p99)
	}
	set("client.op_p99_ms", quietQuartile(p99, false))
	set("proc.rss_peak_mb", p.rssPeakMB)

	if len(p.m.searches) > 0 {
		http := histogramDelta(b, a, "http_request_duration_seconds", searchRoute)
		serverP50 := http.quantile(0.5) * 1e3
		set("server.http_p50_ms", serverP50)
		set("server.http_mean_ms", http.mean()*1e3)
		set("net.client_minus_server_p50_ms", percentile(latencies(p.m.searches), 0.5)-serverP50)
	}
	hits, misses := d("search_cache_hits_total"), d("search_cache_misses_total")
	if hits+misses > 0 {
		set("cache.hit_ratio", hits/(hits+misses))
	}
	set("cache.evictions", d("search_cache_evictions_total"))
	set("admit.wait_p99_ms", histogramDelta(b, a, "admit_wait_seconds", "").quantile(0.99)*1e3)
	var rejected float64
	for series := range a {
		if strings.HasPrefix(series, "admit_rejected_total{") {
			rejected += d(series)
		}
	}
	set("admit.rejected", rejected)

	set("index.float_ops_per_query", p.q.floatOps)
	set("index.candidates_per_query", p.q.candidates)
	set("index.cost_ratio", p.q.costRatio)
	set("index.rebuilds", d("index_rebuilds_total"))
	set("index.rebuilds_coalesced", d("index_rebuild_kicks_coalesced_total"))
	set("index.incremental_inserts", d("classminer_index_incremental_inserts_total"))
	set("index.incremental_removes", d("classminer_index_incremental_removes_total"))
	set("index.staleness_max", p.maxStaleness)

	appends, appendBytes := d("wal_appends_total"), d("wal_append_bytes_total")
	set("wal.records_per_fsync", histogramDelta(b, a, "wal_group_commit_records", "").mean())
	fsync := histogramDelta(b, a, "wal_fsync_duration_seconds", "")
	set("wal.fsync_p50_ms", fsync.quantile(0.5)*1e3)
	set("wal.fsync_p99_ms", fsync.quantile(0.99)*1e3)
	if appends > 0 {
		set("wal.bytes_per_record", appendBytes/appends)
	}
	ckpt := histogramDelta(b, a, "wal_checkpoint_duration_seconds", "")
	compact := histogramDelta(b, a, "wal_compact_duration_seconds", "")
	set("wal.checkpoints", ckpt.count)
	set("wal.checkpoint_s", ckpt.sum)
	set("wal.compactions", compact.count)
	set("wal.compact_s", compact.sum)
	set("wal.rotations", d("wal_rotations_total"))
	set("wal.lag_bytes_at_kill", a["wal_lag_bytes"])
	if live := float64(p.statsAfter.Library.Videos) * co.featureBytes(); live > 0 {
		set("wal.disk_bytes_per_live_byte", float64(p.rec.diskBytes)/live)
	}

	if ch := p.m.ch; ch != nil && len(ch.acks) > 0 {
		set("wal.write_amp", appendBytes/(float64(len(ch.acks))*co.featureBytes()))
		acks := latencies(ch.acks)
		set("ingest.rps", float64(len(ch.acks))/p.m.elapsed.Seconds())
		set("ingest.ack_p50_ms", percentile(acks, 0.5))
		set("ingest.ack_p99_ms", percentile(acks, 0.99))
		set("ingest.delete_p50_ms", percentile(latencies(ch.deletes), 0.5))
		set("ingest.job_queue_p50_ms", percentile(sortedDurations(ch.queueLat), 0.5))
		set("ingest.job_run_p50_ms", percentile(sortedDurations(ch.runLat), 0.5))
	}
	set("ingest.queue_depth_max", float64(p.maxQueue))
	set("ingest.rejected", d("ingest_rejected_total"))

	if ops := float64(p.m.ops()); ops > 0 {
		set("go.alloc_bytes_per_op", d("go_memstats_alloc_bytes_total")/ops)
	}
	set("go.gc_cycles", d("go_gc_cycles_total"))
	set("go.gc_pause_ms", d("go_gc_pause_seconds_total")*1e3)

	if p.m.open != nil {
		set("loadgen.sched_late_p99_ms", p.m.open.lateP99())
	}
	if total := p.selfCPU + p.daemonCPU; total > 0 {
		set("loadgen.cpu_share", float64(p.selfCPU)/float64(total))
	}
}

func sortedDurations(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// searchStages maps the daemon's span names on a search request to the
// metric each one's self time is reported under.
var searchStages = map[string]string{
	"admit": "trace.search.admit_us", "auth": "trace.search.auth_us",
	"resolve": "trace.search.resolve_us", "cache.get": "trace.search.cache_get_us",
	"search": "trace.search.search_self_us", "project": "trace.search.project_us",
	"scan": "trace.search.scan_us", "rank": "trace.search.rank_us",
	"filter": "trace.search.filter_us", "cache.put": "trace.search.cache_put_us",
	"request": "trace.search.root_self_us",
}

var jobStages = map[string]string{
	"register": "trace.job.register_us", "encode": "trace.job.encode_us",
	"install": "trace.job.install_us", "wal.park": "trace.job.wal_park_us",
	"wal.fsync.lead": "trace.job.wal_fsync_lead_us",
}

// stageSelfTimes adds, for one trace, the summed self time of every span
// name to byName, and returns the self time summed over the names in stages.
func stageSelfTimes(tr traceView, stages map[string]string, byName map[string][]float64) (named float64) {
	self := selfTimes(tr.Spans)
	sum := map[string]float64{}
	for i, sp := range tr.Spans {
		sum[sp.Name] += float64(self[i])
	}
	for name, v := range sum {
		byName[name] = append(byName[name], v)
		if _, ok := stages[name]; ok {
			named += v
		}
	}
	return named
}

// traceMetrics fills trace.* from the traced pass: per stage, the median
// self time over the requests that ran the stage.
func traceMetrics(out metricSet, traced, untraced *pass) {
	set := func(name string, v float64) { out.set(perLayer, name, v) }
	search, jobs := map[string][]float64{}, map[string][]float64{}
	var sumErr, delTotal, delAppend, fit, swap []float64
	for _, tr := range traced.traces {
		switch {
		case tr.Route == "/v1/search" && tr.Status == 200:
			named := stageSelfTimes(tr, searchStages, search)
			if total := tr.DurationMS * 1e3; total > 0 {
				diff := (named - total) / total * 100
				if diff < 0 {
					diff = -diff
				}
				sumErr = append(sumErr, diff)
			}
		case tr.Route == "job":
			stageSelfTimes(tr, jobStages, jobs)
		case tr.Route == "/v1/videos/{name}" && tr.Method == "DELETE" && tr.Status == 200:
			delTotal = append(delTotal, tr.DurationMS*1e3)
			for _, sp := range tr.Spans {
				if sp.Name == "wal.append" {
					delAppend = append(delAppend, float64(sp.DurUS))
				}
			}
		}
	}
	for _, tr := range traced.rebuilds {
		for _, sp := range tr.Spans {
			switch sp.Name {
			case "fit":
				fit = append(fit, float64(sp.DurUS)/1e3)
			case "swap":
				swap = append(swap, float64(sp.DurUS)/1e3)
			}
		}
	}
	for name, metric := range searchStages {
		set(metric, median(search[name]))
	}
	for name, metric := range jobStages {
		set(metric, median(jobs[name]))
	}
	set("trace.delete.total_us", median(delTotal))
	set("trace.delete.wal_append_us", median(delAppend))
	set("trace.rebuild.fit_ms", median(fit))
	set("trace.rebuild.swap_ms", median(swap))
	set("trace.sum_check_pct", median(sumErr))
	if base := untraced.quietP50(); base > 0 {
		set("trace.overhead_pct", (traced.quietP50()-base)/base*100)
	}
}

// runWorkload executes one workload. With layers unset it is the driver's
// untraced run: set-up repeated cfg.setups times, end-to-end metrics only.
// With layers set it runs twice, untraced (end-to-end and the /metrics
// deltas) then traced at a third of the length (the span budget), and keeps
// the untraced pass's killed data dir for the recovery probes.
func runWorkload(cfg *runConfig, co *corpus, corpusS float64, wl workloadDef, layers bool) (*workloadResult, string, error) {
	dir := filepath.Join(cfg.workDir, wl.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	newSession := func(traced bool) *session {
		return &session{cfg: cfg, co: co, wl: wl, dcfg: daemonConfig{
			bin: cfg.bin, dataDir: filepath.Join(dir, "data"), logPath: filepath.Join(dir, "daemon.stderr"),
			shards: wl.Shards, traced: traced,
		}}
	}
	s := newSession(false)
	cfg.logf("%s: untraced run (%d set-up(s), %.1fs measured)", wl.Name, max(1, cfg.setups), cfg.seconds)
	p, err := s.runPass(layers)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w%s", wl.Name, err, logTail(s.dcfg.logPath))
	}
	res := &workloadResult{
		Why:        wl.Why,
		DaemonArgs: s.dcfg.args("127.0.0.1:<port>"),
		Ops:        p.m.ops() + s.failed,
		Failed:     s.failed,
		Failures:   s.failures,
		Samples:    sampleCounts(p),
		EndToEnd:   endToEndMetrics(p, corpusS),
	}
	if !layers {
		return res, "", nil
	}
	res.PerLayer = metricSet{}
	layerMetrics(res.PerLayer, p, co)

	short := *cfg
	short.seconds, short.setups = cfg.seconds/3, 1
	ts := newSession(true)
	ts.cfg = &short
	cfg.logf("%s: traced run (%.1fs)", wl.Name, short.seconds)
	tp, err := ts.runPass(false)
	if err != nil {
		return nil, "", fmt.Errorf("%s (traced): %w%s", wl.Name, err, logTail(ts.dcfg.logPath))
	}
	traceMetrics(res.PerLayer, tp, p)
	res.Failed += ts.failed
	res.Ops += tp.m.ops() + ts.failed
	res.Failures = append(res.Failures, ts.failures...)
	res.Samples["traced_search_traces"] = countRoute(tp.traces, "/v1/search")
	res.Samples["traced_job_traces"] = countRoute(tp.traces, "job")
	return res, p.rec.killedCopy, nil
}

func countRoute(traces []traceView, route string) int {
	n := 0
	for _, tr := range traces {
		if tr.Route == route {
			n++
		}
	}
	return n
}

func sampleCounts(p *pass) map[string]int {
	out := map[string]int{"searches": len(p.m.searches), "quality_queries": p.q.sampleSize}
	out["windows"] = windowCount(len(p.primary()))
	if ch := p.m.ch; ch != nil {
		out["ingests"], out["deletes"] = len(ch.acks), len(ch.deletes)
	}
	return out
}

// logTail returns the end of a daemon's stderr file, for error messages.
func logTail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil || len(b) == 0 {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return "\n--- daemon stderr (tail) ---\n" + string(b)
}
