package main

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sample is one timed operation: when it completed (offset from the start of
// the measured run) and how long it took.
type sample struct {
	at  time.Duration
	lat time.Duration
}

// percentile returns the q-quantile (0..1) of sorted durations by the
// nearest-rank rule, in milliseconds; 0 when empty.
func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return ms(sorted[rank])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns the samples' latencies, sorted.
func latencies(samples []sample) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, s := range samples {
		out[i] = s.lat
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// window summarises the operations that completed in one slice of a run.
type window struct {
	ops      int
	p50, p99 float64 // ms
}

// windowsOf splits a run into n equal slices of time by completion time.
func windowsOf(samples []sample, run time.Duration, n int) []window {
	if n < 1 || run <= 0 {
		return nil
	}
	lats := make([][]time.Duration, n)
	for _, s := range samples {
		w := int(int64(s.at) * int64(n) / int64(run))
		if w < 0 {
			w = 0
		}
		if w >= n {
			w = n - 1
		}
		lats[w] = append(lats[w], s.lat)
	}
	out := make([]window, n)
	for i, l := range lats {
		sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
		out[i] = window{ops: len(l), p50: percentile(l, 0.5), p99: percentile(l, 0.99)}
	}
	return out
}

// quietQuartile reduces one figure per window to one per run: the quartile
// on the undisturbed side, that is the lower quartile of a cost (a latency, CPU
// per op) and the upper quartile of a rate. Interference from outside the two
// processes (a neighbour on the host, a burst of writeback) only ever slows
// a window down, and on this kind of box it comes in bursts that slow
// everything by up to half for seconds at a time; the quartile reports the run
// as it was while left alone, as long as a quarter of it was. Zeros (windows
// with nothing to report) are left out; the input is sorted in place.
func quietQuartile(perWindow []float64, higherIsBetter bool) float64 {
	v := perWindow[:0]
	for _, x := range perWindow {
		if x > 0 {
			v = append(v, x)
		}
	}
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	rank := int(math.Ceil(0.25*float64(len(v)))) - 1
	if higherIsBetter {
		rank = len(v) - 1 - rank
	}
	return v[rank]
}

// median of values (0 when empty); the input is sorted in place.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if n := len(v); n%2 == 1 {
		return v[n/2]
	} else {
		return (v[n/2-1] + v[n/2]) / 2
	}
}

// openLoop is the due-time schedule of an open-loop client: op i is due at
// start + i/rate whether or not earlier ops have finished, latency is
// counted from the due time, and lateness records how far behind the
// schedule the generator itself sent.
type openLoop struct {
	start    time.Time
	interval time.Duration
	late     []time.Duration
}

func newOpenLoop(start time.Time, perSecond float64) *openLoop {
	return &openLoop{start: start, interval: time.Duration(float64(time.Second) / perSecond)}
}

// due is when op i should be sent.
func (o *openLoop) due(i int) time.Time { return o.start.Add(time.Duration(i) * o.interval) }

// sent notes that op i went out at now and returns its due time, the instant
// its latency is measured from. An early call (the caller slept short) counts
// as on time.
func (o *openLoop) sent(i int, now time.Time) time.Time {
	due := o.due(i)
	late := now.Sub(due)
	if late < 0 {
		late = 0
	}
	o.late = append(o.late, late)
	return due
}

// lateP99 is the generator's own p99 lateness in milliseconds.
func (o *openLoop) lateP99() float64 {
	s := append([]time.Duration(nil), o.late...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return percentile(s, 0.99)
}

// promSnapshot is one scrape of GET /metrics: every sample line keyed by its
// series as written, e.g. `http_requests_total{route="/v1/search",status="2xx"}`.
type promSnapshot map[string]float64

// parseProm reads the Prometheus text exposition.
func parseProm(r io.Reader) (promSnapshot, error) {
	snap := promSnapshot{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space outside the label braces; label
		// values here never contain spaces after the closing brace.
		at := strings.LastIndexByte(line, ' ')
		if at < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[at+1:], 64)
		if err != nil {
			continue
		}
		snap[line[:at]] = v
	}
	return snap, sc.Err()
}

// delta is after − before for one series (a missing series reads 0).
func (after promSnapshot) delta(before promSnapshot, series string) float64 {
	return after[series] - before[series]
}

// histDelta is the change of one histogram between two scrapes.
type histDelta struct {
	bounds []float64 // upper bounds, ascending, +Inf last
	counts []float64 // observations per bucket (not cumulative)
	sum    float64
	count  float64
}

// histogramDelta extracts histogram name (with the given label set, written
// as in the exposition without braces, "" for none) from two scrapes.
func histogramDelta(before, after promSnapshot, name, labels string) histDelta {
	var h histDelta
	prefix := name + "_bucket{"
	if labels != "" {
		prefix += labels + ","
	}
	type bucket struct {
		le  float64
		cum float64
	}
	var bs []bucket
	for series, v := range after {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		rest := series[len(prefix):]
		if !strings.HasPrefix(rest, `le="`) || !strings.HasSuffix(rest, `"}`) {
			continue
		}
		leStr := rest[len(`le="`) : len(rest)-2]
		le := math.Inf(1)
		if leStr != "+Inf" {
			f, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				continue
			}
			le = f
		}
		bs = append(bs, bucket{le, v - before[series]})
	}
	sort.Slice(bs, func(a, b int) bool { return bs[a].le < bs[b].le })
	prev := 0.0
	for _, b := range bs {
		h.bounds = append(h.bounds, b.le)
		h.counts = append(h.counts, b.cum-prev)
		prev = b.cum
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	h.sum = after.delta(before, name+"_sum"+suffix)
	h.count = after.delta(before, name+"_count"+suffix)
	return h
}

// quantile estimates the q-quantile by linear interpolation inside the bucket
// that holds it (the Prometheus histogram_quantile rule). The daemon's
// buckets are coarse, so this is an estimate to set beside the exact mean.
func (h histDelta) quantile(q float64) float64 {
	if h.count <= 0 || len(h.bounds) == 0 {
		return 0
	}
	target := q * h.count
	cum, lower := 0.0, 0.0
	for i, c := range h.counts {
		if cum+c >= target && c > 0 {
			upper := h.bounds[i]
			if math.IsInf(upper, 1) {
				return lower
			}
			return lower + (upper-lower)*(target-cum)/c
		}
		cum += c
		if !math.IsInf(h.bounds[i], 1) {
			lower = h.bounds[i]
		}
	}
	return lower
}

func (h histDelta) mean() float64 {
	if h.count <= 0 {
		return 0
	}
	return h.sum / h.count
}

// spanView mirrors one span of the daemon's /debug/traces rendering.
type spanView struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartUS int64  `json:"startUs"`
	DurUS   int64  `json:"durUs"`
}

// selfTimes returns each span's self time in microseconds: its duration
// minus the part of its own interval that its children cover. Overlapping
// children (parallel shard searches) are merged before subtracting, and a
// child is clipped to its parent, so self time is never negative.
func selfTimes(spans []spanView) []int64 {
	children := make([][]int, len(spans))
	for i, sp := range spans {
		if sp.Parent >= 0 && sp.Parent < len(spans) && sp.Parent != i {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, sp := range spans {
		lo, hi := sp.StartUS, sp.StartUS+sp.DurUS
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := spans[c].StartUS, spans[c].StartUS+spans[c].DurUS
			if a < lo {
				a = lo
			}
			if b > hi {
				b = hi
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, end := int64(0), lo
		for _, v := range ivs {
			if v.a > end {
				end = v.a
			}
			if v.b > end {
				covered += v.b - end
				end = v.b
			}
		}
		self[i] = sp.DurUS - covered
	}
	return self
}
