package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func durations(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, v := range ms {
		out[i] = time.Duration(v) * time.Millisecond
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := durations(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.99, 10}, {0.1, 1}, {0, 1}, {1, 10}, {0.91, 10}, {0.9, 9}} {
		if got := percentile(sorted, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestWindowsAndQuietQuartile(t *testing.T) {
	// Ten 1 s windows of 200 samples at 1 ms. Windows 3, 4 and 5 are disturbed:
	// half as many ops, each twice as slow, and a 500 ms stall in the tail.
	var samples []sample
	for w := 0; w < 10; w++ {
		n, lat := 200, time.Millisecond
		if w >= 3 && w <= 5 {
			n, lat = 100, 2*time.Millisecond
		}
		for i := 0; i < n; i++ {
			l := lat
			if w >= 3 && w <= 5 && i >= 96 {
				l = 500 * time.Millisecond
			}
			at := time.Duration(w)*time.Second + time.Duration(i)*time.Second/time.Duration(n)
			samples = append(samples, sample{at: at, lat: l})
		}
	}
	// A sample completing exactly at the end of the run belongs to the last window.
	samples = append(samples, sample{at: 10 * time.Second, lat: time.Millisecond})
	ws := windowsOf(samples, 10*time.Second, 10)
	if len(ws) != 10 || ws[0].ops != 200 || ws[4].ops != 100 || ws[9].ops != 201 {
		t.Fatalf("window op counts wrong: %+v", ws)
	}
	if ws[0].p50 != 1 || ws[0].p99 != 1 || ws[4].p50 != 2 || ws[4].p99 != 500 {
		t.Errorf("window percentiles wrong: quiet %+v, disturbed %+v", ws[0], ws[4])
	}
	var rate, p50, p99 []float64
	for _, w := range ws {
		rate = append(rate, float64(w.ops))
		p50 = append(p50, w.p50)
		p99 = append(p99, w.p99)
	}
	// Three disturbed windows of ten move neither quartile on the quiet side.
	if got := quietQuartile(rate, true); got != 200 {
		t.Errorf("quiet-side rate = %v, want 200", got)
	}
	if got := quietQuartile(p50, false); got != 1 {
		t.Errorf("quiet-side p50 = %v, want 1", got)
	}
	if got := quietQuartile(p99, false); got != 1 {
		t.Errorf("quiet-side p99 = %v, want 1", got)
	}
	// It is a quartile, not the extreme: of 1..8 the lower is 2, the upper 7.
	if lo, hi := quietQuartile([]float64{8, 1, 7, 2, 6, 3, 5, 4}, false), quietQuartile([]float64{8, 1, 7, 2, 6, 3, 5, 4}, true); lo != 2 || hi != 7 {
		t.Errorf("quartiles of 1..8 = %v and %v, want 2 and 7", lo, hi)
	}
	// Empty windows report zeros, and zeros are left out of the quartile.
	sparse := windowsOf(samples[:50], 10*time.Second, 10)
	if sparse[0].ops != 50 || sparse[0].p50 != 1 || sparse[1] != (window{}) {
		t.Errorf("sparse windows = %+v, %+v; want 50 ops at 1 ms, then nothing", sparse[0], sparse[1])
	}
	if got := quietQuartile([]float64{0, 0, 3, 0}, false); got != 3 {
		t.Errorf("quartile over one reporting window = %v, want 3", got)
	}
	if got := quietQuartile(nil, false); got != 0 {
		t.Errorf("quartile of nothing = %v", got)
	}
}

func TestCPUAtInterpolates(t *testing.T) {
	samples := []cpuSample{{0, 100 * time.Millisecond}, {time.Second, 300 * time.Millisecond}, {2 * time.Second, 400 * time.Millisecond}}
	for _, tc := range []struct{ at, want time.Duration }{
		{0, 100 * time.Millisecond}, {500 * time.Millisecond, 200 * time.Millisecond},
		{time.Second, 300 * time.Millisecond}, {1500 * time.Millisecond, 350 * time.Millisecond},
		{3 * time.Second, 400 * time.Millisecond}, {-time.Second, 100 * time.Millisecond},
	} {
		if got := cpuAt(samples, tc.at); got != tc.want {
			t.Errorf("cpu at %v = %v, want %v", tc.at, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func TestOpenLoopDueTimesAndLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	ol := newOpenLoop(start, 20) // one op every 50 ms
	if got := ol.due(3).Sub(start); got != 150*time.Millisecond {
		t.Fatalf("op 3 due at +%v, want +150ms", got)
	}
	// Op 0 goes out on time, op 1 30 ms late (a stall), op 2 early.
	for i, sentAt := range []time.Duration{0, 80 * time.Millisecond, 90 * time.Millisecond} {
		from := ol.sent(i, start.Add(sentAt))
		if want := ol.due(i); !from.Equal(want) {
			t.Errorf("op %d latency counts from %v, want its due time %v", i, from, want)
		}
	}
	want := durations(0, 30, 0)
	for i, got := range ol.late {
		if got != want[i] {
			t.Errorf("op %d lateness = %v, want %v", i, got, want[i])
		}
	}
	if got := ol.lateP99(); got != 30 {
		t.Errorf("late p99 = %v ms, want 30", got)
	}
	// The stalled op's latency includes the wait the stall imposed: finished
	// 10 ms after it was sent, 40 ms after it was due.
	finished := start.Add(90 * time.Millisecond)
	if got := finished.Sub(ol.due(1)); got != 40*time.Millisecond {
		t.Errorf("latency from due time = %v, want 40ms", got)
	}
}

const promBefore = `# HELP http_requests_total HTTP requests by route and status class.
# TYPE http_requests_total counter
http_requests_total{route="/v1/search",status="2xx"} 100
search_cache_hits_total 10
# TYPE wal_fsync_duration_seconds histogram
wal_fsync_duration_seconds_bucket{le="0.001"} 5
wal_fsync_duration_seconds_bucket{le="0.01"} 9
wal_fsync_duration_seconds_bucket{le="+Inf"} 10
wal_fsync_duration_seconds_sum 0.05
wal_fsync_duration_seconds_count 10
http_request_duration_seconds_bucket{route="/v1/search",le="0.001"} 100
http_request_duration_seconds_bucket{route="/v1/search",le="+Inf"} 100
http_request_duration_seconds_sum{route="/v1/search"} 0.05
http_request_duration_seconds_count{route="/v1/search"} 100
`

const promAfter = `http_requests_total{route="/v1/search",status="2xx"} 350
search_cache_hits_total 10
classminer_index_staleness 0.125
wal_fsync_duration_seconds_bucket{le="0.001"} 25
wal_fsync_duration_seconds_bucket{le="0.01"} 109
wal_fsync_duration_seconds_bucket{le="+Inf"} 110
wal_fsync_duration_seconds_sum 0.55
wal_fsync_duration_seconds_count 110
http_request_duration_seconds_bucket{route="/v1/search",le="0.001"} 300
http_request_duration_seconds_bucket{route="/v1/search",le="+Inf"} 350
http_request_duration_seconds_sum{route="/v1/search"} 0.3
http_request_duration_seconds_count{route="/v1/search"} 350
`

func TestPromParseAndDeltas(t *testing.T) {
	before, err := parseProm(strings.NewReader(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	if got := after.delta(before, `http_requests_total{route="/v1/search",status="2xx"}`); got != 250 {
		t.Errorf("labelled counter delta = %v, want 250", got)
	}
	if got := after.delta(before, "search_cache_hits_total"); got != 0 {
		t.Errorf("unchanged counter delta = %v, want 0", got)
	}
	if got := after.delta(before, "classminer_index_staleness"); got != 0.125 {
		t.Errorf("series absent before reads %v, want 0.125", got)
	}

	h := histogramDelta(before, after, "wal_fsync_duration_seconds", "")
	if h.count != 100 || math.Abs(h.sum-0.5) > 1e-12 {
		t.Fatalf("histogram delta count %v sum %v, want 100 and 0.5", h.count, h.sum)
	}
	wantCounts := []float64{20, 80, 0}
	for i, c := range h.counts {
		if c != wantCounts[i] {
			t.Errorf("bucket %d holds %v new observations, want %v", i, c, wantCounts[i])
		}
	}
	if got := h.mean(); math.Abs(got-0.005) > 1e-12 {
		t.Errorf("mean = %v, want 0.005", got)
	}
	// The median is the 50th of 100: 20 lie under 1 ms, so it sits 30/80 of
	// the way through the (1 ms, 10 ms] bucket.
	if got, want := h.quantile(0.5), 0.001+0.009*30/80; math.Abs(got-want) > 1e-12 {
		t.Errorf("p50 = %v, want %v", got, want)
	}

	lab := histogramDelta(before, after, "http_request_duration_seconds", `route="/v1/search"`)
	if lab.count != 250 || len(lab.bounds) != 2 {
		t.Fatalf("labelled histogram: count %v over %d buckets, want 250 over 2", lab.count, len(lab.bounds))
	}
	// 200 of the 250 fall in the first bucket; the p99 lies in +Inf, which
	// has no upper bound to interpolate to, so the last finite bound stands.
	if got := lab.quantile(0.99); got != 0.001 {
		t.Errorf("p99 in the +Inf bucket = %v, want the last finite bound 0.001", got)
	}
	if got := (histDelta{}).quantile(0.5); got != 0 {
		t.Errorf("empty histogram p50 = %v", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	// root [0,100): children a [10,40), b [30,60) overlapping a, c [70,120)
	// running past the root's end, and a grandchild under a.
	spans := []spanView{
		{Name: "request", Parent: -1, StartUS: 0, DurUS: 100},
		{Name: "a", Parent: 0, StartUS: 10, DurUS: 30},
		{Name: "b", Parent: 0, StartUS: 30, DurUS: 30},
		{Name: "c", Parent: 0, StartUS: 70, DurUS: 50},
		{Name: "a1", Parent: 1, StartUS: 15, DurUS: 10},
	}
	got := selfTimes(spans)
	// The root's children cover [10,60) and [70,100): 80 of its 100.
	want := []int64{20, 20, 30, 50, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimesSumToRootWithoutOverlap(t *testing.T) {
	spans := []spanView{
		{Name: "request", Parent: -1, StartUS: 0, DurUS: 900},
		{Name: "auth", Parent: 0, StartUS: 5, DurUS: 3},
		{Name: "search", Parent: 0, StartUS: 20, DurUS: 800},
		{Name: "project", Parent: 2, StartUS: 21, DurUS: 9},
		{Name: "scan", Parent: 2, StartUS: 30, DurUS: 90},
		{Name: "rank", Parent: 2, StartUS: 120, DurUS: 690},
	}
	var sum int64
	for _, s := range selfTimes(spans) {
		sum += s
	}
	if sum != 900 {
		t.Errorf("self times sum to %d, want the root's 900", sum)
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name may hold spaces and parentheses.
	line := "4242 (class miner) d) S 1 4242 4242 0 -1 4194560 1000 0 0 0 150 50 0 0 20 0 9 0 100 1000000 500 18446744073709551615"
	got, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * time.Second; got != want {
		t.Errorf("utime+stime = %v, want %v (150+50 ticks at 100 Hz)", got, want)
	}
	if _, err := parseProcStat("garbage"); err == nil {
		t.Error("malformed stat line accepted")
	}
}
