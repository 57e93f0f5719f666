package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExpositionGolden pins the exact text exposition: families in
// registration order, series sorted by label set, cumulative histogram
// buckets with +Inf, _sum and _count. Scrapers parse this byte format;
// changes here are protocol changes.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Total requests.")
	c.Add(41)
	c.Inc()
	r.Counter("http_requests_total", "Per-route requests.", "route", "/v1/search", "status", "2xx").Add(7)
	r.Counter("http_requests_total", "Per-route requests.", "route", "/healthz", "status", "2xx").Add(2)
	r.GaugeFunc("queue_depth", "Jobs waiting.", func() float64 { return 3 })
	r.GaugeFunc("index_staleness", "Overlay fraction.", func() float64 { return 0.25 })
	h := r.Histogram("latency_seconds", "Request latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP requests_total Total requests.
# TYPE requests_total counter
requests_total 42
# HELP http_requests_total Per-route requests.
# TYPE http_requests_total counter
http_requests_total{route="/healthz",status="2xx"} 2
http_requests_total{route="/v1/search",status="2xx"} 7
# HELP queue_depth Jobs waiting.
# TYPE queue_depth gauge
queue_depth 3
# HELP index_staleness Overlay fraction.
# TYPE index_staleness gauge
index_staleness 0.25
# HELP latency_seconds Request latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.01"} 2
latency_seconds_bucket{le="0.1"} 3
latency_seconds_bucket{le="1"} 3
latency_seconds_bucket{le="+Inf"} 4
latency_seconds_sum 2.06
latency_seconds_count 4
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if err := ValidateExposition(b.String()); err != nil {
		t.Errorf("golden exposition fails validation: %v", err)
	}
}

// TestHistogramLabeled checks the le label composes with series labels.
func TestHistogramLabeled(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d_seconds", "", []float64{1}, "route", "/x")
	h.Observe(0.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`d_seconds_bucket{route="/x",le="1"} 1`,
		`d_seconds_bucket{route="/x",le="+Inf"} 1`,
		`d_seconds_sum{route="/x"} 0.5`,
		`d_seconds_count{route="/x"} 1`,
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("missing line %q in:\n%s", want, b.String())
		}
	}
}

// TestDedupe pins the shared-instrument contract: re-registering the same
// (name, labels) returns the same instrument, never a second series.
func TestDedupe(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "help")
	b := r.Counter("c_total", "ignored on re-register")
	if a != b {
		t.Fatal("duplicate registration returned a distinct counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("re-registered counter does not share state")
	}
	// Func re-registration replaces the callback (reopened-engine idiom).
	v := 1.0
	r.GaugeFunc("f", "", func() float64 { return v })
	r.GaugeFunc("f", "", func() float64 { return v * 10 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "f 10\n") {
		t.Errorf("GaugeFunc re-registration did not replace callback:\n%s", sb.String())
	}
}

func TestTypeClashPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("counter-then-gauge on one name did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x_total", "")
	r.GaugeFunc("x_total", "", func() float64 { return 0 })
}

func TestInvalidNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	NewRegistry().Counter("bad-name", "")
}

// TestLabelEscaping: values with quotes, backslashes and newlines must not
// corrupt the exposition.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "", "path", "a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `c_total{path="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want+"\n") {
		t.Errorf("got %q, want it to contain %q", b.String(), want)
	}
	if err := ValidateExposition(b.String()); err != nil {
		t.Errorf("escaped exposition fails validation: %v", err)
	}
}

// TestNilInstrumentsAreNoOps: disabled-metrics code paths call methods on
// nil instruments; none may panic.
func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var h *Histogram
	c.Inc()
	c.Add(5)
	h.Observe(1)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments reported nonzero state")
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines; run
// under -race it proves the hot path is data-race-free, and the final
// count/sum/bucket totals prove no sample was lost to the CAS loop.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hammer_seconds", "", []float64{0.25, 0.5, 0.75})
	c := r.Counter("hammer_total", "")
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(i%100) / 100)
				c.Inc()
			}
		}(g)
	}
	wg.Wait()
	const total = goroutines * perG
	if n := h.count.Load(); n != total {
		t.Fatalf("histogram count = %d, want %d", n, total)
	}
	if c.Value() != total {
		t.Fatalf("counter = %d, want %d", c.Value(), total)
	}
	var bucketSum uint64
	for i := range h.counts {
		bucketSum += h.counts[i].Load()
	}
	if bucketSum != total {
		t.Fatalf("bucket totals = %d, want %d (every observe lands in exactly one bucket)", bucketSum, total)
	}
	// Each goroutine contributes sum 0..99 (/100) × perG/100 rounds.
	wantSum := float64(goroutines) * float64(perG/100) * (99 * 100 / 2) / 100
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v", h.Sum(), wantSum)
	}
}

// TestHotPathZeroAlloc is the instrumentation contract: recording a sample
// allocates nothing.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h_seconds", "", LatencyBuckets)
	if avg := testing.AllocsPerRun(500, func() {
		c.Inc()
		c.Add(3)
		h.Observe(0.0001)
	}); avg != 0 {
		t.Fatalf("hot-path instrumentation allocates %.1f per run, want 0", avg)
	}
}

// TestGoMetrics smoke-tests the runtime collector end to end.
func TestGoMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterGoMetrics(r)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"go_goroutines", "go_memstats_heap_alloc_bytes", "go_gc_cycles_total"} {
		if !strings.Contains(b.String(), want+" ") {
			t.Errorf("runtime metrics missing %s:\n%s", want, b.String())
		}
	}
	if err := ValidateExposition(b.String()); err != nil {
		t.Errorf("runtime metrics exposition invalid: %v", err)
	}
}

// TestValidateExposition rejects the malformed lines the CI scrape step
// exists to catch.
func TestValidateExposition(t *testing.T) {
	good := "# HELP a_total h\n# TYPE a_total counter\na_total 1\na_total{x=\"y\"} 2\n" +
		// Braces and escaped quotes inside label values must not end the
		// label set early (the server's route templates contain both).
		"a_total{route=\"/v1/jobs/{id}\"} 3\na_total{x=\"q\\\"}\\\"\"} 4\n"
	if err := ValidateExposition(good); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
	for _, bad := range []string{
		"a_total\n",                     // no value
		"1bad_name 3\n",                 // invalid name
		"a_total{x=\"y\" 3\n",           // unterminated labels
		"a_total notanumber\n",          // bad value
		"# NOPE a_total counter\n",      // bad comment keyword
		"# TYPE a c\n# TYPE a c\nb 1\n", // duplicate TYPE
	} {
		if err := ValidateExposition(bad); err == nil {
			t.Errorf("malformed exposition accepted: %q", bad)
		}
	}
}
