package classminer_test

// The serving hot path carries an exact allocation budget, pinned here as
// tests (not just benchmarks someone has to remember to run). The contract:
// with the full default stack active — auth, admission, metrics, AND request
// tracing — a search that the tracer records but does not keep (unsampled,
// fast, 2xx) costs exactly 32 heap allocations per request whether the index
// answers it or the cache does, including the httptest request/recorder
// scaffolding the companion benchmarks also count. Tracing rides the budget
// by pooling its per-request state and deferring every rendering cost to
// kept traces; the reply rides it by being appended into a pooled buffer
// (uncached) or written straight from the cache's bytes (cached), so what is
// left is request decoding, the context chain and the response headers.

import (
	"testing"

	"classminer/internal/server"
)

func TestServerSearchAllocContract(t *testing.T) {
	s := benchServer(t, -1) // cache disabled: every request runs the index
	assertSearchAllocs(t, s, "uncached", 32)
}

func TestServerCachedSearchAllocContract(t *testing.T) {
	s := benchServer(t, 256) // one query, repeated: every request after the first hits
	assertSearchAllocs(t, s, "cached", 32)
}

func assertSearchAllocs(t *testing.T, s *server.Server, path string, want float64) {
	t.Helper()
	if raceDetectorOn {
		t.Skip("alloc counts differ under the race detector")
	}
	body := []byte(`{"video":"laparoscopy","shot":0,"k":10}`)
	for i := 0; i < 16; i++ {
		searchOnce(t, s, body) // warm every pool on the path (and the cache)
	}
	got := testing.AllocsPerRun(200, func() { searchOnce(t, s, body) })
	// A stray GC emptying a sync.Pool mid-run can add a fractional alloc;
	// anything reaching the next whole allocation is a real regression.
	if got < want || got >= want+1 {
		t.Fatalf("%s search = %.2f allocs/op, want %v\n"+
			"(if a change legitimately shifted the budget, update this contract "+
			"and BenchmarkServerSearch's docs together)", path, got, want)
	}
}
