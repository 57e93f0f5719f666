package classminer_test

// Query-path latency benchmarks for the serving layer, alongside the
// paper-figure benches in bench_test.go. BenchmarkServerSearch measures the
// full uncached HTTP round trip (auth middleware, JSON decode, hierarchical
// index search, policy filter, JSON encode); BenchmarkServerSearchCached
// measures the LRU fast path. Future PRs optimising the query path should
// watch both.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"classminer"
	"classminer/internal/access"
	"classminer/internal/server"
	"classminer/internal/shard"
	"classminer/internal/synth"
)

var (
	srvOnce sync.Once
	srvLib  *shard.Library
	srvErr  error
)

// benchLibrary is the library the daemon builds by default: the shard router
// over one shard.
func benchLibrary(b testing.TB) *shard.Library {
	b.Helper()
	srvOnce.Do(func() {
		a, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
		if err != nil {
			srvErr = err
			return
		}
		if srvLib, err = shard.New(a, 1); err != nil {
			srvErr = err
			return
		}
		script := synth.CorpusScript("laparoscopy", 0.3, 2003)
		v, err := synth.Generate(synth.DefaultConfig(), script, 2003)
		if err != nil {
			srvErr = err
			return
		}
		if _, err := srvLib.AddVideo(v, "medicine"); err != nil {
			srvErr = err
			return
		}
		srvErr = srvLib.BuildIndex()
	})
	if srvErr != nil {
		b.Fatal(srvErr)
	}
	return srvLib
}

func benchServer(b testing.TB, cacheSize int) *server.Server {
	b.Helper()
	anon := access.User{Name: "bench", Clearance: access.Administrator}
	// Admission fully on: concurrency gates and request deadlines at their
	// defaults, rate limiting explicitly enabled (at a rate the benchmark
	// cannot exhaust) so the per-request limiter cost is measured. The
	// 35 allocs/op contracts hold with the whole stack active.
	s := server.New(benchLibrary(b), server.Options{
		Anonymous: &anon,
		CacheSize: cacheSize,
		Rate:      1e9,
	})
	b.Cleanup(s.Close)
	return s
}

func searchOnce(b testing.TB, s *server.Server, body []byte) {
	b.Helper()
	r := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		b.Fatalf("search = %d: %s", w.Code, w.Body.String())
	}
}

// BenchmarkServerSearch is the uncached query path: every iteration asks
// for a different example shot, so the hierarchical index runs each time.
// Its allocation count is a contract, not an observation: 35 allocs/op here
// (TestServerSearchAllocContract) and 35 on BenchmarkServerSearchCached's hit
// path (TestServerCachedSearchAllocContract), neither of which encodes a
// reply through reflection.
func BenchmarkServerSearch(b *testing.B) {
	s := benchServer(b, -1) // cache disabled
	shots := len(benchLibrary(b).Video("laparoscopy").Result.Shots)
	bodies := make([][]byte, shots)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf(`{"video":"laparoscopy","shot":%d,"k":10}`, i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		searchOnce(b, s, bodies[i%len(bodies)])
	}
}

// BenchmarkServerSearchCached repeats one query so every iteration after
// the first is served from the generation-keyed LRU cache.
func BenchmarkServerSearchCached(b *testing.B) {
	s := benchServer(b, 256)
	body := []byte(`{"video":"laparoscopy","shot":0,"k":10}`)
	searchOnce(b, s, body) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		searchOnce(b, s, body)
	}
}

// BenchmarkServerSearchBatch measures the batch endpoint with 16 uncached
// items per request (cache disabled): one HTTP round trip, parallel index
// fan-out underneath.
func BenchmarkServerSearchBatch(b *testing.B) {
	s := benchServer(b, -1)
	shots := len(benchLibrary(b).Video("laparoscopy").Result.Shots)
	const items = 16
	bodies := make([][]byte, shots)
	for start := range bodies {
		var buf bytes.Buffer
		buf.WriteString(`{"k":10,"items":[`)
		for j := 0; j < items; j++ {
			if j > 0 {
				buf.WriteByte(',')
			}
			fmt.Fprintf(&buf, `{"video":"laparoscopy","shot":%d}`, (start+j)%shots)
		}
		buf.WriteString("]}")
		bodies[start] = buf.Bytes()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest(http.MethodPost, "/v1/search/batch", bytes.NewReader(bodies[i%len(bodies)]))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("batch = %d: %s", w.Code, w.Body.String())
		}
	}
}
