package server

import (
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// logSink is an Options.Logf that keeps what it is handed. The request log
// arrives several lines to a call, so lines splits every call.
type logSink struct {
	mu    sync.Mutex
	calls []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls = append(l.calls, fmt.Sprintf(format, args...))
}

func (l *logSink) lines() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, c := range l.calls {
		out = append(out, strings.Split(c, "\n")...)
	}
	return out
}

// requestLine finds the access line of the request with the given id.
func requestLine(lines []string, rid string) string {
	for _, line := range lines {
		if strings.HasSuffix(line, " rid="+rid) {
			return line
		}
	}
	return ""
}

// TestAccessLogUrgentLinesOnDiskBeforeReturn drives the daemon's real sink
// shape — a log.Logger over a file — and reads the file back the moment
// ServeHTTP returns: a 4xx, a 5xx (with its panic line, which never goes
// through the buffer) and a slow request must each already be there, along
// with the 2xx lines that were waiting in the buffer ahead of them, in order.
func TestAccessLogUrgentLinesOnDiskBeforeReturn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "daemon.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := newTestServer(t, Options{
		Logf:      log.New(f, "classminerd: ", log.LstdFlags).Printf,
		TraceSlow: 50 * time.Millisecond,
	})
	onDisk := func() string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	serve := func(h http.Handler, method, target string) (rid string) {
		t.Helper()
		r := httptest.NewRequest(method, target, nil)
		r.Header.Set("X-Api-Token", "admin-tok")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w.Header().Get("X-Request-Id")
	}

	ok := serve(s, http.MethodGet, "/v1/videos")
	missing := serve(s, http.MethodGet, "/v1/videos/no-such-video")
	got := onDisk()
	iOK, iMissing := strings.Index(got, "-> 200 ("), strings.Index(got, "-> 404 (")
	if !strings.Contains(got, "rid="+ok) || !strings.Contains(got, "rid="+missing) || iOK < 0 || iMissing < iOK {
		t.Fatalf("after a 404 returned, the log must hold the buffered 200 line and then the 404 line:\n%s", got)
	}

	boom := s.withTrace(s.withRecovery(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	})))
	panicked := serve(boom, http.MethodGet, "/panic")
	got = onDisk()
	iPanic, i500 := strings.Index(got, "panic serving GET /panic: boom"), strings.Index(got, "-> 500 (")
	if iPanic < 0 || i500 < iPanic || !strings.Contains(got, "rid="+panicked) {
		t.Fatalf("after a panic's 500 returned, the log must hold the panic line and then the 500 line:\n%s", got)
	}

	slow := s.withTrace(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(60 * time.Millisecond) // past TraceSlow: the tail sampler keeps it
		w.WriteHeader(http.StatusOK)
	}))
	slowRid := serve(slow, http.MethodGet, "/slow")
	if got = onDisk(); !strings.Contains(got, "slow request rid="+slowRid) {
		t.Fatalf("after a slow request returned, the log must hold its slow-request line:\n%s", got)
	}
}

// TestAccessLogFlushesOnTickAndShutdown: a 2xx line nobody is waiting on
// still reaches the sink within the flush interval with no further traffic,
// and Close hands over everything buffered — after which a line is not
// buffered at all, so nothing is left to a timer that outlives the server.
func TestAccessLogFlushesOnTickAndShutdown(t *testing.T) {
	var sink logSink
	s := newTestServer(t, Options{Logf: sink.logf})
	get := func() (rid string) {
		t.Helper()
		w := doRaw(t, s, http.MethodGet, "/v1/videos", "admin-tok", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("list = %d", w.Code)
		}
		return w.Header().Get("X-Request-Id")
	}

	first := get()
	deadline := time.Now().Add(5 * time.Second)
	for requestLine(sink.lines(), first) == "" {
		if time.Now().After(deadline) {
			t.Fatalf("a lone 200 line never reached the sink (tick is %v)", accessLogEvery)
		}
		time.Sleep(accessLogEvery / 4)
	}

	var rids []string
	for i := 0; i < 50; i++ {
		rids = append(rids, get())
	}
	s.Close()
	lines := sink.lines()
	for _, rid := range rids {
		if requestLine(lines, rid) == "" {
			t.Fatalf("request %s missing from the log after Close", rid)
		}
	}
	after := get()
	if requestLine(sink.lines(), after) == "" {
		t.Fatal("a request served after Close was buffered instead of logged")
	}
}

// TestAccessLogConcurrentWriters: eight connections' worth of handlers append
// at once — urgent and ordinary lines mixed, so appends race flushes and the
// timer — and every request comes out exactly once, whole. Run under -race.
func TestAccessLogConcurrentWriters(t *testing.T) {
	var sink logSink
	s := newTestServer(t, Options{Logf: sink.logf})
	const writers, each = 8, 150
	rids := make([][]string, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				target := "/v1/videos"
				if i%10 == g {
					target = "/v1/videos/no-such-video" // a 404: flushes
				}
				r := httptest.NewRequest(http.MethodGet, target, nil)
				r.Header.Set("X-Api-Token", "admin-tok")
				w := httptest.NewRecorder()
				s.ServeHTTP(w, r)
				rids[g] = append(rids[g], w.Header().Get("X-Request-Id"))
			}
		}(g)
	}
	wg.Wait()
	s.Close()

	seen := map[string]int{}
	for _, line := range sink.lines() {
		if strings.HasPrefix(line, "access log, ") {
			continue // a batch's header
		}
		i := strings.LastIndex(line, " rid=")
		if i < 0 || !strings.Contains(line, " GET /v1/videos") || !strings.Contains(line, " -> ") {
			t.Fatalf("torn or foreign line in the request log: %q", line)
		}
		seen[line[i+len(" rid="):]]++
	}
	if len(seen) != writers*each {
		t.Fatalf("log holds %d distinct requests, want %d", len(seen), writers*each)
	}
	for g := range rids {
		for _, rid := range rids[g] {
			if seen[rid] != 1 {
				t.Fatalf("request %s logged %d times, want once", rid, seen[rid])
			}
		}
	}
}
