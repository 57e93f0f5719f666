package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"classminer"
	"classminer/internal/access"
	"classminer/internal/admit"
	"classminer/internal/concept"
	"classminer/internal/metrics"
	"classminer/internal/store"
	"classminer/internal/trace"
	"classminer/internal/vidmodel"
)

// maxBodyBytes bounds request bodies (a SavedResult for a full-scale video
// is well under this). A body whose first JSON value does not end within it
// is answered 413; bytes past a value that does are ignored, as they are
// after any value.
const maxBodyBytes = 32 << 20

var bodyTooLargeMsg = fmt.Sprintf("request body exceeds %d MiB", maxBodyBytes>>20)

// lrPool recycles the body-limiting wrapper: the reader referencing it is
// dead by the time readBody returns, so the wrapper can be reused without
// aliasing a live reader.
var lrPool = sync.Pool{New: func() any { return new(io.LimitedReader) }}

// endedEarly reports a decode error that is the input running out: before
// the value began, or inside it.
func endedEarly(err error) bool {
	return err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF)
}

// writeBodyError answers a request whose body did not decode: 413 when the
// body was cut at maxBodyBytes before its value ended, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error, tooLarge bool) {
	if tooLarge {
		writeError(w, http.StatusRequestEntityTooLarge, bodyTooLargeMsg)
		return
	}
	writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
}

// bodyPool recycles the buffers request bodies are read into: the decoders
// copy out everything they keep, so a buffer is free once they return.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody caps the buffer a pooled body keeps.
const maxPooledBody = 4 << 20

// readBody reads a request body, up to maxBodyBytes, and decodes it into v
// with decode (decodeIngest, decodeSearch or decodeBatch). On failure it
// writes the 400 or 413 and returns false.
func readBody[T any](w http.ResponseWriter, r *http.Request, v *T, decode func([]byte, *T) error) bool {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	lr := lrPool.Get().(*io.LimitedReader)
	lr.R, lr.N = r.Body, maxBodyBytes+1
	_, readErr := buf.ReadFrom(lr)
	lr.R = nil
	lrPool.Put(lr)
	body := buf.Bytes()
	tooLarge := len(body) > maxBodyBytes
	if tooLarge {
		body = body[:maxBodyBytes]
	}
	err := decode(body, v)
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
	if err != nil {
		// Like a json.Decoder, fail on a broken body only when the value
		// needed the bytes that did not come.
		if readErr != nil && endedEarly(err) {
			err = readErr
		}
		writeBodyError(w, err, tooLarge && endedEarly(err))
		return false
	}
	return true
}

// decodeIngestBody is readBody for a POST /v1/videos body, decoded under a
// "decode" span.
func decodeIngestBody(w http.ResponseWriter, r *http.Request, req *ingestRequest) bool {
	return readBody(w, r, req, func(body []byte, req *ingestRequest) error {
		sp := trace.SpanFrom(r.Context()).Start("decode")
		defer sp.End()
		sp.SetInt("bytes", int64(len(body)))
		return decodeIngest(body, req)
	})
}

// --- GET /healthz ----------------------------------------------------------

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// --- GET /readyz -------------------------------------------------------------

// handleReady is the readiness probe, distinct from /healthz liveness:
// /healthz answers "the process is up" and must never fail while the server
// can respond at all, while /readyz answers "route traffic here". A leader
// is ready as soon as it serves (recovery completes before the listener
// opens); a follower is ready only once it is seeded and was caught up with
// the leader at its last pull. Load balancers and the failover
// runbook key off this endpoint.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	resp := map[string]any{
		"role":    s.role(),
		"durable": s.lib.Durable(),
	}
	ready, reason := true, ""
	if f := s.opts.Follower; f != nil && s.isFollower() {
		ready, reason = f.Ready()
		resp["repl"] = f.Stats()
	}
	resp["ready"] = ready
	if reason != "" {
		resp["reason"] = reason
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// --- GET /v1/stats ---------------------------------------------------------

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	lib := s.lib.Stats()
	stats := map[string]any{
		"library":   lib,
		"memory":    readMemoryStats(lib.FeatureRowBytes),
		"cache":     s.cache.Stats(),
		"index":     s.rebuilder.Stats(),
		"admission": s.admit.Stats(),
		"process":   processInfo(),
		"uptimeSec": time.Since(s.started).Seconds(),
		"requests":  s.requests.Load(),
	}
	if s.tracer != nil {
		// Exemplars point from the aggregate stats back into the trace ring:
		// the last kept trace per route, by id.
		stats["traces"] = map[string]any{
			"stats":     s.tracer.Stats(),
			"exemplars": s.tracer.Exemplars(),
		}
	}
	if s.opts.ReplHub != nil || s.opts.Follower != nil {
		rs := map[string]any{"role": s.role()}
		if h := s.opts.ReplHub; h != nil {
			recs, bts := h.MaxLag()
			rs["followers"] = h.Stats()
			rs["maxLagRecords"] = recs
			rs["maxLagBytes"] = bts
		}
		if f := s.opts.Follower; f != nil && s.isFollower() {
			rs["stream"] = f.Stats()
		}
		stats["repl"] = rs
	}
	writeJSON(w, http.StatusOK, stats)
}

// memoryStats is the memory block of /v1/stats: the Go runtime's view of the
// heap, and the library's own count of the feature rows it holds, so what
// the rows cost can be told apart from everything else from outside.
type memoryStats struct {
	HeapLiveBytes   uint64 `json:"heapLiveBytes"`   // heap reachable at the last GC
	HeapGoalBytes   uint64 `json:"heapGoalBytes"`   // heap size the next GC starts at
	GCCycles        uint64 `json:"gcCycles"`        // GC cycles completed since start
	FeatureRowBytes int64  `json:"featureRowBytes"` // LibraryStats.FeatureRowBytes
}

func readMemoryStats(featureRowBytes int64) memoryStats {
	samples := []rtmetrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/goal:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(samples)
	v := func(i int) uint64 {
		if samples[i].Value.Kind() != rtmetrics.KindUint64 {
			return 0
		}
		return samples[i].Value.Uint64()
	}
	return memoryStats{HeapLiveBytes: v(0), HeapGoalBytes: v(1), GCCycles: v(2), FeatureRowBytes: featureRowBytes}
}

// buildIdentity extracts the VCS stamp once: debug.ReadBuildInfo walks the
// module graph, far too heavy to repeat per stats request.
var buildIdentity = sync.OnceValue(func() map[string]string {
	id := map[string]string{}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return id
	}
	if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		id["version"] = bi.Main.Version
	}
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			id["revision"] = kv.Value
		case "vcs.time":
			id["buildTime"] = kv.Value
		case "vcs.modified":
			id["dirty"] = kv.Value
		}
	}
	return id
})

// processInfo is the process-identity slice of /v1/stats, so the JSON view
// and /metrics agree on what is being observed.
func processInfo() map[string]any {
	return map[string]any{
		"pid":        os.Getpid(),
		"goVersion":  runtime.Version(),
		"goroutines": runtime.NumGoroutine(),
		"build":      buildIdentity(),
	}
}

// --- GET /metrics ------------------------------------------------------------

// handleMetrics serves the Prometheus text exposition. It sits behind
// withAuth like every other endpoint (operational counters reveal workload
// shape), but needs no clearance beyond authentication.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	if err := s.opts.Metrics.WritePrometheus(w); err != nil {
		s.opts.Logf("writing /metrics: %v", err)
	}
}

// --- /debug/pprof/* ----------------------------------------------------------

// handlePprof serves net/http/pprof behind two gates: the -pprof flag
// (disabled deployments 404, indistinguishable from no route) and
// Administrator clearance (profiles expose goroutine stacks and heap
// contents that the API's policy filtering would never release). Dispatch
// uses the raw URL path because pprof.Index parses the profile name from
// everything after "/debug/pprof/" — the router's trailing-slash
// normalisation must not leak into it.
func (s *Server) handlePprof(w http.ResponseWriter, r *http.Request) {
	if !s.opts.EnablePprof {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no route %s", r.URL.Path))
		return
	}
	if !s.requireClearance(w, r, classminer.Administrator) {
		return
	}
	switch strings.TrimSuffix(r.URL.Path, "/") {
	case "/debug/pprof/cmdline":
		pprof.Cmdline(w, r)
	case "/debug/pprof/profile":
		pprof.Profile(w, r)
	case "/debug/pprof/symbol":
		pprof.Symbol(w, r)
	case "/debug/pprof/trace":
		pprof.Trace(w, r)
	default:
		pprof.Index(w, r)
	}
}

// --- GET /v1/videos --------------------------------------------------------

type videoSummary struct {
	Name        string  `json:"name"`
	Subcluster  string  `json:"subcluster"`
	Shots       int     `json:"shots"`
	Scenes      int     `json:"scenes"`
	DurationSec float64 `json:"durationSec"`
}

func (s *Server) handleListVideos(w http.ResponseWriter, r *http.Request) {
	u := userOf(r)
	videos := []videoSummary{}
	hidden := 0
	for _, name := range s.lib.VideoNames() {
		ve := s.lib.Video(name)
		if ve == nil {
			continue // racing a concurrent removal; skip
		}
		if !s.lib.Allowed(u, ve.Path) {
			hidden++
			continue
		}
		videos = append(videos, videoSummary{
			Name:        name,
			Subcluster:  ve.Subcluster,
			Shots:       len(ve.Result.Shots),
			Scenes:      len(ve.Result.Scenes),
			DurationSec: durationSec(ve),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"videos": videos, "hidden": hidden})
}

// durationSec derives playback length from the skim's frame count (raw
// frames are not retained for loaded videos).
func durationSec(ve *classminer.VideoEntry) float64 {
	if ve.Result.Skim == nil || ve.Result.Video.FPS <= 0 {
		return 0
	}
	return float64(ve.Result.Skim.TotalFrames) / ve.Result.Video.FPS
}

// --- GET /v1/videos/{name} -------------------------------------------------

type sceneJSON struct {
	Index      int     `json:"index"`
	StartFrame int     `json:"startFrame"`
	EndFrame   int     `json:"endFrame"`
	StartSec   float64 `json:"startSec"`
	EndSec     float64 `json:"endSec"`
	Shots      int     `json:"shots"`
	Groups     int     `json:"groups"`
	Event      string  `json:"event"`
}

type skimLevelJSON struct {
	Level int     `json:"level"`
	Shots int     `json:"shots"`
	FCR   float64 `json:"fcr"`
}

func (s *Server) handleVideoDetail(w http.ResponseWriter, r *http.Request, name string) {
	ve := s.lib.Video(name)
	if ve == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no video %q", name))
		return
	}
	u := userOf(r)
	if !s.lib.Allowed(u, ve.Path) {
		writeError(w, http.StatusForbidden, fmt.Sprintf("subcluster %q not accessible", ve.Subcluster))
		return
	}
	res := ve.Result
	fps := res.Video.FPS
	scenes := []sceneJSON{}
	hidden := 0
	for _, sc := range res.Scenes {
		leaf := concept.SceneConcept(ve.Subcluster, sc.Event)
		if !s.lib.Allowed(u, append(ve.Path, leaf)) {
			hidden++
			continue
		}
		first, last := sc.FrameSpan()
		scenes = append(scenes, sceneJSON{
			Index: sc.Index, StartFrame: first, EndFrame: last,
			StartSec: frameSec(first, fps), EndSec: frameSec(last, fps),
			Shots: sc.ShotCount(), Groups: len(sc.Groups), Event: sc.Event.String(),
		})
	}
	var skims []skimLevelJSON
	if res.Skim != nil {
		for l := classminer.SkimLevel1; l <= classminer.SkimLevel4; l++ {
			skims = append(skims, skimLevelJSON{
				Level: int(l), Shots: len(res.Skim.Shots(l)), FCR: res.Skim.FCR(l),
			})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":         name,
		"subcluster":   ve.Subcluster,
		"fps":          fps,
		"durationSec":  durationSec(ve),
		"summary":      res.Summary(),
		"shots":        len(res.Shots),
		"groups":       len(res.Groups),
		"clusters":     len(res.Clusters),
		"scenes":       scenes,
		"scenesHidden": hidden,
		"skim":         skims,
	})
}

func frameSec(frame int, fps float64) float64 {
	if fps <= 0 {
		return 0
	}
	return float64(frame) / fps
}

// --- DELETE /v1/videos/{name} ----------------------------------------------

// handleDeleteVideo retires a video from the library: its entries are
// removed, the generation advances (cached answers die with it), and on a
// durable library a WAL tombstone makes the delete crash-safe before
// anything changes. Deletion is gated like ingestion (Clinician clearance) and
// additionally requires the caller to be allowed to see the video's
// subcluster — you cannot delete what policy hides from you
// (DeleteVideoAsCtx runs that check atomically with the removal, so a
// concurrent replacement cannot slip the video behind a policy wall
// between check and delete). The library masks the deleted shots out of the
// serving index as part of the delete — whether or not that index was
// current — so searches stop ranking them before this responds, at a cost
// proportional to the video; the handler only nudges the coalesced
// background rebuilder. indexLive reports whether the serving index
// reflects every registration (a stale one still never ranks a deleted
// video).
func (s *Server) handleDeleteVideo(w http.ResponseWriter, r *http.Request, name string) {
	if !s.requireClearance(w, r, classminer.Clinician) {
		return
	}
	if s.rejectFollowerWrite(w) {
		return
	}
	if err := s.lib.DeleteVideoAsCtx(r.Context(), userOf(r), name); err != nil {
		switch {
		case errors.Is(err, classminer.ErrUnknownVideo):
			writeError(w, http.StatusNotFound, fmt.Sprintf("no video %q", name))
		case errors.Is(err, classminer.ErrForbidden):
			writeError(w, http.StatusForbidden, err.Error())
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	s.rebuilder.Kick()
	s.opts.Logf("deleted video %q", name)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name, "indexLive": !s.lib.IndexStale()})
}

// --- POST /v1/search -------------------------------------------------------

type searchRequest struct {
	// Query is a raw shot feature vector (query by example).
	Query []float64 `json:"query,omitempty"`
	// Video/Shot instead name an indexed shot to use as the example.
	Video string `json:"video,omitempty"`
	Shot  int    `json:"shot,omitempty"`
	K     int    `json:"k,omitempty"`
}

type searchHit struct {
	Video   string   `json:"video"`
	Shot    int      `json:"shot"`
	Start   int      `json:"start"`
	End     int      `json:"end"`
	Concept string   `json:"concept"`
	Path    []string `json:"path"`
	Dist    float64  `json:"dist"`
}

// searchResponse is a /v1/search reply. The server only ever encodes it with
// Cached false — the reply to a miss; asCacheHit turns those bytes into the
// reply a hit sends — so Cached is set only where a client decodes one.
type searchResponse struct {
	Hits   []searchHit            `json:"hits"`
	Stats  classminer.SearchStats `json:"stats"`
	K      int                    `json:"k"`
	Cached bool                   `json:"cached"`
}

// Search replies are encoded by hand, once per distinct answer: the append
// functions below are searchResponse's only encoder on the serving path, and
// the bytes they produce are what the cache stores and what a hit writes. They
// emit exactly what json.Encoder with SetIndent("", "  ") emits for the same
// value — key order, indentation, null for a nil slice, float formatting,
// string and HTML escaping, the trailing newline — so replies did not change
// when reflection left the path; TestSearchEncoderMatchesEncodingJSON holds
// the two together byte for byte.

// freshTail and hitTail end a reply; they are the only bytes in which the
// reply to a miss and the reply to a later hit on the same answer differ.
const (
	freshTail = "false\n}\n"
	hitTail   = "true\n}\n"
)

// asCacheHit copies a reply encoded for a miss into the one a hit sends.
func asCacheHit(fresh []byte) []byte {
	n := len(fresh) - len(freshTail)
	return append(append(make([]byte, 0, n+len(hitTail)), fresh[:n]...), hitTail...)
}

// appendSearchResponse appends resp as the complete /v1/search reply body of a
// miss (resp.Cached is not read: see asCacheHit). Like encoding/json it refuses
// a NaN or infinite distance.
func appendSearchResponse(dst []byte, resp *searchResponse) ([]byte, error) {
	dst = append(dst, "{\n  \"hits\": "...)
	switch {
	case resp.Hits == nil:
		dst = append(dst, "null"...)
	case len(resp.Hits) == 0:
		dst = append(dst, "[]"...)
	default:
		for i := range resp.Hits {
			h := &resp.Hits[i]
			if i == 0 {
				dst = append(dst, "[\n    {\n      \"video\": "...)
			} else {
				dst = append(dst, ",\n    {\n      \"video\": "...)
			}
			dst = appendJSONString(dst, h.Video)
			dst = append(dst, ",\n      \"shot\": "...)
			dst = strconv.AppendInt(dst, int64(h.Shot), 10)
			dst = append(dst, ",\n      \"start\": "...)
			dst = strconv.AppendInt(dst, int64(h.Start), 10)
			dst = append(dst, ",\n      \"end\": "...)
			dst = strconv.AppendInt(dst, int64(h.End), 10)
			dst = append(dst, ",\n      \"concept\": "...)
			dst = appendJSONString(dst, h.Concept)
			dst = append(dst, ",\n      \"path\": "...)
			switch {
			case h.Path == nil:
				dst = append(dst, "null"...)
			case len(h.Path) == 0:
				dst = append(dst, "[]"...)
			default:
				for j, p := range h.Path {
					if j == 0 {
						dst = append(dst, "[\n        "...)
					} else {
						dst = append(dst, ",\n        "...)
					}
					dst = appendJSONString(dst, p)
				}
				dst = append(dst, "\n      ]"...)
			}
			dst = append(dst, ",\n      \"dist\": "...)
			var err error
			if dst, err = appendJSONFloat(dst, h.Dist); err != nil {
				return dst, err
			}
			dst = append(dst, "\n    }"...)
		}
		dst = append(dst, "\n  ]"...)
	}
	dst = append(dst, ",\n  \"stats\": {\n    \"DistanceOps\": "...)
	dst = strconv.AppendInt(dst, int64(resp.Stats.DistanceOps), 10)
	dst = append(dst, ",\n    \"FloatOps\": "...)
	dst = strconv.AppendInt(dst, int64(resp.Stats.FloatOps), 10)
	dst = append(dst, ",\n    \"Candidates\": "...)
	dst = strconv.AppendInt(dst, int64(resp.Stats.Candidates), 10)
	dst = append(dst, ",\n    \"Exact\": "...)
	dst = strconv.AppendInt(dst, int64(resp.Stats.Exact), 10)
	dst = append(dst, "\n  },\n  \"k\": "...)
	dst = strconv.AppendInt(dst, int64(resp.K), 10)
	dst = append(dst, ",\n  \"cached\": "...)
	return append(dst, freshTail...), nil
}

// appendBatchReply appends the /v1/search/batch reply whose results are the
// given single-search reply bodies (at least one): each is nested two levels
// down, which in indented JSON is the same bytes with every line indented
// four more spaces. No string in a body holds a raw newline (the encoder
// escapes them), so every newline byte is a line break.
func appendBatchReply(dst []byte, items [][]byte) []byte {
	dst = append(dst, "{\n  \"results\": ["...)
	for i, item := range items {
		if i > 0 {
			dst = append(dst, ',')
		}
		item = item[:len(item)-1] // the reply's trailing newline
		for {
			dst = append(dst, "\n    "...)
			nl := bytes.IndexByte(item, '\n')
			if nl < 0 {
				dst = append(dst, item...)
				break
			}
			dst = append(dst, item[:nl]...)
			item = item[nl+1:]
		}
	}
	return append(dst, "\n  ]\n}\n"...)
}

// appendJSONString appends s as encoding/json quotes a string with HTML
// escaping on (the Encoder default).
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default: // other control bytes, and <, > and &
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1: // invalid UTF-8
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029': // valid JSON, but not valid JavaScript
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends f as encoding/json renders a float64: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21 with a two-digit
// exponent's leading zero dropped, and an error for NaN and infinities.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 → e-9
		dst = dst[:n-1]
	}
	return dst, nil
}

// resolveQuery turns a search request's query spec into a feature vector:
// the request's raw vector, or a video+shot example's features appended to
// dst. On failure it writes the HTTP error and returns false. Whether the
// vector has the library's dimensionality is the library's to say, at
// search time (writeSearchError).
func (s *Server) resolveQuery(w http.ResponseWriter, u access.User, req *searchRequest, dst []float64) ([]float64, bool) {
	query := req.Query
	if req.Video != "" {
		ve := s.lib.Video(req.Video)
		if ve == nil {
			writeError(w, http.StatusNotFound, fmt.Sprintf("no video %q", req.Video))
			return nil, false
		}
		if !s.lib.Allowed(u, ve.Path) {
			writeError(w, http.StatusForbidden, fmt.Sprintf("subcluster %q not accessible", ve.Subcluster))
			return nil, false
		}
		if req.Shot < 0 || req.Shot >= len(ve.Result.Shots) {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("video %q has %d shots", req.Video, len(ve.Result.Shots)))
			return nil, false
		}
		query = ve.Result.Shots[req.Shot].AppendFeature(dst)
	}
	if len(query) == 0 {
		writeError(w, http.StatusBadRequest, "provide either query (feature vector) or video+shot")
		return nil, false
	}
	return query, true
}

// queryDimError returns the error a search failed with when the query's
// length was not the library's dimensionality, or nil.
func queryDimError(err error) *classminer.QueryDimError {
	var de *classminer.QueryDimError
	if errors.As(err, &de) {
		return de
	}
	return nil
}

// writeSearchError answers a failed search: 400 for a query of the wrong
// dimensionality, 503 for an index that cannot serve.
func writeSearchError(w http.ResponseWriter, err error) {
	if de := queryDimError(err); de != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("query has %d dims, want %d", de.Got, de.Want))
		return
	}
	writeError(w, http.StatusServiceUnavailable, err.Error())
}

// clampK applies the search-k defaults and bounds.
func clampK(k int) int {
	if k <= 0 {
		return 10
	}
	if k > 100 {
		return 100
	}
	return k
}

// buildSearchResponse renders ranked hits into the reply's shape, reusing
// wire's backing array for the hit list. Hits is never nil: an answer with no
// hits (everything near the query is filtered by policy) is `[]`, not `null`.
func buildSearchResponse(wire []searchHit, hits []classminer.SearchHit, stats classminer.SearchStats, k int) searchResponse {
	if wire == nil {
		wire = make([]searchHit, 0, len(hits))
	}
	wire = wire[:0]
	for _, h := range hits {
		concept := ""
		if n := len(h.Entry.Path); n > 0 {
			concept = h.Entry.Path[n-1]
		}
		wire = append(wire, searchHit{
			Video: h.Entry.VideoName, Shot: h.Entry.Shot.Index,
			Start: h.Entry.Shot.Start, End: h.Entry.Shot.End,
			Concept: concept, Path: h.Entry.Path, Dist: h.Dist,
		})
	}
	return searchResponse{Hits: wire, Stats: stats, K: k}
}

// searchScratch is what a search borrows: the video+shot example's features,
// the ranked-hit slice the library's SearchIntoCtx fills and the reply-shaped
// copy the encoder reads. None escapes — the cache copies the query it
// keeps, the reply leaves as bytes, and bytes are what the cache keeps — so
// all are recycled. Capacity covers the clamped k, so steady state never
// regrows them.
type searchScratch struct {
	query  []float64
	ranked []classminer.SearchHit
	wire   []searchHit
}

var searchScratchPool = sync.Pool{New: func() any {
	return &searchScratch{
		ranked: make([]classminer.SearchHit, 0, 128),
		wire:   make([]searchHit, 0, 128),
	}
}}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if !readBody(w, r, &req, decodeSearch) {
		return
	}
	sp := trace.SpanFrom(r.Context())
	u, roles := identityOf(r)
	scratch := searchScratchPool.Get().(*searchScratch)
	defer searchScratchPool.Put(scratch)
	rq := sp.Start("resolve")
	query, ok := s.resolveQuery(w, u, &req, scratch.query[:0])
	rq.End()
	if !ok {
		return
	}
	if req.Video != "" {
		scratch.query = query[:0] // keep any growth
	}
	k := clampK(req.K)
	key := makeKey(s.lib.Generation(), u.Clearance, roles, query, k)
	cg := sp.Start("cache.get")
	body, hit := s.cache.Get(key, query)
	cg.End()
	if hit {
		sp.SetAttr("cache", "hit")
		writeBody(w, http.StatusOK, body)
		return
	}
	if s.deadlineExpired(w, r) {
		return
	}
	hits, stats, err := s.lib.SearchIntoCtx(r.Context(), scratch.ranked[:0], u, query, k)
	if err != nil && queryDimError(err) == nil && s.healColdIndex() {
		hits, stats, err = s.lib.SearchIntoCtx(r.Context(), scratch.ranked[:0], u, query, k)
	}
	if err != nil {
		writeSearchError(w, err)
		return
	}
	scratch.ranked = hits[:0]
	if s.deadlineExpired(w, r) {
		return
	}
	resp := buildSearchResponse(scratch.wire, hits, stats, k)
	scratch.wire = resp.Hits[:0]
	out := jsonPool.Get().(*jsonScratch)
	defer out.release()
	if out.buf, err = appendSearchResponse(out.buf[:0], &resp); err != nil {
		writeEncodeError(w, err)
		return
	}
	cp := sp.Start("cache.put")
	s.cache.Put(key, query, out.buf)
	cp.End()
	writeBody(w, http.StatusOK, out.buf)
}

// --- POST /v1/search/batch -------------------------------------------------

// maxBatchItems bounds one batch request; larger workloads should paginate.
const maxBatchItems = 256

type batchSearchRequest struct {
	// Items are query specs (raw vector or video+shot); per-item K is not
	// supported — the request-level K applies to every item.
	Items []searchRequest `json:"items"`
	K     int             `json:"k,omitempty"`
}

// handleSearchBatch answers many searches in one round trip: items already
// in the generation-keyed cache are served from it, the rest fan out across
// cores (searchEach), and every fresh answer is cached individually so later
// single-item searches hit too.
func (s *Server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	var req batchSearchRequest
	if !readBody(w, r, &req, decodeBatch) {
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no items")
		return
	}
	if len(req.Items) > maxBatchItems {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch has %d items, max %d", len(req.Items), maxBatchItems))
		return
	}
	u, roles := identityOf(r)
	k := clampK(req.K)
	queries := make([][]float64, len(req.Items))
	for i := range req.Items {
		item := &req.Items[i]
		if item.K != 0 {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("item %d sets k; set it once at the request level", i))
			return
		}
		q, ok := s.resolveQuery(w, u, item, nil)
		if !ok {
			return
		}
		queries[i] = q
	}
	gen := s.lib.Generation()
	// results[i] is item i's reply body as /v1/search would send it: the
	// cache's bytes for a hit, a slice of fresh's buffer for a miss.
	results := make([][]byte, len(req.Items))
	// Deduplicate uncached items by cache key so repeated specs in one
	// batch run a single search; itemMiss maps each uncached item to its
	// slot in the deduped fan-out.
	itemMiss := make([]int, len(req.Items))
	missPos := map[cacheKey]int{}
	var missKeys []cacheKey
	var missQueries [][]float64
	for i, q := range queries {
		key := makeKey(gen, u.Clearance, roles, q, k)
		if body, ok := s.cache.Get(key, q); ok {
			results[i] = body
			itemMiss[i] = -1
			continue
		}
		pos, dup := missPos[key]
		if dup && !sameQuery(missQueries[pos], q) {
			dup = false // 64-bit hash collision: keep the queries separate
		}
		if !dup {
			pos = len(missQueries)
			missPos[key] = pos
			missKeys = append(missKeys, key)
			missQueries = append(missQueries, q)
		}
		itemMiss[i] = pos
	}
	if len(missQueries) > 0 {
		if s.deadlineExpired(w, r) {
			return
		}
		hits, stats, err := s.searchEach(r.Context(), u, missQueries, k)
		if err != nil && queryDimError(err) == nil && s.healColdIndex() {
			hits, stats, err = s.searchEach(r.Context(), u, missQueries, k)
		}
		if err != nil {
			writeSearchError(w, err)
			return
		}
		if s.deadlineExpired(w, r) {
			return
		}
		// Every miss is encoded once, end to end in one buffer (held until
		// the reply is assembled): answer pos is fresh.buf[ends[pos]:ends[pos+1]].
		fresh := jsonPool.Get().(*jsonScratch)
		defer fresh.release()
		fresh.buf = fresh.buf[:0]
		scratch := searchScratchPool.Get().(*searchScratch)
		defer searchScratchPool.Put(scratch)
		ends := make([]int, 1, len(missQueries)+1)
		for pos := range missQueries {
			resp := buildSearchResponse(scratch.wire, hits[pos], stats[pos], k)
			scratch.wire = resp.Hits[:0]
			if fresh.buf, err = appendSearchResponse(fresh.buf, &resp); err != nil {
				writeEncodeError(w, err)
				return
			}
			s.cache.Put(missKeys[pos], missQueries[pos], fresh.buf[ends[pos]:])
			ends = append(ends, len(fresh.buf))
		}
		for i, pos := range itemMiss {
			if pos >= 0 {
				results[i] = fresh.buf[ends[pos]:ends[pos+1]]
			}
		}
	}
	out := jsonPool.Get().(*jsonScratch)
	defer out.release()
	out.buf = appendBatchReply(out.buf[:0], results)
	writeBody(w, http.StatusOK, out.buf)
}

// searchEach runs Library.SearchIntoCtx once per query, over at most
// GOMAXPROCS goroutines, the caller's among them; hits[i] and stats[i]
// answer queries[i]. It returns the first error in query order, if any.
func (s *Server) searchEach(ctx context.Context, u classminer.User, queries [][]float64, k int) ([][]classminer.SearchHit, []classminer.SearchStats, error) {
	hits := make([][]classminer.SearchHit, len(queries))
	stats := make([]classminer.SearchStats, len(queries))
	errs := make([]error, len(queries))
	var next atomic.Int64
	run := func() {
		for i := int(next.Add(1)) - 1; i < len(queries); i = int(next.Add(1)) - 1 {
			hits[i], stats[i], errs[i] = s.lib.SearchIntoCtx(ctx, nil, u, queries[i], k)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), len(queries)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return hits, stats, nil
}

// healColdIndex recovers the one search failure that is the server's own
// rather than the client's: a populated library whose index has never been
// fit — a read replica that has only ever applied replicated records, or a
// freshly recovered process before its first local mutation. It fits the
// index synchronously (single-flight via the rebuilder) and reports whether
// retrying the search is worthwhile.
func (s *Server) healColdIndex() bool {
	if s.lib.Size() == 0 || !s.lib.IndexStale() {
		return false
	}
	return s.rebuilder.EnsureLive() == nil
}

// --- GET /v1/events/{kind} -------------------------------------------------

// parseEventKind accepts the String() spellings plus natural aliases.
func parseEventKind(s string) (vidmodel.EventKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "presentation":
		return vidmodel.EventPresentation, nil
	case "dialog", "dialogue":
		return vidmodel.EventDialog, nil
	case "clinical-operation", "clinical operation", "clinical", "operation":
		return vidmodel.EventClinicalOperation, nil
	}
	return vidmodel.EventUnknown, fmt.Errorf("unknown event kind %q (want presentation, dialog or clinical-operation)", s)
}

type eventSceneJSON struct {
	Video      string  `json:"video"`
	Scene      int     `json:"scene"`
	StartFrame int     `json:"startFrame"`
	EndFrame   int     `json:"endFrame"`
	StartSec   float64 `json:"startSec"`
	EndSec     float64 `json:"endSec"`
	Shots      int     `json:"shots"`
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, kindName string) {
	kind, err := parseEventKind(kindName)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	refs := s.lib.ScenesByEvent(userOf(r), kind)
	scenes := []eventSceneJSON{}
	for _, ref := range refs {
		fps := 0.0
		if ve := s.lib.Video(ref.VideoName); ve != nil {
			fps = ve.Result.Video.FPS
		}
		first, last := ref.Scene.FrameSpan()
		scenes = append(scenes, eventSceneJSON{
			Video: ref.VideoName, Scene: ref.Scene.Index,
			StartFrame: first, EndFrame: last,
			StartSec: frameSec(first, fps), EndSec: frameSec(last, fps),
			Shots: ref.Scene.ShotCount(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"kind": kind.String(), "scenes": scenes})
}

// --- POST /v1/videos (ingestion) ------------------------------------------

type ingestRequest struct {
	// IngestBody is the subcluster that places the video in the concept
	// hierarchy and the mined result to register as-is, both required: the
	// daemon indexes what an offline miner produced (classminer -save writes
	// this body) and mines nothing itself.
	store.IngestBody
	// Name overrides the registered video name (default Saved.VideoName).
	Name string `json:"name,omitempty"`
	// Replace opts into supersede-on-conflict: when the name is already
	// registered the new mining result replaces it (atomically journaled
	// on a durable library) instead of the request failing with 409.
	Replace bool `json:"replace,omitempty"`
}

// handleIngest registers a mined result and answers once it is durable and
// indexed, as DELETE does: 202 with a finished job record, which
// GET /v1/jobs/{id} serves too. The write takes a journal fsync and an index
// insert (≈ 1 ms), and only the cold start (no index yet, or a mutation the
// incremental path could not absorb) fits synchronously — single-flight, so
// a burst of first ingests shares one build; the O(library) refit is left to
// the coalesced background rebuilder. The mutate-class concurrency gate
// bounds how many writes run at once.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	created := time.Now()
	if !s.requireClearance(w, r, classminer.Clinician) {
		return
	}
	if s.rejectFollowerWrite(w) {
		return
	}
	// The memory watchdog's last stage: refuse new data while reads keep
	// answering. Recovery is automatic — once the heap drops back under the
	// budget the watchdog steps down and ingest reopens.
	if s.admit.degradeLevel() >= admit.LevelRejectIngest {
		s.admit.countReject(rejMemory)
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable,
			"server under memory pressure; ingest temporarily disabled")
		return
	}
	// Durable-backlog backpressure, same shape as the memory stage: when the
	// WAL outruns its checkpoint budget, or an attached follower's
	// replication lag exceeds its budget, shed new data instead of digging
	// the hole deeper. Both conditions drain on their own (background
	// checkpointer, follower pulls), so Retry-After is honest.
	if reason, msg, hit := s.writeBackpressure(); hit {
		s.admit.countReject(reason)
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, msg)
		return
	}
	var req ingestRequest
	if !decodeIngestBody(w, r, &req) {
		return
	}
	if req.Subcluster == "" || !s.lib.HasSubcluster(req.Subcluster) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown subcluster %q", req.Subcluster))
		return
	}
	if req.Saved == nil {
		writeError(w, http.StatusBadRequest, "saved is required: a mined result, as classminer -save writes it")
		return
	}
	name := req.Name
	if name == "" {
		name = req.Saved.VideoName
	}
	if name == "" {
		writeError(w, http.StatusBadRequest, "saved result has no video name")
		return
	}
	// route trims one trailing slash off every path, so GET and DELETE could
	// never address a name that ends in one.
	if strings.HasSuffix(name, "/") {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("video name %q ends in /", name))
		return
	}
	u := userOf(r)
	if ve := s.lib.Video(name); ve != nil {
		if !req.Replace {
			writeError(w, http.StatusConflict, fmt.Sprintf("video %q already registered", name))
			return
		}
		// Superseding destroys the existing registration, so it is gated
		// like DELETE: the caller must be allowed to see it. This check is
		// a fast 403; the authoritative one runs atomically inside
		// ReplaceResultAsCtx.
		if !s.lib.Allowed(u, ve.Path) {
			writeError(w, http.StatusForbidden, fmt.Sprintf("subcluster %q not accessible", ve.Subcluster))
			return
		}
	}
	if s.deadlineExpired(w, r) {
		return
	}
	started := time.Now()
	res, err := store.DecodeResult(req.Saved)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	res.Video.Name = name
	// The library observes ctx only for its trace: once validated, a write
	// is appended and applied whether or not the client is still there.
	if req.Replace {
		err = s.lib.ReplaceResultAsCtx(r.Context(), u, res, req.Subcluster)
	} else {
		err = s.lib.AddResultCtx(r.Context(), res, req.Subcluster)
	}
	if err == nil {
		if s.lib.IndexStale() {
			err = s.rebuilder.EnsureLive()
		} else {
			s.rebuilder.Kick()
		}
	}
	if err != nil {
		switch {
		case errors.Is(err, classminer.ErrDuplicateVideo): // a racing twin won
			writeError(w, http.StatusConflict, err.Error())
		case errors.Is(err, classminer.ErrForbidden):
			writeError(w, http.StatusForbidden, err.Error())
		case errors.Is(err, classminer.ErrInvalidResult):
			writeError(w, http.StatusBadRequest, err.Error())
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	job := s.jobs.add(Job{Status: "done", Video: name, Subcluster: req.Subcluster,
		Created: created, Started: started, Finished: time.Now()})
	s.opts.Logf("job %s: ingested %q into %q", job.ID, name, req.Subcluster)
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job)
}

// --- GET /v1/jobs/{id} -----------------------------------------------------

func (s *Server) handleJob(w http.ResponseWriter, _ *http.Request, id string) {
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

// --- POST /v1/admin/checkpoint ---------------------------------------------

// handleAdminCheckpoint folds the durable library's write-ahead log into a
// fresh snapshot on demand (the background checkpointer handles the
// threshold-driven case). Only meaningful when the daemon runs with
// -data-dir.
func (s *Server) handleAdminCheckpoint(w http.ResponseWriter, r *http.Request) {
	if !s.requireClearance(w, r, classminer.Administrator) {
		return
	}
	if !s.lib.Durable() {
		writeError(w, http.StatusNotImplemented, "library is not durable (start with -data-dir)")
		return
	}
	if err := s.lib.Checkpoint(); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	ws, _ := s.lib.WALStats()
	s.opts.Logf("admin checkpoint: generation %d", ws.Generation)
	writeJSON(w, http.StatusOK, map[string]any{"checkpointed": true, "wal": ws})
}

// --- replication: /v1/repl/*, /v1/admin/promote ------------------------------

// handleReplPull and handleReplSnapshot route to the replication hub after
// the clearance gate — the protocol itself (cursor validation, long-poll,
// 410 semantics) lives in internal/repl, so its tests exercise the real
// wire format without a Server.
func (s *Server) handleReplPull(w http.ResponseWriter, r *http.Request) {
	if !s.requireClearance(w, r, classminer.Administrator) {
		return
	}
	if s.opts.ReplHub == nil {
		writeError(w, http.StatusNotImplemented, "replication not enabled (leader needs -data-dir)")
		return
	}
	s.opts.ReplHub.ServePull(w, r)
}

func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	if !s.requireClearance(w, r, classminer.Administrator) {
		return
	}
	if s.opts.ReplHub == nil {
		writeError(w, http.StatusNotImplemented, "replication not enabled (leader needs -data-dir)")
		return
	}
	s.opts.ReplHub.ServeSnapshot(w, r)
}

// handleAdminPromote flips a follower into a write-accepting leader: the
// pull loops stop (blocking until the in-flight batch is applied), and the
// write path opens. Idempotent — promoting a leader (or twice) reports the
// current role without error, so a failover script can fire it blindly.
// The node's own WAL journaled every replicated record, so no state needs
// rebuilding; what was applied before the old leader died is exactly what
// the new leader serves.
func (s *Server) handleAdminPromote(w http.ResponseWriter, r *http.Request) {
	if !s.requireClearance(w, r, classminer.Administrator) {
		return
	}
	if s.opts.Follower == nil {
		writeJSON(w, http.StatusOK, map[string]any{"role": s.role(), "promoted": false})
		return
	}
	promoted := s.promoted.CompareAndSwap(false, true)
	if promoted {
		s.opts.Follower.Promote()
		s.opts.Logf("promoted to leader; replication stopped")
	}
	writeJSON(w, http.StatusOK, map[string]any{"role": s.role(), "promoted": promoted})
}

// rejectFollowerWrite refuses mutations on an unpromoted follower, pointing
// the client at the leader. 503 rather than 403: the client's request is
// legitimate, this node just isn't the one that takes it (and will be, the
// moment it is promoted).
func (s *Server) rejectFollowerWrite(w http.ResponseWriter) bool {
	if !s.isFollower() {
		return false
	}
	if s.opts.LeaderURL != "" {
		w.Header().Set("X-Repl-Leader", s.opts.LeaderURL)
	}
	writeError(w, http.StatusServiceUnavailable, "read-only follower; send writes to the leader")
	return true
}

// writeBackpressure reports whether the durable write path should shed new
// ingest, and why: the WAL's un-checkpointed bytes exceeded
// WALPressureBytes, or an attached follower's unshipped backlog exceeded
// ReplLagBytes.
func (s *Server) writeBackpressure() (rejectReason, string, bool) {
	if b := s.opts.WALPressureBytes; b > 0 {
		if ws, ok := s.lib.WALStats(); ok && ws.Bytes > b {
			return rejWALPressure, fmt.Sprintf(
				"WAL backlog %d bytes exceeds budget %d; retry after the next checkpoint",
				ws.Bytes, b), true
		}
	}
	if b := s.opts.ReplLagBytes; b > 0 && s.opts.ReplHub != nil {
		if _, lag := s.opts.ReplHub.MaxLag(); lag > b {
			return rejReplLag, fmt.Sprintf(
				"replication lag %d bytes exceeds budget %d; retry once followers catch up",
				lag, b), true
		}
	}
	return 0, "", false
}
