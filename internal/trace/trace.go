// Package trace is a zero-dependency request tracer: context-carried span
// trees with monotonic timings and per-span attributes, W3C traceparent
// ingestion/emission, and head sampling plus tail capture into a fixed-size
// lock-free ring of recent traces.
//
// The design is shaped by one hard constraint: the serving hot path has an
// exact allocation budget, so recording a trace that ends up *not* kept must
// cost zero heap allocations. Traces are pooled; each carries a fixed-size
// span arena (the arena is never grown — growing it would invalidate *Span
// pointers already handed out — spans past the cap are counted and dropped);
// the keep/drop decision is deferred to Finish (tail sampling), and only a
// kept trace pays for an immutable View that outlives the pooled object.
//
// Every *Span method is nil-safe: code under test, library-level callers
// with a bare context.Background(), and unsampled fast paths all thread a
// nil span for free.
package trace

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// maxAttrs is the per-span attribute capacity. Attributes land inline in
// the span arena; the hot path never allocates for them.
const maxAttrs = 4

// Attr is one span attribute. Exactly one of Str/Int is meaningful,
// selected by IsInt — an int attribute is formatted only when a kept trace
// is rendered to a View, never on the recording path.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsInt bool
}

// Span is one timed stage of a trace. Spans form a tree via parent indices
// into the owning trace's arena. The zero Span is inert, and all methods
// tolerate a nil receiver.
type Span struct {
	tr     *Trace
	name   string
	start  time.Time
	dur    time.Duration
	idx    int32 // own position in the arena
	parent int32 // parent's position; -1 for the root
	nattr  int32
	attrs  [maxAttrs]Attr
}

// Start opens a child span. Returns nil (a no-op span) when the receiver is
// nil or the trace's span arena is full.
func (s *Span) Start(name string) *Span {
	if s == nil || s.tr == nil {
		return nil
	}
	return s.tr.newSpan(name, s.idx)
}

// End stamps the span's duration. Ending twice keeps the later stamp.
func (s *Span) End() {
	if s != nil {
		s.dur = time.Since(s.start)
	}
}

// SetAttr attaches a string attribute; past maxAttrs it is dropped.
func (s *Span) SetAttr(key, val string) {
	if s == nil || int(s.nattr) >= maxAttrs {
		return
	}
	s.attrs[s.nattr] = Attr{Key: key, Str: val}
	s.nattr++
}

// SetInt attaches an integer attribute without formatting it (formatting
// happens at View time, off the hot path).
func (s *Span) SetInt(key string, val int64) {
	if s == nil || int(s.nattr) >= maxAttrs {
		return
	}
	s.attrs[s.nattr] = Attr{Key: key, Int: val, IsInt: true}
	s.nattr++
}

// TraceSpan makes *Span itself a Carrier, so a bare span can be put in a
// context without a wrapper.
func (s *Span) TraceSpan() *Span { return s }

// Trace is one in-flight request's span arena. Obtain via Tracer.StartTrace,
// return via Tracer.Finish; never retain past Finish.
type Trace struct {
	tracer       *Tracer
	start        time.Time
	id           [16]byte // trace id (inbound traceparent's, or random)
	root         [8]byte  // root span id (caller-supplied; doubles as request id)
	remoteParent [8]byte  // inbound parent span id, when hasRemote
	hasRemote    bool
	sampled      bool // head-sampled (or inbound sampled flag): keep regardless of tail
	n            atomic.Int32
	spans        []Span // fixed capacity; see package comment
}

func (t *Trace) newSpan(name string, parent int32) *Span {
	i := t.n.Add(1) - 1
	if int(i) >= len(t.spans) {
		return nil // arena full; overflow count derived from n at Finish
	}
	sp := &t.spans[i]
	sp.tr = t
	sp.name = name
	sp.start = time.Now()
	sp.dur = 0
	sp.idx = i
	sp.parent = parent
	sp.nattr = 0
	return sp
}

// Root returns the trace's root span.
func (t *Trace) Root() *Span {
	if t == nil || t.n.Load() == 0 {
		return nil
	}
	return &t.spans[0]
}

// Sampled reports whether the trace was head-sampled (or arrived with the
// W3C sampled flag set) and will therefore be kept regardless of outcome.
func (t *Trace) Sampled() bool { return t != nil && t.sampled }

// Traceparent renders the outbound W3C traceparent header for this trace.
func (t *Trace) Traceparent() string {
	if t == nil {
		return ""
	}
	flags := byte(0)
	if t.sampled {
		flags = 1
	}
	return FormatTraceparent(t.id, t.root, flags)
}

// Config sizes a Tracer.
type Config struct {
	// Sample is the head-sampling probability in [0,1]: that fraction of
	// traces is kept regardless of how the request ends.
	Sample float64
	// Slow is the tail threshold: any trace whose total duration reaches it
	// is kept. 0 keeps every trace (the daemon's `-trace-slow 0` spelling);
	// tests that want "nothing is slow" pass an hour.
	Slow time.Duration
	// Ring is the kept-trace ring capacity (default 256).
	Ring int
	// MaxSpans is the per-trace span arena size (default 64).
	MaxSpans int
}

// Tracer owns the trace pool, the sampling decision, and the ring of kept
// traces. A nil *Tracer is valid and inert at every call site.
type Tracer struct {
	cfg       Config
	sampleBar uint64 // head-sample iff RandU64() < sampleBar
	ring      *ring
	pool      sync.Pool

	started      atomic.Uint64
	kept         atomic.Uint64
	droppedSpans atomic.Uint64

	// exemplars holds the most recent kept View per route, surfaced next to
	// the per-route latency data in /v1/stats.
	exemplars sync.Map // string -> *View
}

// New builds a Tracer. Note the zero Config keeps every trace (Slow 0 =
// keep all); servers that want the usual behaviour pass an explicit slow
// threshold.
func New(cfg Config) *Tracer {
	if cfg.Ring <= 0 {
		cfg.Ring = 256
	}
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = 64
	}
	if cfg.Sample < 0 {
		cfg.Sample = 0
	}
	if cfg.Slow < 0 {
		cfg.Slow = 0
	}
	t := &Tracer{cfg: cfg, ring: newRing(cfg.Ring)}
	switch {
	case cfg.Sample >= 1:
		t.sampleBar = ^uint64(0)
	case cfg.Sample > 0:
		t.sampleBar = uint64(cfg.Sample * float64(1<<63) * 2)
	}
	t.pool.New = func() any {
		return &Trace{tracer: t, spans: make([]Span, cfg.MaxSpans)}
	}
	return t
}

// StartTrace begins a trace for one request. rootSpanID is caller-supplied
// (the server derives its X-Request-Id from the same bytes, so the two
// always agree). traceparent is the inbound header value, "" for none;
// malformed values are silently ignored per the W3C spec — correlation is
// best-effort, never a 400.
//
// Returns nil, nil on a nil tracer.
func (t *Tracer) StartTrace(name string, rootSpanID [8]byte, traceparent string) (*Trace, *Span) {
	if t == nil {
		return nil, nil
	}
	t.started.Add(1)
	tr := t.pool.Get().(*Trace)
	tr.n.Store(0)
	tr.start = time.Now()
	tr.root = rootSpanID
	tr.hasRemote = false
	tr.sampled = t.sampleBar > 0 && RandU64() < t.sampleBar
	if id, parent, flags, ok := ParseTraceparent(traceparent); ok {
		tr.id = id
		tr.remoteParent = parent
		tr.hasRemote = true
		if flags&1 != 0 {
			// The caller asked for this trace; honour the sampled flag so
			// cross-service correlation works without cranking -trace-sample.
			tr.sampled = true
		}
	} else {
		PutUint64(tr.id[0:8], RandU64())
		PutUint64(tr.id[8:16], RandU64())
	}
	sp := tr.newSpan(name, -1)
	sp.idx = 0
	return tr, sp
}

// Meta is what Finish knows about the finished request beyond its spans.
type Meta struct {
	Route     string
	Method    string
	Status    int
	RequestID string
	Err       string // non-"" marks the trace failed even without an HTTP status
}

// Finish closes the trace, applies the tail-sampling decision, and recycles
// the trace object. The returned View is non-nil exactly when the trace was
// kept; View.Tail additionally reports that the *tail* sampler (slow or
// 5xx/error), not head sampling, is what fired — the server's slow-request
// log line keys off it. Nil-safe on both receiver and trace.
func (t *Tracer) Finish(tr *Trace, m Meta) *View {
	if t == nil || tr == nil {
		return nil
	}
	root := tr.Root()
	if root != nil && root.dur == 0 {
		root.End()
	}
	dur := time.Duration(0)
	if root != nil {
		dur = root.dur
	}
	slow := dur >= t.cfg.Slow
	failed := m.Status >= 500 || m.Err != ""
	var reason string
	switch {
	case failed:
		reason = "error"
	case slow:
		reason = "slow"
	case tr.sampled:
		reason = "sampled"
	}
	var v *View
	if reason != "" {
		t.kept.Add(1)
		v = t.render(tr, m, dur, reason, failed || slow)
		t.ring.add(v)
		if m.Route != "" {
			t.exemplars.Store(m.Route, v)
		}
	}
	n := int(tr.n.Load())
	if over := n - len(tr.spans); over > 0 {
		t.droppedSpans.Add(uint64(over))
	}
	t.pool.Put(tr)
	return v
}

// Stats is the tracer's aggregate state for /v1/stats and /metrics.
type Stats struct {
	Started      uint64  `json:"started"`
	Kept         uint64  `json:"kept"`
	DroppedSpans uint64  `json:"droppedSpans,omitempty"`
	Ring         int     `json:"ring"`
	Sample       float64 `json:"sample"`
	SlowMS       float64 `json:"slowMs"`
}

func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Started:      t.started.Load(),
		Kept:         t.kept.Load(),
		DroppedSpans: t.droppedSpans.Load(),
		Ring:         t.cfg.Ring,
		Sample:       t.cfg.Sample,
		SlowMS:       float64(t.cfg.Slow) / float64(time.Millisecond),
	}
}

// Started and Kept feed the /metrics counters without copying all of Stats.
func (t *Tracer) Started() uint64 {
	if t == nil {
		return 0
	}
	return t.started.Load()
}

func (t *Tracer) Kept() uint64 {
	if t == nil {
		return 0
	}
	return t.kept.Load()
}

// Recent snapshots the ring, newest first.
func (t *Tracer) Recent() []*View {
	if t == nil {
		return nil
	}
	return t.ring.snapshot()
}

// Exemplar is a pointer from aggregate stats back into the trace ring: the
// last kept trace for a route.
type Exemplar struct {
	TraceID    string  `json:"traceId"`
	RequestID  string  `json:"requestId,omitempty"`
	DurationMS float64 `json:"durationMs"`
	Status     int     `json:"status,omitempty"`
}

// Exemplars returns the last kept trace per route.
func (t *Tracer) Exemplars() map[string]Exemplar {
	if t == nil {
		return nil
	}
	out := map[string]Exemplar{}
	t.exemplars.Range(func(k, v any) bool {
		view := v.(*View)
		out[k.(string)] = Exemplar{
			TraceID:    view.TraceID,
			RequestID:  view.RequestID,
			DurationMS: view.DurationMS,
			Status:     view.Status,
		}
		return true
	})
	return out
}

// --- context plumbing ---

type ctxKey struct{}

// Carrier resolves the active span from a context value. The server stores
// its pooled per-request state under the trace key and implements Carrier
// on it, so installing the span costs no context allocation beyond the one
// WithValue the request already pays.
type Carrier interface{ TraceSpan() *Span }

// With installs a Carrier in the context.
func With(ctx context.Context, c Carrier) context.Context {
	return context.WithValue(ctx, ctxKey{}, c)
}

// CarrierFrom returns the installed Carrier, nil when absent.
func CarrierFrom(ctx context.Context) Carrier {
	c, _ := ctx.Value(ctxKey{}).(Carrier)
	return c
}

// SpanFrom returns the context's active span, nil (inert) when untraced.
func SpanFrom(ctx context.Context) *Span {
	if c := CarrierFrom(ctx); c != nil {
		return c.TraceSpan()
	}
	return nil
}

// StartSpan opens a child of the context's span; nil (no-op) when untraced.
func StartSpan(ctx context.Context, name string) *Span {
	return SpanFrom(ctx).Start(name)
}

// --- id generation ---

// randState seeds one splitmix64 sequence per process. A Weyl-increment
// counter finalized by splitmix64 gives well-distributed 64-bit ids with a
// single atomic add — no lock, no allocation, safe under -race.
var randState atomic.Uint64

func init() {
	randState.Store(uint64(time.Now().UnixNano()))
}

// RandU64 returns a pseudo-random uint64 suitable for trace/span ids.
func RandU64() uint64 {
	x := randState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// PutUint64 writes v big-endian into b[:8] without importing encoding/binary
// at every call site.
func PutUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v >> 56)
	b[1] = byte(v >> 48)
	b[2] = byte(v >> 40)
	b[3] = byte(v >> 32)
	b[4] = byte(v >> 24)
	b[5] = byte(v >> 16)
	b[6] = byte(v >> 8)
	b[7] = byte(v)
}
