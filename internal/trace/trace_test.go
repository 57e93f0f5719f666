package trace

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func startFinish(t *Tracer, dur time.Duration, status int) *View {
	var sid [8]byte
	PutUint64(sid[:], RandU64())
	tr, root := t.StartTrace("request", sid, "")
	if dur > 0 {
		root.start = root.start.Add(-dur) // backdate instead of sleeping
	}
	return t.Finish(tr, Meta{Route: "/v1/search", Method: "POST", Status: status})
}

func TestTailSamplerAlwaysKeepsSlowAnd5xx(t *testing.T) {
	tr := New(Config{Sample: 0, Slow: 50 * time.Millisecond})

	if v := startFinish(tr, 0, 200); v != nil {
		t.Fatalf("fast 200 with sample=0 kept: %+v", v)
	}
	v := startFinish(tr, time.Second, 200)
	if v == nil || v.Reason != "slow" || !v.Tail() {
		t.Fatalf("slow request not tail-kept: %+v", v)
	}
	v = startFinish(tr, 0, 503)
	if v == nil || v.Reason != "error" || !v.Tail() {
		t.Fatalf("5xx request not tail-kept: %+v", v)
	}
	if v = startFinish(tr, 0, 404); v != nil {
		t.Fatalf("4xx fast request kept: %+v", v)
	}
	// An error without an HTTP status (background job) is also tail-kept.
	var sid [8]byte
	trc, _ := tr.StartTrace("job", sid, "")
	if v = tr.Finish(trc, Meta{Route: "job", Err: "boom"}); v == nil || !v.Tail() {
		t.Fatalf("failed job not tail-kept: %+v", v)
	}
}

func TestHeadSampling(t *testing.T) {
	all := New(Config{Sample: 1, Slow: time.Hour})
	v := startFinish(all, 0, 200)
	if v == nil || v.Reason != "sampled" {
		t.Fatalf("sample=1 did not keep: %+v", v)
	}
	if v.Tail() {
		t.Fatal("head-sampled fast 200 must not read as tail-kept")
	}
	none := New(Config{Sample: 0, Slow: time.Hour})
	for i := 0; i < 100; i++ {
		if v := startFinish(none, 0, 200); v != nil {
			t.Fatalf("sample=0 kept a trace: %+v", v)
		}
	}
}

func TestSlowZeroKeepsEverything(t *testing.T) {
	tr := New(Config{Slow: 0})
	if v := startFinish(tr, 0, 200); v == nil {
		t.Fatal("Slow=0 must keep every trace")
	}
}

// TestDurationAtSpanResolution: a trace's duration is reported at its spans'
// resolution, so the root span accounts for all of it — a reader summing span
// self times (cmd/loadgen's trace.sum_check_pct) sees no residue however short
// the request.
func TestDurationAtSpanResolution(t *testing.T) {
	tr := New(Config{Slow: 0})
	for _, dur := range []time.Duration{0, 999 * time.Nanosecond, 28_600 * time.Nanosecond, 3*time.Millisecond + 1} {
		v := startFinish(tr, dur, 200)
		if got, want := v.DurationMS*1e3, float64(v.Spans[0].DurUS); math.Abs(got-want) > 1e-6 {
			t.Errorf("backdated %v: durationMs×1000 = %v, root durUs = %v", dur, got, want)
		}
		if lo := float64(dur.Microseconds()) / 1e3; v.DurationMS < lo {
			t.Errorf("backdated %v: durationMs = %v, under %v", dur, v.DurationMS, lo)
		}
	}
}

func TestSpanTreeAttrsAndOverflow(t *testing.T) {
	tc := New(Config{Slow: 0, MaxSpans: 4})
	var sid [8]byte
	PutUint64(sid[:], 0x0102030405060708)
	tr, root := tc.StartTrace("request", sid, "")
	a := root.Start("auth")
	a.SetAttr("user", "dr.lee")
	a.SetInt("tokens", 3)
	a.End()
	b := root.Start("search")
	c := b.Start("scan") // 4th span: fills the arena
	c.End()
	b.End()
	if d := b.Start("overflow"); d != nil {
		t.Fatal("span past MaxSpans must be dropped (nil)")
	}
	// Dropped spans are inert everywhere.
	var nilSpan *Span
	nilSpan.SetAttr("k", "v")
	nilSpan.SetInt("k", 1)
	nilSpan.End()
	if nilSpan.Start("child") != nil {
		t.Fatal("child of nil span must be nil")
	}

	v := tc.Finish(tr, Meta{Route: "/v1/search", Status: 200, RequestID: "0102030405060708"})
	if v == nil {
		t.Fatal("trace not kept")
	}
	if len(v.Spans) != 4 || v.DroppedSpans != 1 {
		t.Fatalf("spans=%d dropped=%d, want 4/1", len(v.Spans), v.DroppedSpans)
	}
	if v.Spans[0].Name != "request" || v.Spans[0].Parent != -1 {
		t.Fatalf("bad root: %+v", v.Spans[0])
	}
	if v.Spans[1].Name != "auth" || v.Spans[1].Parent != 0 {
		t.Fatalf("bad auth span: %+v", v.Spans[1])
	}
	if v.Spans[3].Name != "scan" || v.Spans[3].Parent != 2 {
		t.Fatalf("bad scan span: %+v", v.Spans[3])
	}
	if got := v.Spans[1].Attrs["user"]; got != "dr.lee" {
		t.Fatalf("user attr = %q", got)
	}
	if got := v.Spans[1].Attrs["tokens"]; got != "3" {
		t.Fatalf("tokens attr = %q (int attrs format at render time)", got)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tc := New(Config{Slow: time.Hour})
	var sid [8]byte
	PutUint64(sid[:], RandU64())

	in := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	tr, _ := tc.StartTrace("request", sid, in)
	if !tr.Sampled() {
		t.Fatal("inbound sampled flag must mark the trace sampled")
	}
	out := tr.Traceparent()
	id, parent, flags, ok := ParseTraceparent(out)
	if !ok {
		t.Fatalf("emitted traceparent does not re-parse: %q", out)
	}
	if HexString(id[:]) != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("trace id not propagated: %q", out)
	}
	if HexString(parent[:]) != HexString(sid[:]) {
		t.Fatalf("outbound parent must be our root span, got %q", out)
	}
	if flags&1 == 0 {
		t.Fatalf("sampled flag lost: %q", out)
	}
	v := tc.Finish(tr, Meta{Route: "/v1/search", Status: 200})
	if v == nil || v.RemoteParent != "b7ad6b7169203331" {
		t.Fatalf("remote parent not surfaced: %+v", v)
	}

	// Round trip of our own emission with no inbound parent.
	tr2, _ := tc.StartTrace("request", sid, "")
	out2 := tr2.Traceparent()
	if _, _, _, ok := ParseTraceparent(out2); !ok {
		t.Fatalf("self-generated traceparent does not parse: %q", out2)
	}
	tc.Finish(tr2, Meta{})
}

// malformedTraceparents are headers ParseTraceparent must reject.
var malformedTraceparents = []string{
	"",
	"junk",
	"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",     // missing flags
	"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0",   // short flags
	"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",  // invalid version
	"00-00000000000000000000000000000000-b7ad6b7169203331-01",  // zero trace id
	"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",  // zero parent
	"00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01",  // uppercase forbidden
	"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0g",  // non-hex flags
	"00_0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",  // bad separator
	"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-011", // trailing junk
}

func TestTraceparentMalformedIgnored(t *testing.T) {
	tc := New(Config{Slow: 0})
	for _, h := range malformedTraceparents {
		if _, _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) = ok", h)
		}
		var sid [8]byte
		PutUint64(sid[:], RandU64())
		tr, _ := tc.StartTrace("request", sid, h)
		v := tc.Finish(tr, Meta{Route: "/x"})
		if v == nil {
			t.Fatal("trace dropped")
		}
		if v.RemoteParent != "" {
			t.Errorf("malformed %q produced remote parent %q", h, v.RemoteParent)
		}
	}
}

// FuzzTraceparent: the parser of a header any client may send never panics;
// an accepted header is exactly what FormatTraceparent renders from its parts
// (the renderer pins the version to 00); and a rejected one leaves StartTrace
// on a fresh, non-zero trace id with no remote parent.
func FuzzTraceparent(f *testing.F) {
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	for _, h := range malformedTraceparents {
		f.Add(h)
	}
	tc := New(Config{Slow: time.Hour})
	f.Fuzz(func(t *testing.T, h string) {
		id, parent, flags, ok := ParseTraceparent(h)
		a, _ := tc.StartTrace("request", [8]byte{1}, h)
		defer tc.Finish(a, Meta{})
		if ok {
			if got := FormatTraceparent(id, parent, flags); got != "00"+h[2:] {
				t.Fatalf("ParseTraceparent(%q) accepted, but its parts render as %q", h, got)
			}
			if a.id != id || !a.hasRemote || a.remoteParent != parent {
				t.Fatalf("StartTrace(%q) did not adopt the accepted ids", h)
			}
			return
		}
		b, _ := tc.StartTrace("request", [8]byte{2}, h)
		defer tc.Finish(b, Meta{})
		if a.hasRemote || a.id == ([16]byte{}) || a.id == b.id {
			t.Fatalf("StartTrace(%q) rejected the header but did not draw a fresh id: %x then %x", h, a.id, b.id)
		}
	})
}

func TestRingConcurrency(t *testing.T) {
	// Hammer the ring from writers while readers snapshot; -race is the
	// real assertion, the invariants below are sanity.
	tc := New(Config{Slow: 0, Ring: 7}) // odd size: exercises modulo wrap
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				views := tc.Recent()
				if len(views) > 7 {
					t.Errorf("snapshot larger than ring: %d", len(views))
					return
				}
				for _, v := range views {
					if v == nil || v.TraceID == "" {
						t.Error("snapshot contains incomplete view")
						return
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				var sid [8]byte
				PutUint64(sid[:], RandU64())
				tr, root := tc.StartTrace("request", sid, "")
				sp := root.Start("work")
				sp.SetInt("writer", int64(w))
				sp.End()
				tc.Finish(tr, Meta{Route: fmt.Sprintf("/w/%d", w), Status: 200})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Writers finish quickly; stop the readers once every trace landed.
	for tc.Kept() < writers*perWriter {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done

	views := tc.Recent()
	if len(views) != 7 {
		t.Fatalf("full ring snapshot = %d views, want 7", len(views))
	}
	st := tc.Stats()
	if st.Started != writers*perWriter || st.Kept != writers*perWriter {
		t.Fatalf("stats = %+v", st)
	}
	if len(tc.Exemplars()) != writers {
		t.Fatalf("exemplars = %d routes, want %d", len(tc.Exemplars()), writers)
	}
}

func TestContextPlumbing(t *testing.T) {
	if SpanFrom(context.Background()) != nil {
		t.Fatal("background context must yield nil span")
	}
	if StartSpan(context.Background(), "x") != nil {
		t.Fatal("StartSpan on untraced context must be nil")
	}
	tc := New(Config{Slow: 0})
	var sid [8]byte
	tr, root := tc.StartTrace("request", sid, "")
	ctx := With(context.Background(), root)
	if SpanFrom(ctx) != root {
		t.Fatal("SpanFrom did not return the installed span")
	}
	sp := StartSpan(ctx, "child")
	if sp == nil || sp.parent != 0 {
		t.Fatalf("StartSpan child = %+v", sp)
	}
	sp.End()
	tc.Finish(tr, Meta{})
}

func TestNilTracerInert(t *testing.T) {
	var tc *Tracer
	tr, root := tc.StartTrace("request", [8]byte{}, "")
	if tr != nil || root != nil {
		t.Fatal("nil tracer must return nil trace/span")
	}
	if v := tc.Finish(tr, Meta{}); v != nil {
		t.Fatal("nil tracer Finish must be nil")
	}
	if tc.Recent() != nil || tc.Exemplars() != nil {
		t.Fatal("nil tracer has no traces")
	}
	if s := tc.Stats(); s.Started != 0 {
		t.Fatalf("nil tracer stats = %+v", s)
	}
}

func TestRequestIDMatchesRootSpan(t *testing.T) {
	tc := New(Config{Slow: 0})
	var sid [8]byte
	PutUint64(sid[:], RandU64())
	rid := HexString(sid[:])
	tr, _ := tc.StartTrace("request", sid, "")
	tp := tr.Traceparent()
	if !strings.Contains(tp, "-"+rid+"-") {
		t.Fatalf("traceparent %q does not carry root span id %s", tp, rid)
	}
	v := tc.Finish(tr, Meta{RequestID: rid})
	if v.RequestID != rid {
		t.Fatalf("view rid = %q, want %q", v.RequestID, rid)
	}
}

func TestUnkeptTraceZeroAllocs(t *testing.T) {
	if raceEnabledTrace() {
		t.Skip("alloc counts differ under -race")
	}
	tc := New(Config{Sample: 0, Slow: time.Hour})
	allocs := testing.AllocsPerRun(500, func() {
		var sid [8]byte
		PutUint64(sid[:], RandU64())
		tr, root := tc.StartTrace("request", sid, "")
		sp := root.Start("search")
		sp.SetInt("k", 10)
		inner := sp.Start("scan")
		inner.End()
		sp.End()
		tc.Finish(tr, Meta{Route: "/v1/search", Method: "POST", Status: 200})
	})
	if allocs != 0 {
		t.Fatalf("unkept trace cost %v allocs/op, want 0", allocs)
	}
}
