package trace

import (
	"strconv"
	"sync/atomic"
	"time"
)

// View is an immutable rendering of a kept trace: everything /debug/traces
// serves. It is built once at Finish and never mutated afterwards, so the
// ring can hand the same *View to any number of concurrent readers.
type View struct {
	TraceID      string     `json:"traceId"`
	RequestID    string     `json:"requestId,omitempty"`
	Route        string     `json:"route,omitempty"`
	Method       string     `json:"method,omitempty"`
	Status       int        `json:"status,omitempty"`
	Err          string     `json:"error,omitempty"`
	Start        time.Time  `json:"start"`
	DurationMS   float64    `json:"durationMs"`
	Reason       string     `json:"reason"` // "error" | "slow" | "sampled"
	RemoteParent string     `json:"remoteParent,omitempty"`
	DroppedSpans int        `json:"droppedSpans,omitempty"`
	Spans        []SpanView `json:"spans"`

	tail bool
}

// Tail reports that the tail sampler (slow-or-error), not head sampling, is
// what kept this trace; the server's structured slow-request log fires on it.
func (v *View) Tail() bool { return v != nil && v.tail }

// SpanView is one span in a View. Parent indexes into View.Spans (-1 for
// the root); offsets and durations are microseconds from the trace start.
type SpanView struct {
	Name    string            `json:"name"`
	Parent  int               `json:"parent"`
	StartUS int64             `json:"startUs"`
	DurUS   int64             `json:"durUs"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// render builds the View for a kept trace. This is the only place span
// attributes are formatted — a dropped trace never pays for it.
func (t *Tracer) render(tr *Trace, m Meta, dur time.Duration, reason string, tail bool) *View {
	n := int(tr.n.Load())
	dropped := 0
	if n > len(tr.spans) {
		dropped = n - len(tr.spans)
		n = len(tr.spans)
	}
	// Whole microseconds, the resolution the spans are reported at: the root
	// span's DurUS is DurationMS × 1000 exactly, so span self times add up to
	// the trace's duration with no truncation left over.
	durMS := float64(dur.Microseconds()) / 1e3
	v := &View{
		TraceID:      HexString(tr.id[:]),
		RequestID:    m.RequestID,
		Route:        m.Route,
		Method:       m.Method,
		Status:       m.Status,
		Err:          m.Err,
		Start:        time.Now().Add(-dur), // wall anchor; spans carry monotonic offsets
		DurationMS:   durMS,
		Reason:       reason,
		DroppedSpans: dropped,
		Spans:        make([]SpanView, n),
		tail:         tail,
	}
	if tr.hasRemote {
		v.RemoteParent = HexString(tr.remoteParent[:])
	}
	for i := 0; i < n; i++ {
		sp := &tr.spans[i]
		sv := &v.Spans[i]
		sv.Name = sp.name
		sv.Parent = int(sp.parent)
		sv.StartUS = sp.start.Sub(tr.start).Microseconds()
		d := sp.dur
		if d == 0 && i > 0 {
			// A span never ended (panic unwound past it): charge it up to
			// the trace end so the gap is visible rather than invisible.
			d = dur - sp.start.Sub(tr.start)
		}
		sv.DurUS = d.Microseconds()
		if sp.nattr > 0 {
			sv.Attrs = make(map[string]string, sp.nattr)
			for a := int32(0); a < sp.nattr; a++ {
				at := &sp.attrs[a]
				if at.IsInt {
					sv.Attrs[at.Key] = strconv.FormatInt(at.Int, 10)
				} else {
					sv.Attrs[at.Key] = at.Str
				}
			}
		}
	}
	return v
}

// ring is a fixed-size lock-free buffer of kept traces. Writers claim a slot
// with one atomic add and publish the View with an atomic pointer store;
// readers snapshot with atomic loads. A reader racing a wrapping writer sees
// either the old or the new View for a slot — both are complete, immutable
// traces, which is all a debug endpoint needs.
type ring struct {
	slots []atomic.Pointer[View]
	next  atomic.Uint64
}

func newRing(n int) *ring {
	return &ring{slots: make([]atomic.Pointer[View], n)}
}

func (r *ring) add(v *View) {
	i := r.next.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(v)
}

// snapshot returns the ring's contents, newest first.
func (r *ring) snapshot() []*View {
	n := uint64(len(r.slots))
	head := r.next.Load()
	if head == 0 {
		return nil
	}
	written := head
	if written > n {
		written = n
	}
	out := make([]*View, 0, written)
	// Walk backwards from the most recently claimed slot; a slot claimed by
	// a writer that has not stored its View yet reads nil and is skipped.
	for i := uint64(0); i < written; i++ {
		v := r.slots[(head-1-i)%n].Load()
		if v != nil {
			out = append(out, v)
		}
	}
	return out
}

const hexdigits = "0123456789abcdef"

// HexString is hex.EncodeToString without the intermediate buffer
// allocation (one string allocation total).
func HexString(b []byte) string {
	var buf [64]byte
	n := len(b) * 2
	if n > len(buf) {
		return hexStringSlow(b)
	}
	for i, c := range b {
		buf[2*i] = hexdigits[c>>4]
		buf[2*i+1] = hexdigits[c&0xf]
	}
	return string(buf[:n])
}

func hexStringSlow(b []byte) string {
	out := make([]byte, len(b)*2)
	for i, c := range b {
		out[2*i] = hexdigits[c>>4]
		out[2*i+1] = hexdigits[c&0xf]
	}
	return string(out)
}
