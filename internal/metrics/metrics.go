// Package metrics is a zero-dependency instrumentation registry with a
// Prometheus text-exposition writer. The serving layer's perf claims —
// microsecond search, durable ingest, incremental index maintenance —
// are only claims until they can be watched under live load; this package
// makes them continuously observable without pulling a client library into
// the module.
//
// Design constraints, in priority order:
//
//   - The hot path is lock-free and allocation-free: Counter.Inc and
//     Histogram.Observe are a handful of atomic operations on pre-registered
//     instruments. The search path's zero-alloc contract (see
//     BenchmarkServerSearch and the AllocsPerRun assertions) covers the
//     instrumentation riding on it.
//   - Labels are fixed at registration: an instrument is one (name, label
//     set) series, registered once and held by pointer, so recording a
//     sample is a pointer deref — never a per-request map lookup or label
//     rendering. Dynamic label values (per-user, per-query) are deliberately
//     unsupported; they are a cardinality bomb anyway.
//   - Scrape-time work (locking, sorting, formatting) is unbounded-ly
//     boring: WritePrometheus renders the whole registry under one mutex in
//     deterministic order, which keeps golden tests and diff-based alerting
//     stable.
//
// Nil instruments are valid no-ops: a *Counter that was never registered
// (metrics disabled) accepts Inc/Add/Observe calls and does nothing, so
// instrumented code needs no "is metrics on" branches.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64. The zero value is ready to
// use; a nil Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket histogram. Each Observe increments exactly one
// bucket counter (buckets are stored non-cumulative; the writer accumulates
// for the exposition format), the total count, and a CAS-maintained float
// sum — all atomics, no locks, no allocation. Buckets are fixed at
// registration; there is no adaptive resizing to contend over.
type Histogram struct {
	upper  []float64       // sorted upper bounds, +Inf excluded
	counts []atomic.Uint64 // len(upper)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one sample. A nil Histogram is a no-op.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists are small (≤ ~20) and the branch pattern is
	// far more predictable than a binary search.
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the elapsed time since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Common bucket presets. Registrations copy the slice, so presets are safe
// to share between instruments.
var (
	// LatencyBuckets spans 10µs to 10s — microsecond searches through
	// multi-second checkpoints on one scale.
	LatencyBuckets = []float64{
		10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
		1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3,
		0.1, 0.25, 0.5, 1, 2.5, 10,
	}
	// CountBuckets covers small cardinalities: batch-search item counts and
	// records per WAL fsync.
	CountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
)

// series is one (label set, instrument) pair within a family. Exactly one
// of c, h, fn is set.
type series struct {
	labels string // rendered `k="v",k2="v2"` (no braces), "" for unlabelled
	c      *Counter
	h      *Histogram
	fn     func() float64
}

// family groups every series sharing one metric name (one # HELP/# TYPE
// block in the exposition).
type family struct {
	name, help, typ string
	series          []*series
	byLabels        map[string]*series
}

// Registry holds registered instruments and renders them in the Prometheus
// text exposition format. Registration takes a mutex; recording does not.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// Counter registers (or returns the existing) counter series for name and
// the given label pairs ("key", "value", ...). Panics on an invalid name,
// odd label pairs, or a name already registered with a different type.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.register(name, help, "counter", labels, func() *series { return &series{c: &Counter{}} })
	return s.c
}

// Histogram registers (or returns the existing) histogram series with the
// given bucket upper bounds (sorted ascending, +Inf implicit; the slice is
// copied). Panics if buckets are empty or unsorted.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	s := r.register(name, help, "histogram", labels, func() *series {
		if len(buckets) == 0 {
			panic("metrics: histogram " + name + " has no buckets")
		}
		upper := make([]float64, 0, len(buckets))
		for _, b := range buckets {
			if math.IsInf(b, +1) {
				continue // +Inf bucket is implicit
			}
			if len(upper) > 0 && b <= upper[len(upper)-1] {
				panic("metrics: histogram " + name + " buckets not sorted ascending")
			}
			upper = append(upper, b)
		}
		return &series{h: &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}}
	})
	return s.h
}

// GaugeFunc registers a gauge sampled by fn at scrape time. Re-registering
// the same (name, labels) replaces the callback — the idiom for components
// (a reopened WAL engine, a restarted server) that outlive one instance.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	s := r.register(name, help, "gauge", labels, func() *series { return &series{fn: fn} })
	if s.fn != nil {
		s.fn = fn
	}
}

// CounterFunc is GaugeFunc with counter semantics: fn must be monotonically
// non-decreasing (a mirrored internal counter, a generation number).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	s := r.register(name, help, "counter", labels, func() *series { return &series{fn: fn} })
	if s.fn != nil {
		s.fn = fn
	}
}

// register resolves one (name, labels) series, creating family and series on
// first sight. Duplicate registrations return the existing series (the
// make function is not called), so instruments are shared rather than
// double-counted; a type clash panics — that is a programming error.
func (r *Registry) register(name, help, typ string, labels []string, make func() *series) *series {
	mustValidName(name)
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, byLabels: map[string]*series{}}
		r.fams[name] = f
		r.order = append(r.order, f)
	}
	if f.typ != typ {
		panic("metrics: " + name + " registered as " + f.typ + ", now requested as " + typ)
	}
	if s := f.byLabels[ls]; s != nil {
		return s
	}
	s := make()
	s.labels = ls
	f.byLabels[ls] = s
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
	return s
}

// mustValidName enforces the Prometheus metric/label-name charset.
func mustValidName(name string) {
	if name == "" {
		panic("metrics: empty metric name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic("metrics: invalid metric name " + strconv.Quote(name))
		}
	}
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// renderLabels turns ("k","v","k2","v2") into `k="v",k2="v2"`, validating
// keys and escaping values. Rendering happens once, at registration.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("metrics: odd label key/value list")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		mustValidName(kv[i])
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// WritePrometheus renders every registered family in the text exposition
// format (version 0.0.4): families in registration order, series sorted by
// label set, histogram buckets cumulative with the trailing +Inf bucket,
// _sum and _count. Funcs are sampled while the registry lock is held — they
// must not re-enter the registry.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, f := range r.order {
		b.Reset()
		if f.help != "" {
			b.WriteString("# HELP ")
			b.WriteString(f.name)
			b.WriteByte(' ')
			b.WriteString(helpEscaper.Replace(f.help))
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.typ)
		b.WriteByte('\n')
		for _, s := range f.series {
			switch {
			case s.h != nil:
				writeHistogram(&b, f.name, s)
			case s.c != nil:
				writeSample(&b, f.name, "", s.labels, strconv.FormatUint(s.c.Value(), 10))
			case s.fn != nil:
				writeSample(&b, f.name, "", s.labels, formatFloat(s.fn()))
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeSample emits one `name[suffix]{labels} value` line.
func writeSample(b *strings.Builder, name, suffix, labels, value string) {
	b.WriteString(name)
	b.WriteString(suffix)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// writeHistogram emits the cumulative _bucket series, _sum and _count.
func writeHistogram(b *strings.Builder, name string, s *series) {
	h := s.h
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.upper) {
			le = formatFloat(h.upper[i])
		}
		labels := `le="` + le + `"`
		if s.labels != "" {
			labels = s.labels + "," + labels
		}
		writeSample(b, name, "_bucket", labels, strconv.FormatUint(cum, 10))
	}
	writeSample(b, name, "_sum", s.labels, formatFloat(h.Sum()))
	writeSample(b, name, "_count", s.labels, strconv.FormatUint(h.count.Load(), 10))
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ContentType is the exposition format's content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// ValidateExposition checks that body parses as text exposition format:
// every line is a # HELP/# TYPE comment or a `name[{labels}] value`
// sample with a parseable float value. It returns the first malformed line.
// The server's scrape test (and the CI step running it) calls this so a
// formatting regression fails loudly rather than breaking scrapers.
func ValidateExposition(body string) error {
	seenType := map[string]bool{}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 3 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				return fmt.Errorf("line %d: malformed comment %q", ln+1, line)
			}
			if parts[1] == "TYPE" {
				if seenType[parts[2]] {
					return fmt.Errorf("line %d: duplicate TYPE for %q", ln+1, parts[2])
				}
				seenType[parts[2]] = true
			}
			continue
		}
		name, rest := line, ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if err := checkName(name); err != nil {
			return fmt.Errorf("line %d: %v in %q", ln+1, err, line)
		}
		if strings.HasPrefix(rest, "{") {
			end := labelSetEnd(rest)
			if end < 0 {
				return fmt.Errorf("line %d: unterminated label set in %q", ln+1, line)
			}
			rest = rest[end+1:]
		}
		val := strings.TrimSpace(rest)
		if val == "" {
			return fmt.Errorf("line %d: no value in %q", ln+1, line)
		}
		if val != "+Inf" && val != "-Inf" && val != "NaN" {
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				return fmt.Errorf("line %d: bad value %q in %q", ln+1, val, line)
			}
		}
	}
	return nil
}

// labelSetEnd returns the index of the '}' closing the label set opening at
// rest[0], or -1. Braces inside quoted label values (route="/v1/jobs/{id}")
// do not close the set, and \" inside a value does not end the quote.
func labelSetEnd(rest string) int {
	inQuote, escaped := false, false
	for i := 1; i < len(rest); i++ {
		switch c := rest[i]; {
		case escaped:
			escaped = false
		case inQuote && c == '\\':
			escaped = true
		case c == '"':
			inQuote = !inQuote
		case !inQuote && c == '}':
			return i
		}
	}
	return -1
}

func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("empty metric name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("invalid metric name %q", name)
		}
	}
	return nil
}
