// Package trace is STIR's distributed-tracing subsystem: context-propagated
// spans with W3C-style trace/span IDs that ride the same hop path as the
// X-Stir-Deadline-Ms budget — stamped as a `traceparent` header by the
// twitter and geocode clients, extracted by every daemon's middleware — so
// one logical request through the §III funnel (stir → twitterd → geocoded)
// reassembles into a single cross-process tree. The resilience layer
// annotates spans with attempt counts and backoff sleeps, the overload layer
// with queue wait and shed reasons, and storage with segment operations,
// which is exactly the per-request causality the aggregate /metrics series
// cannot carry.
//
// Sampling is deterministic head sampling: the decision is a pure function
// of the trace ID, so every hop of one trace agrees without coordination,
// and a seeded Tracer reproduces the same kept-trace set run after run —
// chaos runs stay replayable. Finished spans land in a bounded in-memory
// ring exported as JSONL at /debug/trace and fetched by `stir trace`.
//
// Everything is nil-safe and the unsampled path is allocation-free: a nil
// *Tracer or nil *Span no-ops, and an unsampled Root/Start returns the
// context unchanged with a nil span, so hot paths pay one context lookup
// and nothing else.
package trace

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stir/internal/obs"
)

// TraceID identifies one end-to-end request tree (16 bytes, hex on the wire).
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes, hex on the wire).
type SpanID [8]byte

const hexDigits = "0123456789abcdef"

func appendHex(dst []byte, b []byte) []byte {
	for _, c := range b {
		dst = append(dst, hexDigits[c>>4], hexDigits[c&0xf])
	}
	return dst
}

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return string(appendHex(make([]byte, 0, 32), t[:])) }

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return string(appendHex(make([]byte, 0, 16), s[:])) }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// DefaultRingSize is the finished-span ring capacity when Options leaves it 0.
const DefaultRingSize = 4096

// Options configures a Tracer.
type Options struct {
	// Service names this process in every span it emits.
	Service string
	// Sample is the head-sampling probability for new roots in [0,1]. The
	// decision is derived from the trace ID, so all hops of one trace agree;
	// 0 disables tracing entirely (and keeps the hot path allocation-free).
	Sample float64
	// RingSize bounds the finished-span ring (default DefaultRingSize).
	RingSize int
	// Seed fixes the trace/span ID stream (default 1), which with head
	// sampling makes the kept-trace set reproducible across runs.
	Seed int64
	// Metrics receives trace_spans_total and trace_spans_dropped_total (nil
	// means obs.Default; obs.Discard disables).
	Metrics *obs.Registry
}

// Tracer creates spans and collects the finished ones into a bounded ring.
// A nil *Tracer is a no-op. Safe for concurrent use.
type Tracer struct {
	service   string
	threshold uint64 // sample iff hash(traceID) < threshold
	ring      *ring
	reg       *obs.Registry

	seed uint64
	ctr  atomic.Uint64

	mSpans   *obs.Counter
	mDropped *obs.Counter
}

// New builds a tracer. A Sample of 0 still builds one (its /debug/trace ring
// simply stays empty) so wiring never needs to special-case "tracing off".
func New(opts Options) *Tracer {
	if opts.RingSize <= 0 {
		opts.RingSize = DefaultRingSize
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	var threshold uint64
	switch {
	case opts.Sample >= 1:
		threshold = math.MaxUint64
	case opts.Sample <= 0:
		threshold = 0
	default:
		threshold = uint64(opts.Sample * float64(math.MaxUint64))
	}
	reg := obs.Or(opts.Metrics)
	return &Tracer{
		service:   opts.Service,
		threshold: threshold,
		ring:      newRing(opts.RingSize),
		reg:       reg,
		seed:      splitmix64(uint64(opts.Seed)),
		mSpans:    reg.Counter("trace_spans_total", "service", opts.Service),
		mDropped:  reg.Counter("trace_spans_dropped_total", "service", opts.Service),
	}
}

// Service returns the name this tracer stamps on its spans.
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return t.service
}

// splitmix64 is the SplitMix64 mixing function — a fast, well-distributed
// 64-bit permutation, plenty for ID generation and sampling hashes.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newIDs draws the next trace and span ID from the seeded stream.
func (t *Tracer) newIDs() (TraceID, SpanID) {
	n := t.ctr.Add(1)
	a := splitmix64(t.seed + n*0x9e3779b97f4a7c15)
	b := splitmix64(a ^ 0xd1b54a32d192ed03)
	c := splitmix64(b ^ 0x8cb92ba72f3d8dd7)
	var tr TraceID
	var sp SpanID
	putUint64(tr[:8], a)
	putUint64(tr[8:], b)
	putUint64(sp[:], c)
	return tr, sp
}

// newSpanID draws a span ID for a child within an existing trace.
func (t *Tracer) newSpanID() SpanID {
	n := t.ctr.Add(1)
	var sp SpanID
	putUint64(sp[:], splitmix64(t.seed^0xa0761d6478bd642f+n*0xe7037ed1a0b428db))
	return sp
}

func putUint64(b []byte, v uint64) {
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

func getUint64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

// Sampled reports the head-sampling decision for id: a pure function of the
// trace ID (rehashed so the decision is independent of the ID bits any other
// component might key on), identical at every hop.
func (t *Tracer) Sampled(id TraceID) bool {
	if t == nil {
		return false
	}
	return splitmix64(getUint64(id[8:])) < t.threshold
}

// StartRoot begins a new locally-originated trace, or returns nil when the
// freshly drawn trace ID falls outside the sample.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil || t.threshold == 0 {
		return nil
	}
	tr, sp := t.newIDs()
	if !t.Sampled(tr) {
		return nil
	}
	return &Span{tracer: t, trace: tr, id: sp, name: name, start: time.Now()}
}

// StartRemote continues a trace extracted from a carrier (traceparent): the
// upstream made the sampling decision, this hop only obeys it.
func (t *Tracer) StartRemote(trace TraceID, parent SpanID, name string) *Span {
	if t == nil || trace.IsZero() {
		return nil
	}
	return &Span{tracer: t, trace: trace, id: t.newSpanID(), parent: parent, name: name, start: time.Now()}
}

// Records snapshots the finished-span ring, oldest first.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	return t.ring.snapshot()
}

// ResetRing clears the finished-span ring (tests and long-lived processes
// that want a clean window).
func (t *Tracer) ResetRing() {
	if t != nil {
		t.ring.reset()
	}
}

// Annot is one key=value span annotation.
type Annot struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// Span is one timed operation within a trace. All methods are nil-safe; a
// Span is safe for concurrent annotation.
type Span struct {
	tracer *Tracer
	trace  TraceID
	id     SpanID
	parent SpanID
	name   string
	start  time.Time

	mu     sync.Mutex
	annots []Annot
	status int
	ended  bool
}

// TraceID returns the span's trace ID (zero for nil spans).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace
}

// ID returns the span's own ID (zero for nil spans).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Annotate attaches one key=value pair to the span.
func (s *Span) Annotate(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.annots = append(s.annots, Annot{Key: key, Val: val})
	}
	s.mu.Unlock()
}

// AnnotateInt attaches an integer-valued annotation.
func (s *Span) AnnotateInt(key string, v int64) {
	s.Annotate(key, strconv.FormatInt(v, 10))
}

// AnnotateDuration attaches a duration-valued annotation (compact form).
func (s *Span) AnnotateDuration(key string, d time.Duration) {
	s.Annotate(key, d.Round(time.Microsecond).String())
}

// SetStatus records the HTTP (or HTTP-shaped) status of the operation.
func (s *Span) SetStatus(code int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.status = code
	s.mu.Unlock()
}

// Child opens a sub-span under s within the same trace.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{tracer: s.tracer, trace: s.trace, id: s.tracer.newSpanID(), parent: s.id, name: name, start: time.Now()}
}

// End finishes the span and commits it to the tracer's ring. Ending twice is
// a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := Record{
		Trace:   s.trace.String(),
		Span:    s.id.String(),
		Service: s.tracer.service,
		Name:    s.name,
		Start:   s.start.UnixMicro(),
		Dur:     time.Since(s.start).Microseconds(),
		Status:  s.status,
		Annots:  s.annots,
	}
	s.annots = nil
	s.mu.Unlock()
	if !s.parent.IsZero() {
		rec.Parent = s.parent.String()
	}
	s.tracer.mSpans.Inc()
	if evicted := s.tracer.ring.push(rec); evicted {
		s.tracer.mDropped.Inc()
	}
}

// Record is one finished span as exported at /debug/trace (JSONL) and
// consumed by `stir trace`.
type Record struct {
	Trace   string  `json:"trace"`
	Span    string  `json:"span"`
	Parent  string  `json:"parent,omitempty"`
	Service string  `json:"service"`
	Name    string  `json:"name"`
	Start   int64   `json:"start_us"` // Unix microseconds
	Dur     int64   `json:"dur_us"`
	Status  int     `json:"status,omitempty"`
	Annots  []Annot `json:"annots,omitempty"`
}
