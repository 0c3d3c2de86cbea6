// Package obs is STIR's dependency-free observability layer: atomic
// counters, gauges and fixed-bucket histograms collected in a named,
// label-aware Registry, with Prometheus-text and JSON exposition. The
// paper's pipeline lives or dies on its attrition funnel and on API pain
// points (rate limits, geocode throttling); this package turns those from
// scattered log lines into first-class, scrapeable series.
//
// Everything is nil-safe: methods on a nil *Counter, *Gauge or *Histogram
// are no-ops, and a nil *Registry resolves to the process-wide Default, so
// zero-config callers pay a couple of atomic operations and nothing else.
// Pass Discard to switch instrumentation off entirely (its constructors
// hand back typed nils).
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an arbitrary float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefBuckets are latency-shaped histogram bounds (seconds), from 1 ms to 10 s.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// StageHistogram is the histogram stage durations land in, one observation
// per stage run under a stage label ("pipeline.users", "stream_snapshot").
// Call sites observe it directly; span trees live in package obs/trace.
const StageHistogram = "stir_stage_seconds"

// SizeBuckets are count-shaped bounds for batch sizes and similar.
var SizeBuckets = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000}

// Histogram counts observations into fixed upper-bound buckets (plus an
// implicit +Inf bucket) and tracks the running sum. Each bucket additionally
// keeps the last sampled-trace exemplar that landed in it, linking latency
// tails back to concrete traces.
type Histogram struct {
	bounds    []float64
	counts    []atomic.Int64 // len(bounds)+1; last is +Inf
	exemplars []atomic.Pointer[Exemplar]
	sum       atomic.Uint64 // float64 bits, CAS-updated
	n         atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{
		bounds:    b,
		counts:    make([]atomic.Int64, len(b)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound admits v; falls through to +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveWithExemplar records v and, when traceID is non-empty, pins it as
// the bucket's exemplar so the exposition can point at a sampled trace that
// actually hit that latency band.
func (h *Histogram) ObserveWithExemplar(v float64, traceID string, ts time.Time) {
	if h == nil {
		return
	}
	if traceID != "" {
		i := sort.SearchFloat64s(h.bounds, v)
		h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID, TS: ts.UnixMicro()})
	}
	h.Observe(v)
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Bucket is one cumulative histogram bucket in a snapshot. Exemplar, when
// present, is the last sampled trace that landed in this band; it appears in
// the JSON exposition only (the Prometheus 0.0.4 text format predates
// exemplars, and the OpenMetrics `#`-suffix would break its parsers).
type Bucket struct {
	UpperBound float64   `json:"-"` // +Inf for the last bucket
	Count      int64     `json:"count"`
	Exemplar   *Exemplar `json:"exemplar,omitempty"`
}

// MarshalJSON renders the upper bound as a string because encoding/json
// rejects +Inf, which every histogram's last bucket carries.
func (b Bucket) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.UpperBound, 1) {
		le = strconv.FormatFloat(b.UpperBound, 'g', -1, 64)
	}
	return json.Marshal(struct {
		LE       string    `json:"le"`
		Count    int64     `json:"count"`
		Exemplar *Exemplar `json:"exemplar,omitempty"`
	}{le, b.Count, b.Exemplar})
}

// metric kinds.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// entry is one registered series.
type entry struct {
	name   string
	labels []string // flattened k,v pairs, in registration order
	kind   string
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	fn     func() float64 // pull-mode gauge; read at snapshot time
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry, or pass nil wherever a *Registry is accepted to use Default.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
	discard bool
}

// Default is the process-wide registry zero-config callers land in.
var Default = NewRegistry()

// Discard is a registry whose constructors return typed nil metrics, turning
// all instrumentation into no-ops. Benchmarks use it to measure bare paths.
var Discard = &Registry{discard: true}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// or resolves the nil-means-Default convention.
func (r *Registry) or() *Registry {
	if r == nil {
		return Default
	}
	return r
}

// Or returns r, or Default when r is nil. Components with an optional
// *Registry field use it to resolve their target once.
func Or(r *Registry) *Registry { return r.or() }

// seriesKey builds the identity of name+labels. Label pairs are sorted so
// registration order does not split series.
func seriesKey(name string, kv []string) string {
	if len(kv) == 0 {
		return name
	}
	pairs := make([]string, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, kv[i]+"\x00"+kv[i+1])
	}
	sort.Strings(pairs)
	return name + "\x01" + strings.Join(pairs, "\x02")
}

// lookup finds or creates the entry for name+kv, enforcing kind consistency.
func (r *Registry) lookup(name, kind string, kv []string, mk func() *entry) *entry {
	key := seriesKey(name, kv)
	r.mu.RLock()
	e, ok := r.entries[key]
	r.mu.RUnlock()
	if ok && e.kind == kind {
		return e
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok = r.entries[key]; ok && e.kind == kind {
		return e
	}
	e = mk()
	e.name, e.kind = name, kind
	e.labels = append([]string(nil), kv...)
	r.entries[key] = e
	return e
}

// Counter returns the counter registered under name and label pairs,
// creating it on first use. kv is alternating key, value strings.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	r = r.or()
	if r.discard {
		return nil
	}
	return r.lookup(name, KindCounter, kv, func() *entry { return &entry{ctr: &Counter{}} }).ctr
}

// Gauge returns the gauge registered under name and label pairs.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	r = r.or()
	if r.discard {
		return nil
	}
	return r.lookup(name, KindGauge, kv, func() *entry { return &entry{gauge: &Gauge{}} }).gauge
}

// Histogram returns the histogram registered under name and label pairs.
// bounds applies only on first registration; nil means DefBuckets.
func (r *Registry) Histogram(name string, bounds []float64, kv ...string) *Histogram {
	r = r.or()
	if r.discard {
		return nil
	}
	return r.lookup(name, KindHistogram, kv, func() *entry { return &entry{hist: newHistogram(bounds)} }).hist
}

// GaugeFunc registers (or replaces) a pull-mode gauge whose value is read by
// calling fn at snapshot time. Replacement makes re-registration after a
// component rebuild idempotent.
func (r *Registry) GaugeFunc(name string, fn func() float64, kv ...string) {
	r.registerFunc(name, KindGauge, fn, kv)
}

// CounterFunc is GaugeFunc for a count kept elsewhere that only grows: the
// series is exposed with kind counter.
func (r *Registry) CounterFunc(name string, fn func() float64, kv ...string) {
	r.registerFunc(name, KindCounter, fn, kv)
}

func (r *Registry) registerFunc(name, kind string, fn func() float64, kv []string) {
	r = r.or()
	if r.discard || fn == nil {
		return
	}
	key := seriesKey(name, kv)
	r.mu.Lock()
	r.entries[key] = &entry{
		name: name, kind: kind, labels: append([]string(nil), kv...), fn: fn,
	}
	r.mu.Unlock()
}

// Metric is one series in a snapshot.
type Metric struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value is the counter or gauge reading (0 for histograms).
	Value float64 `json:"value"`
	// Histogram-only fields.
	Buckets []Bucket `json:"buckets,omitempty"`
	Count   int64    `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
}

// labelString renders {k="v",...} for display and Prometheus exposition.
func (m Metric) labelString() string {
	if len(m.Labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m.Labels))
	for k := range m.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, m.Labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Snapshot is a point-in-time copy of every series in a registry.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Get returns the first metric matching name and the given label pairs, and
// whether one was found.
func (s Snapshot) Get(name string, kv ...string) (Metric, bool) {
outer:
	for _, m := range s.Metrics {
		if m.Name != name {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if m.Labels[kv[i]] != kv[i+1] {
				continue outer
			}
		}
		return m, true
	}
	return Metric{}, false
}

// Snapshot copies all series, evaluating pull-mode gauges. Output is sorted
// by name then labels, so expositions are deterministic.
func (r *Registry) Snapshot() Snapshot {
	r = r.or()
	r.mu.RLock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()

	ms := make([]Metric, 0, len(entries))
	for _, e := range entries {
		m := Metric{Name: e.name, Kind: e.kind}
		if len(e.labels) > 0 {
			m.Labels = make(map[string]string, len(e.labels)/2)
			for i := 0; i+1 < len(e.labels); i += 2 {
				m.Labels[e.labels[i]] = e.labels[i+1]
			}
		}
		switch {
		case e.ctr != nil:
			m.Value = float64(e.ctr.Value())
		case e.gauge != nil:
			m.Value = e.gauge.Value()
		case e.fn != nil:
			m.Value = e.fn()
		case e.hist != nil:
			m.Count = e.hist.Count()
			m.Sum = e.hist.Sum()
			m.Buckets = make([]Bucket, 0, len(e.hist.bounds)+1)
			cum := int64(0)
			for i, ub := range e.hist.bounds {
				cum += e.hist.counts[i].Load()
				m.Buckets = append(m.Buckets, Bucket{UpperBound: ub, Count: cum, Exemplar: e.hist.exemplars[i].Load()})
			}
			cum += e.hist.counts[len(e.hist.bounds)].Load()
			m.Buckets = append(m.Buckets, Bucket{UpperBound: math.Inf(1), Count: cum, Exemplar: e.hist.exemplars[len(e.hist.bounds)].Load()})
		}
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Name != ms[j].Name {
			return ms[i].Name < ms[j].Name
		}
		return ms[i].labelString() < ms[j].labelString()
	})
	return Snapshot{Metrics: ms}
}
