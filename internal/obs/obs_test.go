package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "kind", "crawl")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels resolves to the same series regardless of pair order.
	r.Counter("jobs_total", "kind", "crawl").Inc()
	if got := c.Value(); got != 6 {
		t.Fatalf("counter after re-lookup = %d, want 6", got)
	}

	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-2.5)
	if got := g.Value(); got != 7.5 {
		t.Fatalf("gauge = %v, want 7.5", got)
	}
}

func TestLabelOrderIrrelevant(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "a", "1", "b", "2").Add(3)
	if got := r.Counter("m", "b", "2", "a", "1").Value(); got != 3 {
		t.Fatalf("label order split the series: got %d", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-102.65) > 1e-9 {
		t.Fatalf("sum = %v, want 102.65", h.Sum())
	}
	m, ok := r.Snapshot().Get("latency")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	// Cumulative: le=0.1 → 2 (0.05 and the boundary value 0.1), le=1 → 3,
	// le=10 → 4, +Inf → 5.
	wantCum := []int64{2, 3, 4, 5}
	if len(m.Buckets) != len(wantCum) {
		t.Fatalf("bucket count = %d, want %d", len(m.Buckets), len(wantCum))
	}
	for i, want := range wantCum {
		if m.Buckets[i].Count != want {
			t.Errorf("bucket[%d] = %d, want %d", i, m.Buckets[i].Count, want)
		}
	}
	if !math.IsInf(m.Buckets[len(m.Buckets)-1].UpperBound, 1) {
		t.Error("last bucket bound is not +Inf")
	}
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil metrics must read zero")
	}
}

func TestDiscardRegistry(t *testing.T) {
	if c := Discard.Counter("x"); c != nil {
		t.Fatal("discard registry must hand back nil counters")
	}
	if g := Discard.Gauge("x"); g != nil {
		t.Fatal("discard registry must hand back nil gauges")
	}
	if h := Discard.Histogram("x", nil); h != nil {
		t.Fatal("discard registry must hand back nil histograms")
	}
	Discard.GaugeFunc("x", func() float64 { return 1 })
	if n := len(Discard.Snapshot().Metrics); n != 0 {
		t.Fatalf("discard registry recorded %d series", n)
	}
}

func TestNilRegistryResolvesToDefault(t *testing.T) {
	var r *Registry
	r.Counter("obs_test_nil_default_total").Inc()
	m, ok := Default.Snapshot().Get("obs_test_nil_default_total")
	if !ok || m.Value < 1 {
		t.Fatalf("nil registry did not land in Default: %+v ok=%v", m, ok)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.GaugeFunc("pull", func() float64 { return v }, "cache", "a")
	v = 42
	m, ok := r.Snapshot().Get("pull", "cache", "a")
	if !ok || m.Value != 42 {
		t.Fatalf("gauge func = %+v ok=%v, want 42", m, ok)
	}
	// Re-registration replaces, never duplicates.
	r.GaugeFunc("pull", func() float64 { return 7 }, "cache", "a")
	snap := r.Snapshot()
	if len(snap.Metrics) != 1 || snap.Metrics[0].Value != 7 {
		t.Fatalf("replacement failed: %+v", snap.Metrics)
	}
}

func TestCounterFunc(t *testing.T) {
	r := NewRegistry()
	var n int64 = 3
	r.CounterFunc("pulled_total", func() float64 { return float64(n) }, "shard", "0")
	n = 5
	m, ok := r.Snapshot().Get("pulled_total", "shard", "0")
	if !ok || m.Kind != KindCounter || m.Value != 5 {
		t.Fatalf("counter func = %+v ok=%v, want a counter reading 5", m, ok)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# TYPE pulled_total counter\npulled_total{shard=\"0\"} 5\n") {
		t.Fatalf("exposition:\n%s", b.String())
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", "route", "/a", "class", "2xx").Add(3)
	r.Gauge("queue_depth").Set(7)
	r.Histogram("lat", []float64{1}).Observe(0.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE requests_total counter",
		`requests_total{class="2xx",route="/a"} 3`,
		"# TYPE queue_depth gauge",
		"queue_depth 7",
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="+Inf"} 1`,
		"lat_sum 0.5",
		"lat_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestJSONExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Inc()
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"a_total"`) {
		t.Fatalf("json exposition missing metric: %s", b.String())
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c_total", "w", "x").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", nil).Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "w", "x").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 8000 {
		t.Fatalf("concurrent histogram count = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 8000 {
		t.Fatalf("concurrent gauge = %v, want 8000", got)
	}
}

// TestWriteJSONWithHistogram guards the +Inf bucket: encoding/json rejects
// infinite floats, so the last bucket's bound must serialise as a string.
func TestWriteJSONWithHistogram(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("h_seconds", DefBuckets).Observe(0.2)
	reg.Counter("c_total").Inc()
	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(b.String()), &snap); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(snap.Metrics) != 2 {
		t.Fatalf("round-tripped %d metrics, want 2", len(snap.Metrics))
	}
	if !strings.Contains(b.String(), `"le": "+Inf"`) {
		t.Fatalf("JSON missing +Inf bucket:\n%s", b.String())
	}
}
