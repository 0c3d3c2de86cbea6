package geocode

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stir/internal/admin"
	"stir/internal/geo"
	"stir/internal/obs"
)

// TestStatsProviderUnified locks in the satellite requirement: every
// cache-bearing geocode component answers Stats() with the one CacheStats
// shape, through the one StatsProvider interface.
func TestStatsProviderUnified(t *testing.T) {
	gaz, err := admin.NewKoreaGazetteer()
	if err != nil {
		t.Fatal(err)
	}
	dr := NewGazetteerResolver(gaz, 10, 8)
	seoul := geo.Point{Lat: 37.5665, Lon: 126.978}
	ctx := context.Background()
	if _, err := dr.Reverse(ctx, seoul); err != nil {
		t.Fatal(err)
	}
	if _, err := dr.Reverse(ctx, seoul); err != nil {
		t.Fatal(err)
	}

	providers := map[string]StatsProvider{
		"direct": dr,
		"client": NewClient("http://invalid", 4),
	}
	for name, p := range providers {
		st := p.Stats() // same shape for both
		if st.Hits < 0 || st.Misses < 0 || st.Evictions < 0 || st.Entries < 0 {
			t.Errorf("%s: negative stats %+v", name, st)
		}
	}
	if st := dr.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("direct resolver stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestCacheEvictionCounter(t *testing.T) {
	c := newLRUCache[string, Location](2)
	c.Put("a", Location{})
	c.Put("b", Location{})
	c.Put("c", Location{}) // evicts a
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 entries", st)
	}
}

func TestRegisterCacheMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c := newLRUCache[string, Location](4)
	c.Put("k", Location{})
	c.Get("k")
	c.Get("missing")
	RegisterCacheMetrics(reg, "test", statsFunc(c.Stats))

	snap := reg.Snapshot()
	want := map[string]float64{
		"geocode_cache_hits":    1,
		"geocode_cache_misses":  1,
		"geocode_cache_entries": 1,
	}
	for name, v := range want {
		m, ok := snap.Get(name, "cache", "test")
		if !ok || m.Value != v {
			t.Errorf("%s = %+v ok=%v, want %v", name, m, ok, v)
		}
	}
}

// statsFunc adapts a plain func to StatsProvider for tests.
type statsFunc func() CacheStats

func (f statsFunc) Stats() CacheStats { return f() }

// TestServerMetrics drives the server over HTTP and checks that the
// /metrics-bound registry sees request counters, that a 429 carries the
// full rate-limit header set, and that the server exports no cache series.
func TestServerMetrics(t *testing.T) {
	gaz, err := admin.NewKoreaGazetteer()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv := NewServer(gaz, ServerOptions{Limit: 3, Metrics: reg})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func() *http.Response {
		resp, err := http.Get(ts.URL + "/v1/reverse?lat=37.5665&lon=126.9780")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	get()
	get()
	get() // the third request exhausts the 3-token budget
	resp := get()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	for _, h := range []string{"X-RateLimit-Limit", "X-RateLimit-Remaining", "X-RateLimit-Reset", "Retry-After"} {
		if resp.Header.Get(h) == "" {
			t.Errorf("429 missing %s header", h)
		}
	}
	if got := resp.Header.Get("X-RateLimit-Remaining"); got != "0" {
		t.Errorf("X-RateLimit-Remaining = %q, want 0", got)
	}

	snap := reg.Snapshot()
	if m, ok := snap.Get(obs.HTTPRequestsMetric, "service", "geocoded", "route", "/v1/reverse", "class", "2xx"); !ok || m.Value != 3 {
		t.Errorf("request counter = %+v ok=%v, want 3", m, ok)
	}
	if m, ok := snap.Get(obs.HTTPRateLimitedMetric, "service", "geocoded", "route", "/v1/reverse"); !ok || m.Value != 1 {
		t.Errorf("ratelimited counter = %+v ok=%v, want 1", m, ok)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "geocode_cache_") {
		t.Fatalf("server exports cache series:\n%s", b.String())
	}
}
