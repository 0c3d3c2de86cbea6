package geocode

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stir/internal/admin"
	"stir/internal/geo"
)

// TestServerFastMatchesExact pins the geocoded fast path: a Fast server and
// an exact server answer byte-identical XML (quality attribute included) on
// a sweep covering constant, single-check, boundary and no-match cells.
func TestServerFastMatchesExact(t *testing.T) {
	gaz, err := admin.NewKoreaGazetteer()
	if err != nil {
		t.Fatal(err)
	}
	exact := httptest.NewServer(NewServer(gaz, ServerOptions{}))
	t.Cleanup(exact.Close)
	fast := httptest.NewServer(NewServer(gaz, ServerOptions{Fast: true}))
	t.Cleanup(fast.Close)

	fetch := func(base string, lat, lon float64) string {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/v1/reverse?lat=%v&lon=%v", base, lat, lon))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	rng := rand.New(rand.NewSource(23))
	type probe struct{ lat, lon float64 }
	probes := []probe{
		{37.5665, 126.9780}, // Seoul (constant)
		{37.5, 131.9},       // open sea within extent margin
		{38.61, 128.36},     // coast north-east
	}
	for i := 0; i < 400; i++ {
		probes = append(probes, probe{33 + rng.Float64()*6.5, 124.5 + rng.Float64()*7})
	}
	// Seoul seam band: the densest boundary cells.
	for i := 0; i < 200; i++ {
		probes = append(probes, probe{37.4 + rng.Float64()*0.3, 126.8 + rng.Float64()*0.3})
	}
	for _, p := range probes {
		if e, f := fetch(exact.URL, p.lat, p.lon), fetch(fast.URL, p.lat, p.lon); e != f {
			t.Fatalf("point (%v, %v):\nexact: %s\nfast:  %s", p.lat, p.lon, e, f)
		}
	}
}

// TestBatchReverseDedupSendsUniquePoints is the satellite regression: a
// batch of quantised-identical points must reach the wire as a single line,
// and every original index still gets its answer.
func TestBatchReverseDedupSendsUniquePoints(t *testing.T) {
	gaz, err := admin.NewKoreaGazetteer()
	if err != nil {
		t.Fatal(err)
	}
	inner := NewServer(gaz, ServerOptions{})
	var batchLines, batchCalls int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/reverse_batch") {
			raw, err := io.ReadAll(r.Body)
			if err != nil {
				t.Errorf("read batch body: %v", err)
			}
			r.Body = io.NopCloser(bytes.NewReader(raw))
			batchCalls++
			batchLines += len(strings.Split(strings.TrimSpace(string(raw)), "\n"))
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, 1024)

	// 64 copies of one Seoul coordinate with jitter below the quantisation
	// step, plus one distinct Busan point and one no-match point.
	pts := make([]geo.Point, 0, 66)
	for i := 0; i < 64; i++ {
		pts = append(pts, geo.Point{Lat: 37.5665 + float64(i)*1e-6, Lon: 126.9780})
	}
	pts = append(pts, geo.Point{Lat: 35.1796, Lon: 129.0756})
	pts = append(pts, geo.Point{Lat: 37.5, Lon: 131.9}) // open sea: no match
	locs, oks, err := c.BatchReverse(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if batchCalls != 1 {
		t.Fatalf("batch calls = %d, want 1", batchCalls)
	}
	if batchLines != 3 {
		t.Fatalf("server saw %d batch lines, want 3 (64 duplicates deduplicated)", batchLines)
	}
	for i := 0; i < 64; i++ {
		if !oks[i] || locs[i].County != locs[0].County || locs[i] != locs[0] {
			t.Fatalf("duplicate %d: ok=%v loc=%+v, want the shared Seoul answer", i, oks[i], locs[i])
		}
	}
	if !oks[64] || locs[64].State == locs[0].State {
		t.Fatalf("distinct point: ok=%v loc=%+v", oks[64], locs[64])
	}
	if oks[65] {
		t.Fatalf("sea point resolved: %+v", locs[65])
	}

	// A second identical batch must be served entirely from the cache.
	calls := batchCalls
	if _, _, err := c.BatchReverse(context.Background(), pts[:64]); err != nil {
		t.Fatal(err)
	}
	if batchCalls != calls {
		t.Fatalf("cached batch still hit the wire (%d calls)", batchCalls)
	}
}
