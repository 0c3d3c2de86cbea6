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
		if e, f := getReverse(t, exact.URL, p.lat, p.lon), getReverse(t, fast.URL, p.lat, p.lon); e != f {
			t.Fatalf("point (%v, %v):\nexact: %s\nfast:  %s", p.lat, p.lon, e, f)
		}
	}
}

// getReverse fetches /v1/reverse for one point; %v sends the shortest
// decimal that parses back to the same float64.
func getReverse(t *testing.T, base string, lat, lon float64) string {
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

// straddle finds two points 1e-7° of latitude apart that the gazetteer puts
// in different districts yet that print alike at six decimals: it bisects
// north from Seoul for a district edge, on the first meridian where the
// pair lands inside one printed micro-degree.
func straddle(t *testing.T, gaz *admin.Gazetteer) (p1, p2 geo.Point) {
	t.Helper()
	county := func(lat, lon float64) string {
		d, err := gaz.ResolvePoint(geo.Point{Lat: lat, Lon: lon}, -1)
		if err != nil {
			return ""
		}
		return d.State + "/" + d.County
	}
	for i := 0; i < 200; i++ {
		lon := 126.9 + float64(i)*0.001
		lo, hi := 37.55, 37.75
		if county(lo, lon) == county(hi, lon) {
			continue
		}
		for j := 0; j < 60; j++ {
			if mid := (lo + hi) / 2; county(mid, lon) == county(lo, lon) {
				lo = mid
			} else {
				hi = mid
			}
		}
		p1 = geo.Point{Lat: hi - 0.5e-7, Lon: lon}
		p2 = geo.Point{Lat: hi + 0.5e-7, Lon: lon}
		if p1.String() == p2.String() && county(p1.Lat, lon) != county(p2.Lat, lon) {
			return p1, p2
		}
	}
	t.Fatal("no district edge found north of Seoul")
	return
}

// TestServerMemoKeysExactPoint: the resolution memo keys the point it was
// asked, not its six-decimal text, so two points that print alike but lie
// on either side of a district edge each get their own answer — byte for
// byte what a server without a memo says.
func TestServerMemoKeysExactPoint(t *testing.T) {
	gaz, err := admin.NewKoreaGazetteer()
	if err != nil {
		t.Fatal(err)
	}
	memo := httptest.NewServer(NewServer(gaz, ServerOptions{}))
	t.Cleanup(memo.Close)
	bare := httptest.NewServer(NewServer(gaz, ServerOptions{CacheSize: -1}))
	t.Cleanup(bare.Close)
	p1, p2 := straddle(t, gaz)
	for _, p := range []geo.Point{p1, p2} {
		if m, b := getReverse(t, memo.URL, p.Lat, p.Lon), getReverse(t, bare.URL, p.Lat, p.Lon); m != b {
			t.Fatalf("point (%v, %v):\nmemo: %s\nbare: %s", p.Lat, p.Lon, m, b)
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
