package geocode

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stir/internal/admin"
	"stir/internal/geo"
	"stir/internal/obs"
)

// twoCallQuality is the reference quality rule: "exact" if
// ResolvePoint(p, -1) finds a district, else "nearest" if
// ResolvePoint(p, slackKm) does, else "none".
func twoCallQuality(gaz *admin.Gazetteer, p geo.Point, slackKm float64) Result {
	if d, err := gaz.ResolvePoint(p, -1); err == nil {
		return Result{Quality: "exact", Location: locationOf(d)}
	}
	if slackKm >= 0 {
		if d, err := gaz.ResolvePoint(p, slackKm); err == nil {
			return Result{Quality: "nearest", Location: locationOf(d)}
		}
	}
	return Result{Quality: "none"}
}

// TestServerQualityMatchesTwoCallRule: the server's one walk per point
// gives the two-call rule's answer, quality included, on seeded points over
// and past the extent, every district's box corners and circular edge, the
// Seoul seam band and lattice, far misses and NaN, at every slack setting.
func TestServerQualityMatchesTwoCallRule(t *testing.T) {
	gaz, err := admin.NewKoreaGazetteer()
	if err != nil {
		t.Fatal(err)
	}
	ext := gaz.Bounds()
	dLat, dLon := ext.MaxLat-ext.MinLat, ext.MaxLon-ext.MinLon
	rng := rand.New(rand.NewSource(23))
	pts := []geo.Point{
		{Lat: 37.5665, Lon: 126.9780}, {Lat: 37.5, Lon: 131.9}, {Lat: 38.61, Lon: 128.36},
		{Lat: ext.MinLat, Lon: ext.MinLon}, {Lat: ext.MaxLat, Lon: ext.MaxLon},
		{Lat: 0, Lon: -150}, {Lat: -89, Lon: 10}, {Lat: math.NaN(), Lon: 127},
	}
	for i := 0; i < 2000; i++ {
		pts = append(pts,
			geo.Point{Lat: ext.MinLat - 0.1*dLat + rng.Float64()*1.2*dLat, Lon: ext.MinLon - 0.1*dLon + rng.Float64()*1.2*dLon},
			geo.Point{Lat: 37.4 + rng.Float64()*0.3, Lon: 126.8 + rng.Float64()*0.3})
	}
	for _, d := range gaz.Districts() {
		b := d.Bounds()
		pts = append(pts, geo.Point{Lat: b.MinLat, Lon: b.MinLon}, geo.Point{Lat: b.MaxLat, Lon: b.MaxLon})
		for bearing := 0.0; bearing < 360; bearing += 90 {
			pts = append(pts, d.Center.Destination(bearing, d.RadiusKm), d.Center.Destination(bearing, d.RadiusKm+5))
		}
	}
	for lat := 37.45; lat <= 37.65; lat += 0.002 {
		for lon := 126.85; lon <= 127.05; lon += 0.002 {
			pts = append(pts, geo.Point{Lat: lat, Lon: lon})
		}
	}
	for _, slack := range []float64{10, 2, -1} {
		srv := NewServer(gaz, ServerOptions{SlackKm: slack, Metrics: obs.Discard})
		for _, p := range pts {
			if got, want := srv.resolve(p), twoCallQuality(gaz, p, slack); got != want {
				t.Fatalf("slack %v, point %v: one walk %+v, two calls %+v", slack, p, got, want)
			}
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

// TestServerAnswersExactPoint: the server resolves the point it was asked,
// not its six-decimal text, so two points that print alike but lie on
// either side of a district edge each get their own answer.
func TestServerAnswersExactPoint(t *testing.T) {
	gaz, err := admin.NewKoreaGazetteer()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(gaz, ServerOptions{Metrics: obs.Discard}))
	t.Cleanup(srv.Close)
	p1, p2 := straddle(t, gaz)
	for _, p := range []geo.Point{p1, p2} {
		rs, err := UnmarshalResultSet([]byte(getReverse(t, srv.URL, p.Lat, p.Lon)))
		if err != nil {
			t.Fatal(err)
		}
		if want := twoCallQuality(gaz, p, 10); len(rs.Results) != 1 || rs.Results[0] != want {
			t.Fatalf("point (%v, %v): %+v, want %+v", p.Lat, p.Lon, rs.Results, want)
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
