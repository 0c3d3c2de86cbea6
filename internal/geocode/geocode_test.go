package geocode

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stir/internal/admin"
	"stir/internal/geo"
)

func startGeocode(t *testing.T, opts ServerOptions) (*httptest.Server, *Client) {
	t.Helper()
	gaz, err := admin.NewKoreaGazetteer()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(gaz, opts))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, 1024)
	c.Retry.MaxDelay = 100 * time.Millisecond
	c.Retry.MaxAttempts = 31
	return srv, c
}

func TestXMLRoundTrip(t *testing.T) {
	rs := &ResultSet{
		Error: CodeOK,
		Results: []Result{{
			Quality:  "exact",
			Location: Location{Country: "KR", State: "Seoul", County: "Yangcheon-gu", Town: ""},
		}},
	}
	b, err := rs.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "<county>Yangcheon-gu</county>") {
		t.Fatalf("xml missing county element:\n%s", b)
	}
	if !strings.HasPrefix(string(b), "<?xml") {
		t.Fatal("xml header missing")
	}
	rs2, err := UnmarshalResultSet(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs2.Results) != 1 || rs2.Results[0].Location != rs.Results[0].Location {
		t.Fatalf("roundtrip = %+v", rs2)
	}
	if _, err := UnmarshalResultSet([]byte("<bad")); err == nil {
		t.Fatal("bad xml accepted")
	}
}

func TestReverseKnownPoint(t *testing.T) {
	_, c := startGeocode(t, ServerOptions{})
	loc, err := c.Reverse(context.Background(), geo.Point{Lat: 37.517, Lon: 126.866})
	if err != nil {
		t.Fatal(err)
	}
	if loc.State != "Seoul" || loc.County != "Yangcheon-gu" {
		t.Fatalf("loc = %+v, want Seoul/Yangcheon-gu", loc)
	}
}

func TestReverseNoMatch(t *testing.T) {
	_, c := startGeocode(t, ServerOptions{SlackKm: 5})
	_, err := c.Reverse(context.Background(), geo.Point{Lat: 37.5, Lon: 131.9}) // open sea
	if !errors.Is(err, ErrNoMatch) {
		t.Fatalf("err = %v, want ErrNoMatch", err)
	}
}

func TestReverseBadRequest(t *testing.T) {
	srv, _ := startGeocode(t, ServerOptions{})
	for _, q := range []string{"", "lat=abc&lon=1", "lat=1", "lat=95&lon=0"} {
		resp, err := http.Get(srv.URL + "/v1/reverse?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestClientCaching(t *testing.T) {
	var served int
	gaz, err := admin.NewKoreaGazetteer()
	if err != nil {
		t.Fatal(err)
	}
	inner := NewServer(gaz, ServerOptions{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served++
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, 64)

	p := geo.Point{Lat: 37.5172, Lon: 126.8664}
	for i := 0; i < 10; i++ {
		// Jitter below the quantisation step: all ten hit one cache slot.
		jp := geo.Point{Lat: p.Lat + float64(i)*1e-5, Lon: p.Lon}
		if _, err := c.Reverse(context.Background(), jp); err != nil {
			t.Fatal(err)
		}
	}
	if served > 2 {
		t.Fatalf("server saw %d requests, cache should have absorbed most", served)
	}
	st := c.Stats()
	if st.Hits < 8 {
		t.Fatalf("cache stats = %+v", st)
	}
}

func TestClientRateLimitRecovery(t *testing.T) {
	_, c := startGeocode(t, ServerOptions{Limit: 3, Window: 150 * time.Millisecond})
	c.QuantizeDecimals = -1 // defeat the cache so every call hits the server
	for i := 0; i < 10; i++ {
		p := geo.Point{Lat: 37.51 + float64(i)*0.001, Lon: 126.87}
		if _, err := c.Reverse(context.Background(), p); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

func TestQuantize(t *testing.T) {
	c := &Client{QuantizeDecimals: 3}
	q := c.quantize(geo.Point{Lat: 37.51749, Lon: -126.86449})
	if q.Lat != 37.517 || q.Lon != -126.864 {
		t.Fatalf("quantize = %v", q)
	}
	off := &Client{QuantizeDecimals: -1}
	p := geo.Point{Lat: 37.123456789, Lon: 1}
	if got := off.quantize(p); got != p {
		t.Fatalf("disabled quantise changed point: %v", got)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache[string, Location](2)
	c.Put("a", Location{County: "A"})
	c.Put("b", Location{County: "B"})
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should be cached")
	}
	c.Put("c", Location{County: "C"}) // evicts b (least recently used)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should survive (recently used)")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c should be cached")
	}
	// Overwrite existing key keeps size stable.
	c.Put("a", Location{County: "A2"})
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	got, _ := c.Get("a")
	if got.County != "A2" {
		t.Fatalf("overwrite lost: %+v", got)
	}
}

func TestLRUCacheZeroCapacity(t *testing.T) {
	c := newLRUCache[string, Location](0)
	c.Put("a", Location{})
	if c.Len() != 1 {
		t.Fatal("capacity should clamp to 1")
	}
	c.Put("b", Location{})
	if c.Len() != 1 {
		t.Fatal("should evict to stay at capacity")
	}
}

// TestGazetteerResolverSlack pins the constructor's slack rule, the one the
// Server uses: 0 means the 10 km default, negative disables the
// nearest-district fallback. The probe lies off Jeju's south coast, outside
// every district extent but within 10 km of Seogwipo-si.
func TestGazetteerResolverSlack(t *testing.T) {
	gaz, err := admin.NewKoreaGazetteer()
	if err != nil {
		t.Fatal(err)
	}
	offshore := geo.Point{Lat: 33.10, Lon: 126.55}
	ctx := context.Background()
	for _, slack := range []float64{0, 10} {
		loc, err := NewGazetteerResolver(gaz, slack, 8).Reverse(ctx, offshore)
		if err != nil || loc.County != "Seogwipo-si" {
			t.Fatalf("slack %v: %+v, %v; want the Seogwipo-si fallback", slack, loc, err)
		}
	}
	if loc, err := NewGazetteerResolver(gaz, -1, 8).Reverse(ctx, offshore); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("negative slack resolved %+v, %v; want ErrNoMatch", loc, err)
	}
}

func TestServerQualityAttr(t *testing.T) {
	srv, _ := startGeocode(t, ServerOptions{SlackKm: 50})
	// A point in the sea near Busan should resolve as "nearest".
	resp, err := http.Get(fmt.Sprintf("%s/v1/reverse?lat=%f&lon=%f", srv.URL, 35.05, 129.35))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rs ResultSet
	if err := xmlDecode(resp, &rs); err != nil {
		t.Fatal(err)
	}
	if len(rs.Results) != 1 || rs.Results[0].Quality != "nearest" {
		t.Fatalf("ResultSet = %+v, want quality=nearest", rs)
	}
}

func xmlDecode(resp *http.Response, rs *ResultSet) error {
	buf := new(strings.Builder)
	if _, err := copyResp(buf, resp); err != nil {
		return err
	}
	got, err := UnmarshalResultSet([]byte(buf.String()))
	if err != nil {
		return err
	}
	*rs = *got
	return nil
}

func copyResp(dst *strings.Builder, resp *http.Response) (int64, error) {
	b := make([]byte, 4096)
	var n int64
	for {
		m, err := resp.Body.Read(b)
		dst.Write(b[:m])
		n += int64(m)
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, err
		}
	}
}

func TestBatchReverse(t *testing.T) {
	_, c := startGeocode(t, ServerOptions{})
	pts := []geo.Point{
		{Lat: 37.517, Lon: 126.866}, // Yangcheon-gu
		{Lat: 35.163, Lon: 129.164}, // Haeundae-gu
		{Lat: 37.5, Lon: 131.9},     // open sea, unresolvable
		{Lat: 36.35, Lon: 127.42},   // Daejeon
	}
	locs, oks, err := c.BatchReverse(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 4 || len(oks) != 4 {
		t.Fatalf("lengths = %d/%d", len(locs), len(oks))
	}
	if !oks[0] || locs[0].County != "Yangcheon-gu" {
		t.Fatalf("pts[0] = %+v ok=%v", locs[0], oks[0])
	}
	if !oks[1] || locs[1].County != "Haeundae-gu" {
		t.Fatalf("pts[1] = %+v ok=%v", locs[1], oks[1])
	}
	if oks[2] {
		t.Fatalf("open-sea point resolved: %+v", locs[2])
	}
	if !oks[3] || locs[3].State != "Daejeon" {
		t.Fatalf("pts[3] = %+v ok=%v", locs[3], oks[3])
	}
}

func TestBatchReverseUsesOneToken(t *testing.T) {
	// 80 points against a limit of 2 tokens: must succeed in one batch call.
	_, c := startGeocode(t, ServerOptions{Limit: 2, Window: time.Hour})
	var pts []geo.Point
	for i := 0; i < 80; i++ {
		pts = append(pts, geo.Point{Lat: 37.4 + float64(i)*0.002, Lon: 126.9})
	}
	_, oks, err := c.BatchReverse(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	resolved := 0
	for _, ok := range oks {
		if ok {
			resolved++
		}
	}
	if resolved < 70 {
		t.Fatalf("only %d/80 resolved", resolved)
	}
}

func TestBatchReverseCacheInteraction(t *testing.T) {
	_, c := startGeocode(t, ServerOptions{})
	p := geo.Point{Lat: 37.517, Lon: 126.866}
	// Seed the cache with a single reverse, then batch over duplicates.
	if _, err := c.Reverse(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	locs, oks, err := c.BatchReverse(context.Background(), []geo.Point{p, p, p})
	if err != nil {
		t.Fatal(err)
	}
	for i := range locs {
		if !oks[i] || locs[i].County != "Yangcheon-gu" {
			t.Fatalf("cached batch entry %d = %+v ok=%v", i, locs[i], oks[i])
		}
	}
	st := c.Stats()
	if st.Hits < 3 {
		t.Fatalf("cache stats = %+v, wanted hits from batch", st)
	}
}

func TestBatchEndpointValidation(t *testing.T) {
	srv, _ := startGeocode(t, ServerOptions{})
	// GET not allowed.
	resp, err := http.Get(srv.URL + "/v1/reverse_batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/v1/reverse_batch", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(""); got != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d", got)
	}
	if got := post("garbage"); got != http.StatusBadRequest {
		t.Fatalf("garbage status = %d", got)
	}
	if got := post("95,200"); got != http.StatusBadRequest {
		t.Fatalf("out-of-range status = %d", got)
	}
	var big strings.Builder
	for i := 0; i < 150; i++ {
		fmt.Fprintf(&big, "37.5,127.0\n")
	}
	if got := post(strings.TrimSpace(big.String())); got != http.StatusBadRequest {
		t.Fatalf("oversized batch status = %d", got)
	}
}
