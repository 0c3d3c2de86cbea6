package geocode

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"stir/internal/admin"
	"stir/internal/geo"
	"stir/internal/obs"
)

// firehoseBodies builds /v1/reverse_batch bodies of perBody points each,
// drawn the way the firehose produces GPS tweets: half-normal around
// district centres, plus a small share of strays over the coverage area and
// far out-of-coverage misses. Each body is the wire text the client sends
// (one "%.6f,%.6f" line per point).
func firehoseBodies(gaz *admin.Gazetteer, bodies, perBody int) []string {
	rng := rand.New(rand.NewSource(7))
	ds := gaz.Districts()
	minLat, maxLat, minLon, maxLon := math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)
	for _, d := range ds {
		minLat, maxLat = math.Min(minLat, d.Center.Lat), math.Max(maxLat, d.Center.Lat)
		minLon, maxLon = math.Min(minLon, d.Center.Lon), math.Max(maxLon, d.Center.Lon)
	}
	point := func() geo.Point {
		switch r := rng.Float64(); {
		case r < 0.02:
			return geo.Point{Lat: minLat + rng.Float64()*(maxLat-minLat), Lon: minLon + rng.Float64()*(maxLon-minLon)}
		case r < 0.03:
			return geo.Point{Lat: rng.Float64()*20 - 10, Lon: -150 + rng.Float64()*40}
		default:
			d := ds[rng.Intn(len(ds))]
			dist := math.Min(math.Abs(rng.NormFloat64()*d.RadiusKm/2.2), d.RadiusKm*0.95)
			return d.Center.Destination(rng.Float64()*360, dist)
		}
	}
	out := make([]string, bodies)
	for i := range out {
		var b strings.Builder
		for j := 0; j < perBody; j++ {
			if j > 0 {
				b.WriteByte('\n')
			}
			p := point()
			fmt.Fprintf(&b, "%.6f,%.6f", p.Lat, p.Lon)
		}
		out[i] = b.String()
	}
	return out
}

// BenchmarkServerReverseBatch is one /v1/reverse_batch request of 100
// firehose-shaped points through the server's handler: parsing, one
// gazetteer walk per point and the XML answer. The bodies come from a
// 262,144-point pool.
func BenchmarkServerReverseBatch(b *testing.B) {
	gaz, err := admin.NewKoreaGazetteer()
	if err != nil {
		b.Fatal(err)
	}
	const perBody = maxBatchPoints
	bodies := firehoseBodies(gaz, 1<<18/perBody, perBody)
	srv := NewServer(gaz, ServerOptions{Metrics: obs.NewRegistry()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/reverse_batch", strings.NewReader(bodies[i%len(bodies)])))
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*perBody/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkDirectResolver is the in-process reverse geocoder from every
// proc at once. hit is a pool of 256 points that stay in the 65,536-slot
// table, so every lookup after the first pass is one atomic load; miss is
// a pool of 262,144 points through a 64-slot table, so nearly every lookup
// asks the gazetteer and overwrites a slot. All points lie inside a
// district, so both should report 0 allocs/op.
func BenchmarkDirectResolver(b *testing.B) {
	gaz, err := admin.NewKoreaGazetteer()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	ds := gaz.Districts()
	inDistrict := func(n int) []geo.Point {
		pts := make([]geo.Point, n)
		for i := range pts {
			d := ds[rng.Intn(len(ds))]
			pts[i] = d.Center.Destination(rng.Float64()*360, rng.Float64()*d.RadiusKm/2)
		}
		return pts
	}
	for _, bc := range []struct {
		name        string
		pool, slots int
	}{{"hit", 256, 65536}, {"miss", 1 << 18, 64}} {
		b.Run(bc.name, func(b *testing.B) {
			pts := inDistrict(bc.pool)
			r := NewGazetteerResolver(gaz, 10, bc.slots)
			ctx := context.Background()
			for _, p := range pts {
				if _, err := r.Reverse(ctx, p); err != nil {
					b.Fatal(err)
				}
			}
			before := r.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			var start atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				i := int(start.Add(int64(len(pts) / 4)))
				for pb.Next() {
					if _, err := r.Reverse(ctx, pts[i%len(pts)]); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
			b.StopTimer()
			st := r.Stats()
			lookups := st.Hits + st.Misses - before.Hits - before.Misses
			b.ReportMetric(float64(st.Hits-before.Hits)/float64(lookups), "hit_frac")
		})
	}
}
