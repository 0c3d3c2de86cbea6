package geofast

import (
	"math/rand"
	"testing"

	"stir/internal/admin"
	"stir/internal/geo"
)

// firehosePoints draws seeded points the way the firehose produces them and
// the synth generator models them: GPS tweets half-normal around district
// centres (people tweet from inside districts), plus a small share of strays
// — uniform over the whole extent and far out-of-coverage misses.
func firehosePoints(g *Grid, n int) []geo.Point {
	rng := rand.New(rand.NewSource(7))
	ds := g.gaz.Districts()
	ext := g.Extent()
	dLat := ext.MaxLat - ext.MinLat
	dLon := ext.MaxLon - ext.MinLon
	pts := make([]geo.Point, n)
	for i := range pts {
		switch r := rng.Float64(); {
		case r < 0.02: // strays anywhere over the coverage area
			pts[i] = geo.Point{
				Lat: ext.MinLat + rng.Float64()*dLat,
				Lon: ext.MinLon + rng.Float64()*dLon,
			}
		case r < 0.03: // far out-of-coverage misses
			pts[i] = geo.Point{Lat: rng.Float64()*20 - 10, Lon: -150 + rng.Float64()*40}
		default: // in-district GPS tweets, the synth generator's distribution
			d := ds[rng.Intn(len(ds))]
			dist := rng.NormFloat64() * d.RadiusKm / 2.2
			if dist < 0 {
				dist = -dist
			}
			if dist > d.RadiusKm*0.95 {
				dist = d.RadiusKm * 0.95
			}
			pts[i] = d.Center.Destination(rng.Float64()*360, dist)
		}
	}
	return pts
}

// uniformPoints draws seeded points uniformly over the extent plus a fringe
// of misses — an adversarial mix that oversamples district seams and slack
// annuli relative to any real feed.
func uniformPoints(g *Grid, n int) []geo.Point {
	rng := rand.New(rand.NewSource(7))
	ext := g.Extent()
	dLat := ext.MaxLat - ext.MinLat
	dLon := ext.MaxLon - ext.MinLon
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{
			Lat: ext.MinLat - 0.05*dLat + rng.Float64()*1.1*dLat,
			Lon: ext.MinLon - 0.05*dLon + rng.Float64()*1.1*dLon,
		}
	}
	return pts
}

// benchPoints is the shared default mix for tests that count verdicts.
func benchPoints(g *Grid, n int) []geo.Point { return uniformPoints(g, n) }

func benchGrid(b *testing.B) *Grid {
	b.Helper()
	gaz, err := admin.NewKoreaGazetteer()
	if err != nil {
		b.Fatal(err)
	}
	g, err := Compile(gaz, Options{SlackKm: 10})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkGeofastResolveBulk is the embedded geocoder's headline: batched
// firehose-shaped points through the compiled grid, zero allocations,
// ≥10M points/sec.
func BenchmarkGeofastResolveBulk(b *testing.B) {
	g := benchGrid(b)
	const batch = 4096
	pts := firehosePoints(g, batch)
	out := make([]*admin.District, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = g.ResolveBulk(pts, out)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkGeofastResolveBulkUniform stresses the grid with the adversarial
// uniform-over-extent mix, which hits boundary cells ~30x more often than
// real traffic — the honest lower bound.
func BenchmarkGeofastResolveBulkUniform(b *testing.B) {
	g := benchGrid(b)
	const batch = 4096
	pts := uniformPoints(g, batch)
	out := make([]*admin.District, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = g.ResolveBulk(pts, out)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkGeofastResolve is the single-point hot path.
func BenchmarkGeofastResolve(b *testing.B) {
	g := benchGrid(b)
	pts := firehosePoints(g, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pts[i&4095]
		g.Resolve(p.Lat, p.Lon)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkRTreeResolvePoint is the pre-geofast baseline the grid replaces:
// the gazetteer's R-tree walk per point, on the same firehose mix.
func BenchmarkRTreeResolvePoint(b *testing.B) {
	g := benchGrid(b)
	pts := firehosePoints(g, 4096)
	gaz := g.gaz
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gaz.ResolvePoint(pts[i&4095], 10)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkGeofastCompile tracks grid build cost (startup budget).
func BenchmarkGeofastCompile(b *testing.B) {
	gaz, err := admin.NewKoreaGazetteer()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(gaz, Options{SlackKm: 10}); err != nil {
			b.Fatal(err)
		}
	}
}
