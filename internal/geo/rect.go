package geo

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned bounding rectangle in degree space. STIR operates
// on Korea-scale extents, so rectangles never straddle the antimeridian.
type Rect struct {
	MinLat, MinLon float64
	MaxLat, MaxLon float64
}

// RectAround returns a rectangle roughly radiusKm around center. It is a
// conservative (slightly over-sized) box suitable for index probes.
func RectAround(center Point, radiusKm float64) Rect {
	dLat := radiusKm / 110.574 * 1.01 // km per degree latitude, 1% slack
	// Width must hold at the box's extreme latitude, where a degree of
	// longitude is shortest; evaluate the cosine there, with slack.
	extremeLat := math.Min(math.Abs(center.Lat)+dLat, 89.9)
	cos := math.Cos(extremeLat * math.Pi / 180)
	if cos < 0.001 {
		cos = 0.001
	}
	dLon := radiusKm / (111.320 * cos) * 1.01
	return Rect{
		MinLat: math.Max(center.Lat-dLat, -90),
		MaxLat: math.Min(center.Lat+dLat, 90),
		MinLon: center.Lon - dLon,
		MaxLon: center.Lon + dLon,
	}
}

// Valid reports whether the rectangle is non-inverted.
func (r Rect) Valid() bool {
	return r.MinLat <= r.MaxLat && r.MinLon <= r.MaxLon
}

// String renders the rect for debugging.
func (r Rect) String() string {
	return fmt.Sprintf("[%.4f,%.4f]..[%.4f,%.4f]", r.MinLat, r.MinLon, r.MaxLat, r.MaxLon)
}

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.Lat >= r.MinLat && p.Lat <= r.MaxLat &&
		p.Lon >= r.MinLon && p.Lon <= r.MaxLon
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		MinLat: math.Min(r.MinLat, s.MinLat),
		MinLon: math.Min(r.MinLon, s.MinLon),
		MaxLat: math.Max(r.MaxLat, s.MaxLat),
		MaxLon: math.Max(r.MaxLon, s.MaxLon),
	}
}

// Extend returns r grown to include p.
func (r Rect) Extend(p Point) Rect {
	return r.Union(Rect{MinLat: p.Lat, MaxLat: p.Lat, MinLon: p.Lon, MaxLon: p.Lon})
}

// Area returns the rectangle's area in square degrees, not a physical
// area.
func (r Rect) Area() float64 {
	if !r.Valid() {
		return 0
	}
	return (r.MaxLat - r.MinLat) * (r.MaxLon - r.MinLon)
}

// Center returns the rectangle's center point.
func (r Rect) Center() Point {
	return Point{Lat: (r.MinLat + r.MaxLat) / 2, Lon: (r.MinLon + r.MaxLon) / 2}
}

// DistanceSqDeg returns the squared degree-space distance from p to the
// nearest point of r (zero if p is inside). Degree-space is fine for the
// nearest-box ordering the gazetteer's district index needs at city scale.
func (r Rect) DistanceSqDeg(p Point) float64 {
	dLat := 0.0
	switch {
	case p.Lat < r.MinLat:
		dLat = r.MinLat - p.Lat
	case p.Lat > r.MaxLat:
		dLat = p.Lat - r.MaxLat
	}
	dLon := 0.0
	switch {
	case p.Lon < r.MinLon:
		dLon = r.MinLon - p.Lon
	case p.Lon > r.MaxLon:
		dLon = p.Lon - r.MaxLon
	}
	return dLat*dLat + dLon*dLon
}
