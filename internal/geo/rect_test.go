package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectContains(t *testing.T) {
	r := Rect{MinLat: 0, MinLon: 0, MaxLat: 10, MaxLon: 10}
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{5, 5}, true},
		{Point{0, 0}, true},   // boundary counts
		{Point{10, 10}, true}, // boundary counts
		{Point{-0.1, 5}, false},
		{Point{5, 10.1}, false},
	}
	for _, tc := range cases {
		if got := r.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestRectUnion(t *testing.T) {
	a := Rect{MinLat: 0, MinLon: 0, MaxLat: 5, MaxLon: 5}
	b := Rect{MinLat: 4, MinLon: -2, MaxLat: 8, MaxLon: 3}
	want := Rect{MinLat: 0, MinLon: -2, MaxLat: 8, MaxLon: 5}
	if u := a.Union(b); u != want {
		t.Fatalf("Union = %+v, want %+v", u, want)
	}
	if u := b.Union(a); u != want {
		t.Fatalf("Union = %+v, want %+v", u, want)
	}
}

func TestRectAroundContainsCircle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := Point{Lat: r.Float64()*120 - 60, Lon: r.Float64()*300 - 150}
		radius := 1 + r.Float64()*100
		box := RectAround(c, radius)
		// Sample points on the circle; all must be inside the box.
		for i := 0; i < 12; i++ {
			p := c.Destination(float64(i)*30, radius)
			if !box.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnionPropertyContainsBoth(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		span := func(p, q Point) Rect {
			return Rect{MinLat: math.Min(p.Lat, q.Lat), MinLon: math.Min(p.Lon, q.Lon),
				MaxLat: math.Max(p.Lat, q.Lat), MaxLon: math.Max(p.Lon, q.Lon)}
		}
		a := span(randPoint(r), randPoint(r))
		b := span(randPoint(r), randPoint(r))
		u := a.Union(b)
		covers := func(s Rect) bool {
			return u.MinLat <= s.MinLat && u.MinLon <= s.MinLon && u.MaxLat >= s.MaxLat && u.MaxLon >= s.MaxLon
		}
		return covers(a) && covers(b) && u.Area() >= a.Area() && u.Area() >= b.Area()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExtend(t *testing.T) {
	r := Rect{MinLat: 0, MinLon: 0, MaxLat: 1, MaxLon: 1}
	r = r.Extend(Point{Lat: 5, Lon: -3})
	want := Rect{MinLat: 0, MinLon: -3, MaxLat: 5, MaxLon: 1}
	if r != want {
		t.Fatalf("Extend = %+v, want %+v", r, want)
	}
}

func TestDistanceSqDeg(t *testing.T) {
	r := Rect{MinLat: 0, MinLon: 0, MaxLat: 10, MaxLon: 10}
	if d := r.DistanceSqDeg(Point{5, 5}); d != 0 {
		t.Fatalf("inside distance = %v", d)
	}
	if d := r.DistanceSqDeg(Point{0, -3}); d != 9 {
		t.Fatalf("left distance = %v, want 9", d)
	}
	if d := r.DistanceSqDeg(Point{13, 14}); d != 9+16 {
		t.Fatalf("corner distance = %v, want 25", d)
	}
}

func TestAreaCenter(t *testing.T) {
	r := Rect{MinLat: 1, MinLon: 2, MaxLat: 3, MaxLon: 6}
	if got := r.Area(); got != 8 {
		t.Fatalf("Area = %v, want 8", got)
	}
	if c := r.Center(); c.Lat != 2 || c.Lon != 4 {
		t.Fatalf("Center = %v", c)
	}
	bad := Rect{MinLat: 3, MaxLat: 1}
	if bad.Area() != 0 {
		t.Fatal("invalid rect should have zero area")
	}
}
