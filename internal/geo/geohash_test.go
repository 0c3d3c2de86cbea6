package geo

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Known geohash vectors (from the original geohash.org scheme).
func TestEncodeKnownVectors(t *testing.T) {
	cases := []struct {
		lat, lon  float64
		precision int
		want      string
	}{
		{57.64911, 10.40744, 11, "u4pruydqqvj"},
		{37.5665, 126.9780, 5, "wydm9"}, // Seoul city hall
		{0, 0, 1, "s"},
		{-90, -180, 4, "0000"},
	}
	for _, tc := range cases {
		got := Encode(Point{Lat: tc.lat, Lon: tc.lon}, tc.precision)
		if got != tc.want {
			t.Errorf("Encode(%v,%v,%d) = %q, want %q", tc.lat, tc.lon, tc.precision, got, tc.want)
		}
	}
}

func TestEncodePrecisionClamp(t *testing.T) {
	p := Point{Lat: 37.5, Lon: 127}
	if got := Encode(p, 0); len(got) != 1 {
		t.Fatalf("precision 0 should clamp to 1, got %q", got)
	}
	if got := Encode(p, 99); len(got) != 12 {
		t.Fatalf("precision 99 should clamp to 12, got %q", got)
	}
}

func TestDecodeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randPoint(r)
		precision := 1 + r.Intn(12)
		h := Encode(p, precision)
		bounds, err := DecodeBounds(h)
		if err != nil {
			return false
		}
		// The original point must be inside its own cell.
		if !bounds.Contains(p) {
			return false
		}
		// The cell centre must re-encode to the same hash.
		c, err := Decode(h)
		if err != nil {
			return false
		}
		return Encode(c, precision) == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	for _, bad := range []string{"", "a!", "il"} { // i and l are not in base32
		if _, err := DecodeBounds(bad); err == nil {
			t.Errorf("DecodeBounds(%q) accepted", bad)
		}
	}
	// Uppercase is tolerated.
	if _, err := DecodeBounds("WYDM9"); err != nil {
		t.Fatalf("uppercase rejected: %v", err)
	}
}

func TestPrecisionNesting(t *testing.T) {
	p := Point{Lat: 37.5172, Lon: 126.8664}
	long := Encode(p, 9)
	for precision := 1; precision < 9; precision++ {
		short := Encode(p, precision)
		if !strings.HasPrefix(long, short) {
			t.Fatalf("precision %d hash %q is not a prefix of %q", precision, short, long)
		}
	}
}

func TestNeighbors(t *testing.T) {
	h := Encode(Point{Lat: 37.5, Lon: 127}, 6)
	ns, err := Neighbors(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 8 {
		t.Fatalf("mid-latitude cell should have 8 neighbours, got %d: %v", len(ns), ns)
	}
	seen := map[string]bool{}
	for _, n := range ns {
		if n == h {
			t.Fatal("cell listed as its own neighbour")
		}
		if seen[n] {
			t.Fatalf("duplicate neighbour %q", n)
		}
		seen[n] = true
		if len(n) != len(h) {
			t.Fatalf("neighbour %q has different precision", n)
		}
		// Each neighbour's cell must touch the original cell.
		nb, err := DecodeBounds(n)
		if err != nil {
			t.Fatal(err)
		}
		hb, _ := DecodeBounds(h)
		if hb.MinLat > nb.MaxLat || nb.MinLat > hb.MaxLat || hb.MinLon > nb.MaxLon || nb.MinLon > hb.MaxLon {
			t.Fatalf("neighbour %q does not touch %q", n, h)
		}
	}
	if _, err := Neighbors("!"); err == nil {
		t.Fatal("invalid hash accepted")
	}
}

func TestNeighborsNearPole(t *testing.T) {
	h := Encode(Point{Lat: 89.99, Lon: 0}, 4)
	ns, err := Neighbors(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) >= 8 {
		t.Fatalf("polar cell should drop out-of-range neighbours, got %d", len(ns))
	}
}
