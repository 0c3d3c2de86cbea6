package admin

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"stir/internal/geo"
)

// linearResolve is ResolvePoint's rule as a plain loop over Districts(), in
// position order, so the earlier district wins every exact tie: the oracle
// the packed index must match on every point. contained reports a phase-1
// (inside the extent) answer.
func linearResolve(g *Gazetteer, p geo.Point, slackKm float64) (best *District, contained bool) {
	if !p.Valid() {
		return nil, false
	}
	bestD := 0.0
	for _, d := range g.Districts() {
		if !d.Bounds().Contains(p) {
			continue
		}
		if dist := d.Center.DistanceKm(p); dist <= d.RadiusKm && (best == nil || dist < bestD) {
			best, bestD = d, dist
		}
	}
	if best != nil || slackKm < 0 {
		return best, best != nil
	}
	for _, d := range linearNearestBoxes(g, p, 8) {
		if over := d.Center.DistanceKm(p) - d.RadiusKm; over <= slackKm && (best == nil || over < bestD) {
			best, bestD = d, over
		}
	}
	return best, false
}

// linearNearestBoxes returns the k districts whose bounding boxes lie
// nearest p, by box distance and then position. The candidates stay in
// position order when the fallback weighs them, so the strict < above
// gives a tie to the earlier district.
func linearNearestBoxes(g *Gazetteer, p geo.Point, k int) []*District {
	ds := slices.Clone(g.Districts())
	slices.SortStableFunc(ds, func(a, b *District) int {
		return cmp.Compare(a.Bounds().DistanceSqDeg(p), b.Bounds().DistanceSqDeg(p))
	})
	ds = ds[:min(k, len(ds))]
	pos := make(map[*District]int, g.Len())
	for i, d := range g.Districts() {
		pos[d] = i
	}
	slices.SortFunc(ds, func(a, b *District) int { return cmp.Compare(pos[a], pos[b]) })
	return ds
}

// checkAgainstLinear fails t unless Locate, ResolvePoint and ResolveIndex
// give the oracle's answer for p.
func checkAgainstLinear(t *testing.T, g *Gazetteer, p geo.Point, slackKm float64) {
	t.Helper()
	want, wantIn := linearResolve(g, p, slackKm)
	got, in, err := g.Locate(p, slackKm)
	if (err == nil) != (got != nil) {
		t.Fatalf("Locate(%v, %v) = %v, err %v", p, slackKm, got, err)
	}
	if got != want || in != wantIn {
		t.Fatalf("Locate(%v, %v) = %v contained=%v, linear oracle %v contained=%v", p, slackKm, got, in, want, wantIn)
	}
	if d, _ := g.ResolvePoint(p, slackKm); d != want {
		t.Fatalf("ResolvePoint(%v, %v) = %v, linear oracle %v", p, slackKm, d, want)
	}
	pos, err := g.ResolveIndex(p, slackKm)
	if (err == nil) != (want != nil) || (err == nil && g.Districts()[pos] != want) {
		t.Fatalf("ResolveIndex(%v, %v) = %d, err %v; linear oracle %v", p, slackKm, pos, err, want)
	}
}

// differentialPoints is the adversarial point set: seeded uniform points
// over the gazetteer's extent padded by 10%, every district's box corners
// and the four compass points of its circular edge, the extent's edges and
// corners and nudges just past them, far out-of-extent points, and
// invalid coordinates.
func differentialPoints(g *Gazetteer, rng *rand.Rand, n int) []geo.Point {
	ext := g.Bounds()
	dLat, dLon := ext.MaxLat-ext.MinLat, ext.MaxLon-ext.MinLon
	var pts []geo.Point
	for i := 0; i < n; i++ {
		pts = append(pts, geo.Point{
			Lat: ext.MinLat - 0.1*dLat + rng.Float64()*1.2*dLat,
			Lon: ext.MinLon - 0.1*dLon + rng.Float64()*1.2*dLon,
		})
	}
	for _, d := range g.Districts() {
		b := d.Bounds()
		pts = append(pts,
			geo.Point{Lat: b.MinLat, Lon: b.MinLon}, geo.Point{Lat: b.MinLat, Lon: b.MaxLon},
			geo.Point{Lat: b.MaxLat, Lon: b.MinLon}, geo.Point{Lat: b.MaxLat, Lon: b.MaxLon})
		for bearing := 0.0; bearing < 360; bearing += 90 {
			pts = append(pts, d.Center.Destination(bearing, d.RadiusKm))
		}
	}
	pts = append(pts,
		geo.Point{Lat: ext.MinLat, Lon: ext.MinLon},
		geo.Point{Lat: ext.MinLat, Lon: ext.MaxLon},
		geo.Point{Lat: ext.MaxLat, Lon: ext.MinLon},
		geo.Point{Lat: ext.MaxLat, Lon: ext.MaxLon},
		geo.Point{Lat: ext.MinLat + dLat/2, Lon: ext.MinLon},
		geo.Point{Lat: ext.MaxLat, Lon: ext.MinLon + dLon/2},
		geo.Point{Lat: math.Nextafter(ext.MinLat, -90), Lon: ext.MinLon + dLon/2},
		geo.Point{Lat: math.Nextafter(ext.MaxLat, 90), Lon: ext.MinLon + dLon/2},
		geo.Point{Lat: 0, Lon: -150},
		geo.Point{Lat: -89, Lon: 10},
		geo.Point{Lat: math.NaN(), Lon: 127},
		geo.Point{Lat: 37, Lon: math.NaN()},
		geo.Point{Lat: 91, Lon: 127},
		geo.Point{Lat: 37, Lon: 181},
	)
	return pts
}

// TestResolvePointMatchesLinear is the index's acceptance property: on
// every probed point the packed index and the linear oracle resolve to the
// same district by the same phase, or both miss.
func TestResolvePointMatchesLinear(t *testing.T) {
	for _, tc := range []struct {
		name  string
		world bool
		slack float64
	}{
		{"korea/slack10", false, 10},
		{"korea/noslack", false, -1},
		{"korea/slack2", false, 2},
		{"world/slack10", true, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := mustKorea(t)
			if tc.world {
				var err error
				if g, err = NewWorldGazetteer(); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range differentialPoints(g, rand.New(rand.NewSource(42)), 4000) {
				checkAgainstLinear(t, g, p, tc.slack)
			}
		})
	}
}

// TestResolvePointLatticeMatchesLinear sweeps the in-process resolver's
// 1e-3 quantisation lattice over Seoul, where districts are densest: every
// point the resolver can ask about there gets the oracle's answer.
func TestResolvePointLatticeMatchesLinear(t *testing.T) {
	g := mustKorea(t)
	for lat := 37.45; lat <= 37.65; lat += 0.001 {
		for lon := 126.85; lon <= 127.05; lon += 0.001 {
			checkAgainstLinear(t, g, geo.Point{Lat: lat, Lon: lon}, 10)
		}
	}
}

// randomGazetteer builds n districts with seeded centres over a Korea-sized
// extent and radii from 1 to 40 km, so circles and boxes overlap heavily
// and n is rarely a whole number of leaves.
func randomGazetteer(t *testing.T, rng *rand.Rand, n int) *Gazetteer {
	t.Helper()
	ds := make([]*District, n)
	for i := range ds {
		ds[i] = &District{
			Country:  "XX",
			State:    "S",
			County:   fmt.Sprint("D", i),
			Center:   geo.Point{Lat: 33 + rng.Float64()*6, Lon: 124 + rng.Float64()*7},
			RadiusKm: 1 + rng.Float64()*39,
		}
	}
	g, err := NewGazetteer(ds)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRandomGazetteerMatchesLinear packs seeded gazetteers of 1 to 200
// overlapping districts and checks the full rule, containment and then the
// slack fallback, against the oracle on points over each extent.
func TestRandomGazetteerMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for range 25 {
		g := randomGazetteer(t, rng, 1+rng.Intn(200))
		for _, p := range differentialPoints(g, rng, 20) {
			checkAgainstLinear(t, g, p, 10)
		}
	}
}

// TestRandomGazetteerContainingMatchesLinear probes seeded gazetteers with
// points drawn inside district boxes, where several circles usually hold
// the point, and checks the containment phase alone (no slack) against the
// oracle.
func TestRandomGazetteerContainingMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	hits := 0
	for range 20 {
		g := randomGazetteer(t, rng, 50+rng.Intn(200))
		for range 30 {
			b := g.Districts()[rng.Intn(g.Len())].Bounds()
			p := geo.Point{
				Lat: b.MinLat + rng.Float64()*(b.MaxLat-b.MinLat),
				Lon: b.MinLon + rng.Float64()*(b.MaxLon-b.MinLon),
			}
			checkAgainstLinear(t, g, p, -1)
			if d, _ := linearResolve(g, p, -1); d != nil {
				hits++
			}
		}
	}
	if hits < 300 {
		t.Fatalf("only %d of 600 probes fell inside a district; the test exercises too little containment", hits)
	}
}

// TestResolvePointTieGoesToEarlierDistrict: p lies exactly as far from two
// centres, and the packing sorts the western district first; the earlier
// district in Districts() must still win, in both phases.
func TestResolvePointTieGoesToEarlierDistrict(t *testing.T) {
	east := &District{Country: "XX", State: "S", County: "East", Center: geo.Point{Lat: 0, Lon: 1}, RadiusKm: 150}
	west := &District{Country: "XX", State: "S", County: "West", Center: geo.Point{Lat: 0, Lon: -1}, RadiusKm: 150}
	mid := geo.Point{Lat: 0, Lon: 0}
	if east.Center.DistanceKm(mid) != west.Center.DistanceKm(mid) {
		t.Fatal("test geometry: the centres are not equidistant")
	}
	for _, tc := range []struct {
		radius float64
		in     bool
	}{{150, true}, {100, false}} {
		east.RadiusKm, west.RadiusKm = tc.radius, tc.radius
		g, err := NewGazetteer([]*District{east, west})
		if err != nil {
			t.Fatal(err)
		}
		if g.index.entries[0].pos != 1 {
			t.Fatal("test geometry: the packing no longer puts West first")
		}
		d, in, err := g.Locate(mid, 20)
		if err != nil || d != east || in != tc.in {
			t.Errorf("radius %v: Locate = %v contained=%v err %v, want East contained=%v", tc.radius, d, in, err, tc.in)
		}
		if near := g.NearestDistricts(mid, 1); len(near) != 1 || near[0] != east {
			t.Errorf("radius %v: NearestDistricts = %v, want East", tc.radius, districtIDs(near))
		}
	}
}

// TestResolvePointFallbackTieAcrossBoxOrder: two districts miss p by
// exactly the same overshoot, and the later one's box lies nearer p, so it
// is weighed first; the earlier district in Districts() must still win.
func TestResolvePointFallbackTieAcrossBoxOrder(t *testing.T) {
	p := geo.Point{Lat: 0, Lon: 0}
	a := &District{Country: "XX", State: "S", County: "A", Center: geo.Point{Lat: 0, Lon: 1}, RadiusKm: 100}
	b := &District{Country: "XX", State: "S", County: "B", Center: geo.Point{Lat: 0, Lon: -1.05}}
	over := a.Center.DistanceKm(p) - a.RadiusKm
	dB := b.Center.DistanceKm(p)
	b.RadiusKm = dB - over
	if dB-b.RadiusKm != over || b.Bounds().DistanceSqDeg(p) >= a.Bounds().DistanceSqDeg(p) {
		t.Fatal("test geometry: no exact overshoot tie with B's box nearer")
	}
	g, err := NewGazetteer([]*District{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if d, in, err := g.Locate(p, 20); d != a || in || err != nil {
		t.Fatalf("Locate = %v contained=%v err %v, want A by the fallback", d, in, err)
	}
}

// TestResolvePointFallbackWeighsEarliestBoxes: p lies inside 40 districts'
// boxes but outside every circle, so all 40 boxes tie at distance zero.
// The fallback weighs the 8 earliest districts, which the packing puts in
// the last leaf, and not the 32 western ones that overshoot less.
func TestResolvePointFallbackWeighsEarliestBoxes(t *testing.T) {
	p := geo.Point{Lat: 0, Lon: 0}
	var ds []*District
	for i := 0; i < 40; i++ {
		bearing, over := 90.0, 0.35+0.005*float64(i)
		if i >= 8 {
			bearing, over = 270, 0.3
		}
		c := p.Destination(bearing, 50+0.1*float64(i))
		ds = append(ds, &District{Country: "XX", State: "S", County: fmt.Sprint("D", i), Center: c, RadiusKm: c.DistanceKm(p) - over})
	}
	g, err := NewGazetteer(ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if !d.Bounds().Contains(p) || d.Center.DistanceKm(p) <= d.RadiusKm {
			t.Fatalf("test geometry: %s does not hold p in its box only", d.ID())
		}
	}
	if d, in, err := g.Locate(p, 1); d != ds[0] || in || err != nil {
		t.Fatalf("Locate = %v contained=%v err %v, want D0 by the fallback", d, in, err)
	}
	checkAgainstLinear(t, g, p, 1)
}

// TestNearestDistrictsMatchesLinear: NearestDistricts orders the 2k
// box-nearest districts by centre distance, ties by position.
func TestNearestDistrictsMatchesLinear(t *testing.T) {
	g := mustKorea(t)
	pos := make(map[*District]int, g.Len())
	for i, d := range g.Districts() {
		pos[d] = i
	}
	rng := rand.New(rand.NewSource(9))
	ext := g.Bounds()
	for i := 0; i < 300; i++ {
		p := geo.Point{
			Lat: ext.MinLat - 1 + rng.Float64()*(ext.MaxLat-ext.MinLat+2),
			Lon: ext.MinLon - 1 + rng.Float64()*(ext.MaxLon-ext.MinLon+2),
		}
		k := []int{1, 5, 12}[i%3]
		want := linearNearestBoxes(g, p, 2*k)
		slices.SortFunc(want, func(a, b *District) int {
			return cmp.Or(cmp.Compare(a.Center.DistanceKm(p), b.Center.DistanceKm(p)), cmp.Compare(pos[a], pos[b]))
		})
		want = want[:min(k, len(want))]
		if got := g.NearestDistricts(p, k); !slices.Equal(got, want) {
			t.Fatalf("NearestDistricts(%v, %d) = %v, want %v", p, k, districtIDs(got), districtIDs(want))
		}
	}
}

// TestNearestDistrictsKPastSize: with k at or past the district count,
// NearestDistricts returns every district once, by centre distance; with k
// of zero or below it returns none.
func TestNearestDistrictsKPastSize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, g := range []*Gazetteer{randomGazetteer(t, rng, 10), mustKorea(t)} {
		p := geo.Point{Lat: 36, Lon: 127.5}
		for _, k := range []int{g.Len(), g.Len() + 7, 5 * g.Len()} {
			got := g.NearestDistricts(p, k)
			if len(got) != g.Len() {
				t.Fatalf("NearestDistricts(k=%d) over %d districts returned %d", k, g.Len(), len(got))
			}
			want := slices.Clone(g.Districts())
			slices.SortStableFunc(want, func(a, b *District) int {
				return cmp.Compare(a.Center.DistanceKm(p), b.Center.DistanceKm(p))
			})
			if !slices.Equal(got, want) {
				t.Fatalf("NearestDistricts(k=%d) = %v, want %v", k, districtIDs(got), districtIDs(want))
			}
		}
		for _, k := range []int{0, -3} {
			if got := g.NearestDistricts(p, k); len(got) != 0 {
				t.Fatalf("NearestDistricts(k=%d) = %v, want none", k, districtIDs(got))
			}
		}
	}
}

// TestNearestDistrictsSorted: whatever the point, NearestDistricts returns
// distinct districts in non-decreasing centre distance.
func TestNearestDistrictsSorted(t *testing.T) {
	g := mustKorea(t)
	rng := rand.New(rand.NewSource(11))
	for _, p := range differentialPoints(g, rng, 200) {
		if !p.Valid() {
			continue
		}
		got := g.NearestDistricts(p, 20)
		if len(got) != min(20, g.Len()) {
			t.Fatalf("NearestDistricts(%v, 20) returned %d districts", p, len(got))
		}
		seen := make(map[*District]bool, len(got))
		for i, d := range got {
			if seen[d] {
				t.Fatalf("NearestDistricts(%v) repeats %s", p, d.ID())
			}
			seen[d] = true
			if i > 0 && d.Center.DistanceKm(p) < got[i-1].Center.DistanceKm(p) {
				t.Fatalf("NearestDistricts(%v) not ascending at %d: %v", p, i, districtIDs(got))
			}
		}
	}
}

// packedGazetteers returns the gazetteers the packing checks run over: the
// Korean and world tables and seeded ones whose sizes fall on, just past
// and well between whole numbers of leaves.
func packedGazetteers(t *testing.T) []*Gazetteer {
	t.Helper()
	world, err := NewWorldGazetteer()
	if err != nil {
		t.Fatal(err)
	}
	gs := []*Gazetteer{mustKorea(t), world}
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, leafSize - 1, leafSize, leafSize + 1, 5*leafSize + 3, 2000} {
		gs = append(gs, randomGazetteer(t, rng, n))
	}
	return gs
}

// TestDistrictIndexShape checks the packing's leaves: there are as many as
// whole-or-partial groups of leafSize districts, every leaf but the last is
// full, and each leaf box is exactly the union of its entries' boxes.
func TestDistrictIndexShape(t *testing.T) {
	for _, g := range packedGazetteers(t) {
		x := &g.index
		if want := (g.Len() + leafSize - 1) / leafSize; len(x.leaves) != want {
			t.Fatalf("%d districts in %d leaves, want %d", g.Len(), len(x.leaves), want)
		}
		for i, box := range x.leaves {
			leaf := x.leaf(i)
			if len(leaf) != leafSize && i != len(x.leaves)-1 {
				t.Fatalf("%d districts: leaf %d of %d holds %d entries", g.Len(), i, len(x.leaves), len(leaf))
			}
			union := leaf[0].box
			for _, e := range leaf[1:] {
				union = union.Union(e.box)
			}
			if box != union {
				t.Fatalf("%d districts: leaf %d box %v, union of its entries %v", g.Len(), i, box, union)
			}
		}
	}
}

// TestDistrictIndexEntries checks the packing's entries: every district
// sits in exactly one entry, and that entry carries its box, centre and
// radius.
func TestDistrictIndexEntries(t *testing.T) {
	for _, g := range packedGazetteers(t) {
		x := &g.index
		if len(x.entries) != g.Len() {
			t.Fatalf("%d districts in %d entries", g.Len(), len(x.entries))
		}
		seen := make([]bool, g.Len())
		for _, e := range x.entries {
			d := g.Districts()[e.pos]
			if seen[e.pos] || e.box != d.Bounds() || e.center != d.Center || e.radius != d.RadiusKm {
				t.Fatalf("entry %+v does not stand for district %d (%s) once", e, e.pos, d.ID())
			}
			seen[e.pos] = true
		}
	}
}

// TestEmptyGazetteer: a gazetteer with no districts resolves no point, at
// any slack.
func TestEmptyGazetteer(t *testing.T) {
	g, err := NewGazetteer(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, slack := range []float64{-1, 0, 1e9, math.Inf(1)} {
		p := geo.Point{Lat: 37.5, Lon: 127}
		if d, err := g.ResolvePoint(p, slack); err == nil {
			t.Fatalf("empty gazetteer resolved %v at slack %v", d, slack)
		}
		if d, in, err := g.Locate(p, slack); err == nil || d != nil || in {
			t.Fatalf("empty gazetteer located %v contained=%v err %v at slack %v", d, in, err, slack)
		}
	}
}

// TestEmptyGazetteerNearest: a gazetteer with no districts has no
// neighbours for any k.
func TestEmptyGazetteerNearest(t *testing.T) {
	g, err := NewGazetteer(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 3, 100} {
		if near := g.NearestDistricts(geo.Point{Lat: 37.5, Lon: 127}, k); len(near) != 0 {
			t.Fatalf("empty gazetteer has neighbours %v for k=%d", districtIDs(near), k)
		}
	}
}

// TestEmptyDistrictIndex: packing no districts gives an index with no
// entries and no leaves, whose every query comes back empty.
func TestEmptyDistrictIndex(t *testing.T) {
	x := newDistrictIndex(nil)
	if len(x.entries) != 0 || len(x.leaves) != 0 {
		t.Fatalf("empty index has %d entries in %d leaves", len(x.entries), len(x.leaves))
	}
	p := geo.Point{Lat: 37, Lon: 127}
	if got := x.containing(p); got != -1 {
		t.Fatalf("empty containing = %d", got)
	}
	if got := x.fallback(p, math.Inf(1)); got != -1 {
		t.Fatalf("empty fallback = %d", got)
	}
	if got := x.nearest(nil, p, 5); len(got) != 0 {
		t.Fatalf("empty nearest = %v", got)
	}
}

// TestSingleDistrictGazetteer: one district resolves inside its extent,
// within slack outside it, and nowhere else.
func TestSingleDistrictGazetteer(t *testing.T) {
	d := &District{Country: "KR", State: "Seoul", County: "Jongno-gu", Center: geo.Point{Lat: 37.57, Lon: 126.98}, RadiusKm: 4}
	g, err := NewGazetteer([]*District{d})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p      geo.Point
		slack  float64
		want   *District
		inside bool
	}{
		{d.Center, -1, d, true},
		{d.Center.Destination(45, 6), 5, d, false},
		{d.Center.Destination(45, 6), 1, nil, false},
		{d.Center.Destination(45, 6), -1, nil, false},
	} {
		if got, in, _ := g.Locate(tc.p, tc.slack); got != tc.want || in != tc.inside {
			t.Errorf("Locate(%v, %v) = %v contained=%v, want %v contained=%v", tc.p, tc.slack, got, in, tc.want, tc.inside)
		}
	}
	if near := g.NearestDistricts(geo.Point{}, 5); len(near) != 1 || near[0] != d {
		t.Fatalf("NearestDistricts = %v", districtIDs(near))
	}
}

// FuzzResolvePoint feeds arbitrary coordinates and slack, infinities, NaN
// and out-of-range values included, to the packed index and the linear
// oracle.
func FuzzResolvePoint(f *testing.F) {
	g, err := NewKoreaGazetteer()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(37.5665, 126.978, 10.0)
	f.Add(37.5, 131.5, -1.0)
	f.Fuzz(func(t *testing.T, lat, lon, slack float64) {
		checkAgainstLinear(t, g, geo.Point{Lat: lat, Lon: lon}, slack)
	})
}

// firehosePoints draws seeded points the way the firehose produces them:
// GPS tweets half-normal around district centres, plus 2% strays over the
// gazetteer's extent and 1% far out-of-coverage misses.
func firehosePoints(g *Gazetteer, n int) []geo.Point {
	rng := rand.New(rand.NewSource(7))
	ds := g.Districts()
	ext := g.Bounds()
	pts := make([]geo.Point, n)
	for i := range pts {
		switch r := rng.Float64(); {
		case r < 0.02:
			pts[i] = geo.Point{
				Lat: ext.MinLat + rng.Float64()*(ext.MaxLat-ext.MinLat),
				Lon: ext.MinLon + rng.Float64()*(ext.MaxLon-ext.MinLon),
			}
		case r < 0.03:
			pts[i] = geo.Point{Lat: rng.Float64()*20 - 10, Lon: -150 + rng.Float64()*40}
		default:
			d := ds[rng.Intn(len(ds))]
			dist := math.Min(math.Abs(rng.NormFloat64()*d.RadiusKm/2.2), d.RadiusKm*0.95)
			pts[i] = d.Center.Destination(rng.Float64()*360, dist)
		}
	}
	return pts
}

// sinkDistrict keeps the compiler from dropping a benchmarked call.
var sinkDistrict *District

// BenchmarkResolvePoint is one ResolvePoint per firehose-shaped point: the
// reverse geocoder's miss path.
func BenchmarkResolvePoint(b *testing.B) {
	g, err := NewKoreaGazetteer()
	if err != nil {
		b.Fatal(err)
	}
	pts := firehosePoints(g, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDistrict, _ = g.ResolvePoint(pts[i&4095], 10)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "points/s")
}
