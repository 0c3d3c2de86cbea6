package admin

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"stir/internal/geo"
)

func mustKorea(t *testing.T) *Gazetteer {
	t.Helper()
	g, err := NewKoreaGazetteer()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestKoreaGazetteerShape(t *testing.T) {
	g := mustKorea(t)
	states := g.States()
	if len(states) != 17 {
		t.Fatalf("got %d states, want 17 first-level divisions: %v", len(states), states)
	}
	if n := len(g.Counties("Seoul")); n != 25 {
		t.Fatalf("Seoul has %d gu, want 25", n)
	}
	if n := len(g.Counties("Busan")); n != 16 {
		t.Fatalf("Busan has %d districts, want 16", n)
	}
	if g.Len() < 150 {
		t.Fatalf("only %d districts total, want at least 150", g.Len())
	}
}

func TestDistrictIDUnique(t *testing.T) {
	g := mustKorea(t)
	seen := map[string]bool{}
	for _, d := range g.Districts() {
		if seen[d.ID()] {
			t.Fatalf("duplicate district id %s", d.ID())
		}
		seen[d.ID()] = true
	}
}

func TestDuplicateDistrictRejected(t *testing.T) {
	d := &District{Country: "KR", State: "Seoul", County: "Jongno-gu", Center: geo.Point{Lat: 37.57, Lon: 126.98}, RadiusKm: 4}
	if _, err := NewGazetteer([]*District{d, d}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	bad := &District{Country: "KR", State: "X", County: "Y", RadiusKm: 0}
	if _, err := NewGazetteer([]*District{bad}); err == nil {
		t.Fatal("zero radius accepted")
	}
}

func TestResolvePointAtCenters(t *testing.T) {
	g := mustKorea(t)
	for _, d := range g.Districts() {
		got, err := g.ResolvePoint(d.Center, 0)
		if err != nil {
			t.Fatalf("ResolvePoint(%s center): %v", d.ID(), err)
		}
		// Overlapping approximations may pick a neighbour, but only if its
		// centre is genuinely closer, which cannot happen at d's own centre
		// unless two centres coincide.
		if got.ID() != d.ID() && got.Center.DistanceKm(d.Center) > 0.01 {
			t.Errorf("centre of %s resolved to %s", d.ID(), got.ID())
		}
	}
}

func TestResolvePointKnownPlaces(t *testing.T) {
	g := mustKorea(t)
	cases := []struct {
		name  string
		p     geo.Point
		state string
	}{
		{"gangnam station area", geo.Point{Lat: 37.498, Lon: 127.028}, "Seoul"},
		{"haeundae beach", geo.Point{Lat: 35.159, Lon: 129.160}, "Busan"},
		{"jeju city", geo.Point{Lat: 33.50, Lon: 126.52}, "Jeju"},
		{"suwon", geo.Point{Lat: 37.27, Lon: 127.01}, "Gyeonggi-do"},
	}
	for _, tc := range cases {
		d, err := g.ResolvePoint(tc.p, 5)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if d.State != tc.state {
			t.Errorf("%s: resolved to %s, want state %s", tc.name, d.ID(), tc.state)
		}
	}
}

func TestResolvePointMissAndSlack(t *testing.T) {
	g := mustKorea(t)
	middleOfEastSea := geo.Point{Lat: 37.5, Lon: 131.5}
	if _, err := g.ResolvePoint(middleOfEastSea, -1); err == nil {
		t.Fatal("open-sea point resolved with no slack")
	}
	if _, err := g.ResolvePoint(geo.Point{Lat: 91, Lon: 0}, 5); err == nil {
		t.Fatal("invalid point accepted")
	}
	// A point just outside a rural district should resolve with slack.
	d, err := g.ByID("KR/Jeju/Jeju-si")
	if err != nil {
		t.Fatal(err)
	}
	edge := d.Center.Destination(0, d.RadiusKm+3)
	if _, err := g.ResolvePoint(edge, 10); err != nil {
		t.Fatalf("edge point with slack: %v", err)
	}
}

// TestResolvePointAllocs pins the reverse geocoder's miss path to no
// allocation, for an in-district point and for one the slack fallback
// resolves.
func TestResolvePointAllocs(t *testing.T) {
	g := mustKorea(t)
	jeju, err := g.ByID("KR/Jeju/Jeju-si")
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []geo.Point{{Lat: 37.498, Lon: 127.028}, jeju.Center.Destination(0, jeju.RadiusKm+3)} {
		if _, in, err := g.Locate(p, 10); err != nil || in != (i == 0) {
			t.Fatalf("%v: contained=%v, err %v", p, in, err)
		}
		if n := testing.AllocsPerRun(100, func() { g.ResolvePoint(p, 10) }); n != 0 {
			t.Fatalf("ResolvePoint(%v): %v allocs, want 0", p, n)
		}
	}
}

func TestResolveNameExactAndAliases(t *testing.T) {
	g := mustKorea(t)
	cases := []struct {
		in    string
		state string
	}{
		{"Yangcheon-gu", "Seoul"},
		{"yangcheon gu", "Seoul"},
		{"Yangchun-gu", "Seoul"}, // the paper's own romanisation
		{"양천구", "Seoul"},
		{"  GANGNAM-GU ", "Seoul"},
		{"Uiwang-si", "Gyeonggi-do"},
		{"uiwang", "Gyeonggi-do"},
		{"Haeundae", "Busan"},
		{"bundang", "Gyeonggi-do"},
	}
	for _, tc := range cases {
		ds := g.ResolveName(tc.in)
		if len(ds) == 0 {
			t.Errorf("ResolveName(%q) found nothing", tc.in)
			continue
		}
		found := false
		for _, d := range ds {
			if d.State == tc.state {
				found = true
			}
		}
		if !found {
			t.Errorf("ResolveName(%q) = %v, want state %s", tc.in, ds[0].ID(), tc.state)
		}
	}
	if ds := g.ResolveName("darangland :)"); ds != nil {
		t.Errorf("meaningless name resolved to %v", ds)
	}
}

func TestResolveNameAmbiguous(t *testing.T) {
	g := mustKorea(t)
	// Jung-gu exists in Seoul, Busan, Incheon, Daegu, Daejeon, Ulsan.
	ds := g.ResolveName("Jung-gu")
	if len(ds) < 5 {
		t.Fatalf("Jung-gu should be ambiguous across metros, got %d", len(ds))
	}
	narrowed := g.ResolveNameInState("Jung-gu", "Busan")
	if len(narrowed) != 1 || narrowed[0].State != "Busan" {
		t.Fatalf("ResolveNameInState = %v", narrowed)
	}
}

func TestIsState(t *testing.T) {
	g := mustKorea(t)
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"Seoul", "Seoul", true},
		{"서울", "Seoul", true},
		{"gyeonggi", "Gyeonggi-do", true},
		{"Gyeonggi-do", "Gyeonggi-do", true},
		{"경기도", "Gyeonggi-do", true},
		{"jeju island", "Jeju", true},
		{"Yangcheon-gu", "", false},
		{"Earth", "", false},
	}
	for _, tc := range cases {
		got, ok := g.IsState(tc.in)
		if ok != tc.ok || got != tc.want {
			t.Errorf("IsState(%q) = %q,%v want %q,%v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

func TestWorldGazetteerIncludesKorea(t *testing.T) {
	g, err := NewWorldGazetteer()
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() <= 150 {
		t.Fatalf("world gazetteer too small: %d", g.Len())
	}
	if ds := g.ResolveName("gold coast australia"); len(ds) == 0 {
		t.Error("Gold Coast alias missing")
	}
	if ds := g.ResolveName("Yangcheon-gu"); len(ds) == 0 {
		t.Error("Korean districts missing from world gazetteer")
	}
	d, err := g.ResolvePoint(geo.Point{Lat: 40.71, Lon: -74.0}, 5)
	if err != nil || d.County != "New York City" {
		t.Errorf("NYC point resolved to %v, err %v", d, err)
	}
}

// Property: any point sampled inside a district's radius resolves to a
// district whose centre is at most as far as the sampled district's centre.
func TestResolvePointNearestProperty(t *testing.T) {
	g := mustKorea(t)
	districts := g.Districts()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := districts[r.Intn(len(districts))]
		p := d.Center.Destination(r.Float64()*360, r.Float64()*d.RadiusKm*0.9)
		got, err := g.ResolvePoint(p, 0)
		if err != nil {
			return false
		}
		return got.Center.DistanceKm(p) <= d.Center.DistanceKm(p)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"  Seoul ", "seoul"},
		{"Seoul,  Korea", "seoul korea"},
		{"GOLD COAST. Australia", "gold coast australia"},
		{"a_b", "a b"},
		{"", ""},
		{"   ", ""},
	}
	for _, tc := range cases {
		if got := NormalizeName(tc.in); got != tc.want {
			t.Errorf("NormalizeName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestKeyAndID(t *testing.T) {
	d := &District{Country: "KR", State: "Seoul", County: "Yangcheon-gu"}
	if d.Key() != "Seoul#Yangcheon-gu" {
		t.Fatalf("Key = %q", d.Key())
	}
	if d.ID() != "KR/Seoul/Yangcheon-gu" {
		t.Fatalf("ID = %q", d.ID())
	}
}

func TestRandomWeightsPositive(t *testing.T) {
	g := mustKorea(t)
	ds, ws := g.RandomWeights()
	if len(ds) != len(ws) {
		t.Fatal("length mismatch")
	}
	for i, w := range ws {
		if w <= 0 {
			t.Fatalf("district %s has non-positive weight", ds[i].ID())
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	g := mustKorea(t)
	if _, err := g.ByID("KR/Nowhere/None"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestStateCountyNameCompound(t *testing.T) {
	g := mustKorea(t)
	ds := g.ResolveName("Seoul Yangcheon-gu")
	if len(ds) != 1 || !strings.Contains(ds[0].ID(), "Yangcheon") {
		t.Fatalf("compound name resolution = %v", ds)
	}
}

func TestNearestDistricts(t *testing.T) {
	g := mustKorea(t)
	seoulCityHall := geo.Point{Lat: 37.5665, Lon: 126.9780}
	near := g.NearestDistricts(seoulCityHall, 5)
	if len(near) != 5 {
		t.Fatalf("got %d districts", len(near))
	}
	// All five should be Seoul gu, ordered by distance.
	prev := -1.0
	for _, d := range near {
		if d.State != "Seoul" {
			t.Errorf("non-Seoul district %s near city hall", d.ID())
		}
		dist := d.Center.DistanceKm(seoulCityHall)
		if dist < prev {
			t.Fatal("not ordered by distance")
		}
		prev = dist
	}
	if g.NearestDistricts(seoulCityHall, 0) != nil {
		t.Fatal("k=0 should return nil")
	}
}

func TestNeighborsOf(t *testing.T) {
	g := mustKorea(t)
	d, err := g.ByID("KR/Seoul/Jongno-gu")
	if err != nil {
		t.Fatal(err)
	}
	ns := g.NeighborsOf(d, 4)
	if len(ns) != 4 {
		t.Fatalf("neighbours = %d", len(ns))
	}
	for _, n := range ns {
		if n == d {
			t.Fatal("district is its own neighbour")
		}
		if n.Center.DistanceKm(d.Center) > 15 {
			t.Errorf("neighbour %s is %0.f km away", n.ID(), n.Center.DistanceKm(d.Center))
		}
	}
}

func TestNewGazetteerRejectsStateCollision(t *testing.T) {
	seoul := KoreaDistricts()[0]
	clash := func(state string) *District {
		return &District{Country: "XX", State: state, County: "Somewhere", Center: seoul.Center, RadiusKm: 1}
	}
	// Two canonical names with one normalised form, and a canonical name
	// that is another state's alias: either way one form names two states.
	for _, state := range []string{"SEOUL", "서울특별시"} {
		if _, err := NewGazetteer([]*District{seoul, clash(state)}); err == nil {
			t.Errorf("state %q next to Seoul was accepted", state)
		}
	}
	if _, err := NewGazetteer([]*District{seoul, clash("Seoulite")}); err != nil {
		t.Fatalf("distinct state rejected: %v", err)
	}
}

// A form can name a district and a state at once; the entry keeps both, and
// ResolveName and IsState each answer their half.
func TestNameIndexSharedForms(t *testing.T) {
	g, err := NewWorldGazetteer()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ form, district, state string }{
		{"gwangju", "KR/Gyeonggi-do/Gwangju-si", "Gwangju"},
		{"jeju", "KR/Jeju/Jeju-si", "Jeju"},
		{"sejong", "KR/Sejong/Sejong-si", "Sejong"},
		{"washington", "US/District of Columbia/Washington", "Washington"},
		{"new york", "US/New York/New York City", "New York"},
	}
	for _, tc := range cases {
		n := g.Lookup([]byte(tc.form))
		if n.Form != tc.form || len(n.Districts) != 1 || n.Districts[0].ID() != tc.district || n.State != tc.state {
			t.Errorf("Lookup(%q) = %q %v %q, want %s and state %s", tc.form, n.Form, districtIDs(n.Districts), n.State, tc.district, tc.state)
		}
		if st, ok := g.IsState(tc.form); !ok || st != tc.state {
			t.Errorf("IsState(%q) = %q,%v", tc.form, st, ok)
		}
	}
}

// ResolveName hands out the index's own slice; it has no spare capacity, so
// a caller's append copies instead of writing into the index.
func TestResolveNameViewHasNoSpareCapacity(t *testing.T) {
	g := mustKorea(t)
	for n := range g.Names() {
		if cap(n.Districts) != len(n.Districts) {
			t.Fatalf("%q: len %d cap %d", n.Form, len(n.Districts), cap(n.Districts))
		}
	}
	view := g.ResolveName("Jung-gu")
	before := districtIDs(view)
	_ = append(view, view[0])
	if after := districtIDs(g.ResolveName("Jung-gu")); !slices.Equal(before, after) {
		t.Fatalf("append through the view changed the index: %v -> %v", before, after)
	}
}
