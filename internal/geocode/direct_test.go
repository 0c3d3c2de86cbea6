package geocode

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"stir/internal/admin"
	"stir/internal/geo"
)

func koreaGazetteer(t testing.TB) *admin.Gazetteer {
	t.Helper()
	gaz, err := admin.NewKoreaGazetteer()
	if err != nil {
		t.Fatal(err)
	}
	return gaz
}

func TestDirectResolver(t *testing.T) {
	r := NewGazetteerResolver(koreaGazetteer(t), 10, 128)
	p := geo.Point{Lat: 37.517, Lon: 126.866}
	for i := 0; i < 5; i++ {
		loc, err := r.Reverse(context.Background(), p)
		if err != nil || loc.County != "Yangcheon-gu" {
			t.Fatalf("direct resolve = %+v, %v", loc, err)
		}
	}
	if st := r.Stats(); st.Misses != 1 || st.Hits != 4 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want the gazetteer asked once: 1 miss, 4 hits, 1 entry", st)
	}
	if _, err := r.Reverse(context.Background(), geo.Point{Lat: 0, Lon: 0}); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("ocean point err = %v", err)
	}
	if st := r.Stats(); st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want the no-match point a miss that stores nothing", st)
	}
}

// directProbe is one point with the gazetteer's own answer for it at the
// resolver's quantisation.
type directProbe struct {
	p        geo.Point
	want     Location
	noMatch  bool
	packable bool
}

func directProbes(gaz *admin.Gazetteer, decimals int, step float64) []directProbe {
	pts := []geo.Point{
		{Lat: 90, Lon: 180}, {Lat: -90, Lon: -180}, {Lat: 90, Lon: -180}, {Lat: -90, Lon: 180},
		{Lat: 90.0004, Lon: 180.0004}, {Lat: 90.0006, Lon: 0}, {Lat: 0, Lon: -180.0006},
		{Lat: math.NaN(), Lon: 127}, {Lat: 37, Lon: math.NaN()},
		{Lat: math.Inf(1), Lon: 127}, {Lat: 37, Lon: math.Inf(-1)}, {Lat: 1e300, Lon: -1e300},
		{Lat: 33.10, Lon: 126.55}, // off Jeju, within the 10 km slack
		{Lat: 35.05, Lon: 129.35}, // sea off Busan
		{Lat: 0, Lon: 0},
		{Lat: 37.5665, Lon: 126.978},
	}
	b := gaz.Bounds()
	for lat := b.MinLat - 0.2; lat <= b.MaxLat+0.2; lat += step {
		for lon := b.MinLon - 0.2; lon <= b.MaxLon+0.2; lon += step {
			pts = append(pts, geo.Point{Lat: lat, Lon: lon})
		}
	}
	out := make([]directProbe, len(pts))
	for i, p := range pts {
		q := quantizePoint(p, decimals)
		out[i] = directProbe{p: p, packable: q.Valid()}
		if d, err := gaz.ResolvePoint(q, 10); err != nil {
			out[i].noMatch = true
		} else {
			out[i].want = Location{Country: d.Country, State: d.State, County: d.County}
		}
	}
	return out
}

// TestDirectResolverMatchesGazetteer sweeps a lattice over Korea and the
// edge points through a table small enough to collide on nearly every
// miss, from four goroutines at once, at 3 and at 2 decimals. Every answer
// and every error must be the gazetteer's for the quantised point, and the
// counters must add up whatever the interleaving.
func TestDirectResolverMatchesGazetteer(t *testing.T) {
	gaz := koreaGazetteer(t)
	const workers, slots = 4, 64
	for _, decimals := range []int{3, 2} {
		probes := directProbes(gaz, decimals, 0.061)
		r := NewGazetteerResolver(gaz, 10, slots)
		r.SetQuantizeDecimals(decimals)
		var wg sync.WaitGroup
		errs := make(chan string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ctx := context.Background()
				// Each point twice in a row, each worker from its own
				// offset, so hits, misses and overwrites interleave
				// across goroutines.
				for n := 0; n < 2*len(probes); n++ {
					pr := probes[(n/2+w*len(probes)/workers)%len(probes)]
					loc, err := r.Reverse(ctx, pr.p)
					switch {
					case pr.noMatch && !errors.Is(err, ErrNoMatch):
						errs <- pr.p.String() + ": want ErrNoMatch, got " + loc.County
						return
					case !pr.noMatch && (err != nil || loc != pr.want):
						errs <- pr.p.String() + ": want " + pr.want.County + ", got " + loc.County
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("%d decimals: %s", decimals, e)
		}
		packable := 0
		for _, pr := range probes {
			if pr.packable {
				packable += 2 * workers
			}
		}
		st := r.Stats()
		if st.Hits+st.Misses != int64(packable) {
			t.Errorf("%d decimals: hits %d + misses %d != %d packable calls", decimals, st.Hits, st.Misses, packable)
		}
		occupied := 0
		for i := range r.table {
			if r.table[i].Load() != 0 {
				occupied++
			}
		}
		if st.Entries != occupied || st.Entries > slots {
			t.Errorf("%d decimals: entries %d, %d slots occupied of %d", decimals, st.Entries, occupied, slots)
		}
		if st.Hits == 0 || st.Evictions == 0 {
			t.Errorf("%d decimals: stats %+v, want hits and evictions both exercised", decimals, st)
		}
	}
}

// TestDirectResolverStats pins the counters on one slot: a point that
// replaces another counts an eviction, a repeat is a hit, and a point that
// does not pack (here quantised to 4 decimals) leaves them alone.
func TestDirectResolverStats(t *testing.T) {
	gaz := koreaGazetteer(t)
	r := NewGazetteerResolver(gaz, 10, 1)
	if len(r.table) != 1 {
		t.Fatalf("table of %d slots, want 1", len(r.table))
	}
	ctx := context.Background()
	a, b := geo.Point{Lat: 37.517, Lon: 126.866}, geo.Point{Lat: 35.1796, Lon: 129.0756}
	for _, p := range []geo.Point{a, a, b, a} {
		if _, err := r.Reverse(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if st, want := r.Stats(), (CacheStats{Hits: 1, Misses: 3, Evictions: 2, Entries: 1}); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	r.SetQuantizeDecimals(4)
	if st := r.Stats(); st.Entries != 0 {
		t.Fatalf("entries %d after SetQuantizeDecimals, want the table cleared", st.Entries)
	}
	before := r.Stats()
	for _, p := range []geo.Point{a, a, b} {
		if _, err := r.Reverse(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Stats(); st != before {
		t.Fatalf("4-decimal points moved the counters: %+v -> %+v", before, st)
	}
	if sizes := NewGazetteerResolver(gaz, 10, 65536); len(sizes.table) != 65536 {
		t.Fatalf("65536 entries built %d slots", len(sizes.table))
	}
	if sizes := NewGazetteerResolver(gaz, 10, 1000); len(sizes.table) != 1024 {
		t.Fatalf("1000 entries built %d slots, want the next power of two", len(sizes.table))
	}
}

// TestDirectResolverAllocs pins the hot path: a hit and a miss that finds
// its district allocate nothing.
func TestDirectResolverAllocs(t *testing.T) {
	r := NewGazetteerResolver(koreaGazetteer(t), 10, 1)
	ctx := context.Background()
	a, b := geo.Point{Lat: 37.517, Lon: 126.866}, geo.Point{Lat: 35.1796, Lon: 129.0756}
	if n := testing.AllocsPerRun(100, func() { r.Reverse(ctx, a) }); n != 0 {
		t.Errorf("hit: %v allocs, want 0", n)
	}
	before := r.Stats().Misses
	i := 0
	miss := func() {
		i++
		if i%2 == 0 {
			r.Reverse(ctx, a)
		} else {
			r.Reverse(ctx, b)
		}
	}
	if n := testing.AllocsPerRun(100, miss); n != 0 {
		t.Errorf("miss: %v allocs, want 0", n)
	}
	if misses := r.Stats().Misses - before; misses != 101 {
		t.Errorf("%d misses in 101 alternating calls, want every call to miss", misses)
	}
}
