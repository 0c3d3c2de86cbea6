package gis

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"stir/internal/geo"
)

// koreaExtent approximates the paper's study area.
var koreaExtent = geo.Rect{MinLat: 33, MinLon: 124, MaxLat: 39, MaxLon: 132}

func randRectIn(r *rand.Rand, extent geo.Rect) geo.Rect {
	lat := extent.MinLat + r.Float64()*(extent.MaxLat-extent.MinLat)
	lon := extent.MinLon + r.Float64()*(extent.MaxLon-extent.MinLon)
	return geo.RectAround(geo.Point{Lat: lat, Lon: lon}, 0.5+r.Float64()*20)
}

func randPointIn(r *rand.Rand, extent geo.Rect) geo.Point {
	return geo.Point{
		Lat: extent.MinLat + r.Float64()*(extent.MaxLat-extent.MinLat),
		Lon: extent.MinLon + r.Float64()*(extent.MaxLon-extent.MinLon),
	}
}

func buildIndexes(r *rand.Rand, n int) (*RTree, *Grid, *Linear) {
	rt := NewRTree()
	gr := NewGrid(koreaExtent, 32, 32)
	ln := NewLinear()
	for i := 0; i < n; i++ {
		it := Item{Bounds: randRectIn(r, koreaExtent), Value: i}
		rt.Insert(it)
		gr.Insert(it)
		ln.Insert(it)
	}
	return rt, gr, ln
}

func valueSet(items []Item) map[int]bool {
	m := make(map[int]bool, len(items))
	for _, it := range items {
		m[it.Value.(int)] = true
	}
	return m
}

func sameSet(a, b []Item) bool {
	sa, sb := valueSet(a), valueSet(b)
	if len(sa) != len(sb) {
		return false
	}
	for k := range sa {
		if !sb[k] {
			return false
		}
	}
	return true
}

func TestRTreeMatchesLinearSearchPoint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rt, gr, ln := buildIndexes(r, 200)
		for i := 0; i < 30; i++ {
			p := randPointIn(r, koreaExtent)
			want := ln.SearchPoint(p)
			if !sameSet(rt.SearchPoint(p), want) {
				return false
			}
			if !sameSet(gr.SearchPoint(p), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestRTreeAppendPoint pins AppendPoint to SearchPoint: the same items in
// the same order, after whatever dst already held.
func TestRTreeAppendPoint(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	rt, _, _ := buildIndexes(r, 200)
	prefix := Item{Value: -1}
	for i := 0; i < 50; i++ {
		p := randPointIn(r, koreaExtent)
		want := rt.SearchPoint(p)
		got := rt.AppendPoint([]Item{prefix}, p)
		if len(got) != len(want)+1 || got[0].Value != -1 {
			t.Fatalf("%v: appended %d items after the prefix, want %d", p, len(got)-1, len(want))
		}
		for j, it := range want {
			if got[j+1] != it {
				t.Fatalf("%v: item %d = %v, want %v", p, j, got[j+1].Value, it.Value)
			}
		}
	}
	if got := NewRTree().AppendPoint(nil, geo.Point{}); got != nil {
		t.Fatalf("empty tree appended %v", got)
	}
}

func TestRTreeMatchesLinearSearchRect(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rt, gr, ln := buildIndexes(r, 200)
		for i := 0; i < 20; i++ {
			q := randRectIn(r, koreaExtent)
			want := ln.SearchRect(q)
			if !sameSet(rt.SearchRect(q), want) {
				return false
			}
			if !sameSet(gr.SearchRect(q), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func nearestDists(items []Item, p geo.Point) []float64 {
	out := make([]float64, len(items))
	for i, it := range items {
		out[i] = it.Bounds.DistanceSqDeg(p)
	}
	return out
}

func TestNearestMatchesLinearDistances(t *testing.T) {
	// Nearest may tie-break differently between implementations, so compare
	// the distance sequences rather than the identities.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rt, gr, ln := buildIndexes(r, 150)
		for i := 0; i < 10; i++ {
			p := randPointIn(r, koreaExtent)
			k := 1 + r.Intn(8)
			want := nearestDists(ln.Nearest(p, k), p)
			gotRT := nearestDists(rt.Nearest(p, k), p)
			gotGR := nearestDists(gr.Nearest(p, k), p)
			if len(gotRT) != len(want) || len(gotGR) != len(want) {
				return false
			}
			for j := range want {
				if gotRT[j]-want[j] > 1e-12 || want[j]-gotRT[j] > 1e-12 {
					return false
				}
				if gotGR[j]-want[j] > 1e-12 || want[j]-gotGR[j] > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestRTreeInvariantsAfterInserts(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	rt := NewRTree()
	for i := 0; i < 2000; i++ {
		rt.Insert(Item{Bounds: randRectIn(r, koreaExtent), Value: i})
		if i%251 == 0 {
			if msg := rt.checkInvariants(); msg != "" {
				t.Fatalf("after %d inserts: %s", i+1, msg)
			}
		}
	}
	if msg := rt.checkInvariants(); msg != "" {
		t.Fatal(msg)
	}
	if rt.Len() != 2000 {
		t.Fatalf("Len = %d, want 2000", rt.Len())
	}
	if rt.Depth() < 3 {
		t.Fatalf("Depth = %d, expected a multi-level tree for 2000 items", rt.Depth())
	}
}

func TestRTreeEmpty(t *testing.T) {
	rt := NewRTree()
	if got := rt.SearchPoint(geo.Point{Lat: 37, Lon: 127}); got != nil {
		t.Fatalf("empty SearchPoint = %v", got)
	}
	if got := rt.SearchRect(koreaExtent); got != nil {
		t.Fatalf("empty SearchRect = %v", got)
	}
	if got := rt.Nearest(geo.Point{}, 5); got != nil {
		t.Fatalf("empty Nearest = %v", got)
	}
	if rt.Len() != 0 || rt.Depth() != 1 {
		t.Fatal("empty tree shape wrong")
	}
}

func TestRTreeSingleItem(t *testing.T) {
	rt := NewRTree()
	b := geo.RectAround(geo.Point{Lat: 37.5, Lon: 127}, 5)
	rt.Insert(Item{Bounds: b, Value: "only"})
	hits := rt.SearchPoint(geo.Point{Lat: 37.5, Lon: 127})
	if len(hits) != 1 || hits[0].Value != "only" {
		t.Fatalf("hits = %v", hits)
	}
	if got := rt.SearchPoint(geo.Point{Lat: 35, Lon: 129}); len(got) != 0 {
		t.Fatalf("miss returned %v", got)
	}
}

func TestRTreeFanoutClamping(t *testing.T) {
	rt := NewRTreeWithFanout(100, 2)
	if rt.maxEntries < 4 || rt.minEntries < 2 || rt.minEntries > rt.maxEntries/2 {
		t.Fatalf("fanout not clamped: min=%d max=%d", rt.minEntries, rt.maxEntries)
	}
	// Tree must still work.
	r := rand.New(rand.NewSource(3))
	ln := NewLinear()
	for i := 0; i < 300; i++ {
		it := Item{Bounds: randRectIn(r, koreaExtent), Value: i}
		rt.Insert(it)
		ln.Insert(it)
	}
	p := randPointIn(r, koreaExtent)
	if !sameSet(rt.SearchPoint(p), ln.SearchPoint(p)) {
		t.Fatal("clamped-fanout tree disagrees with oracle")
	}
}

func TestNearestOrderingIsSorted(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	rt, _, _ := buildIndexes(r, 300)
	p := randPointIn(r, koreaExtent)
	got := nearestDists(rt.Nearest(p, 20), p)
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("Nearest distances not ascending: %v", got)
	}
}

func TestGridOutOfExtentClamped(t *testing.T) {
	gr := NewGrid(koreaExtent, 8, 8)
	// Item fully outside the extent should still be insertable and findable
	// via rect search touching the boundary cell.
	out := geo.RectAround(geo.Point{Lat: 50, Lon: 140}, 5)
	gr.Insert(Item{Bounds: out, Value: "out"})
	hits := gr.SearchRect(out)
	if len(hits) != 1 {
		t.Fatalf("out-of-extent item not found: %v", hits)
	}
}

func TestGridDegenerateExtent(t *testing.T) {
	gr := NewGrid(geo.Rect{MinLat: 37, MaxLat: 37, MinLon: 127, MaxLon: 127}, 4, 4)
	gr.Insert(Item{Bounds: geo.RectAround(geo.Point{Lat: 37, Lon: 127}, 1), Value: 1})
	if got := gr.SearchPoint(geo.Point{Lat: 37, Lon: 127}); len(got) != 1 {
		t.Fatalf("degenerate-extent grid lookup = %v", got)
	}
}

func TestNearestKLargerThanN(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	rt, gr, ln := buildIndexes(r, 10)
	p := randPointIn(r, koreaExtent)
	for name, idx := range map[string]Index{"rtree": rt, "grid": gr, "linear": ln} {
		if got := idx.Nearest(p, 50); len(got) != 10 {
			t.Errorf("%s: Nearest k>n returned %d items, want 10", name, len(got))
		}
	}
}

func ExampleRTree() {
	rt := NewRTree()
	rt.Insert(Item{Bounds: geo.RectAround(geo.Point{Lat: 37.57, Lon: 126.98}, 5), Value: "Jongno-gu"})
	rt.Insert(Item{Bounds: geo.RectAround(geo.Point{Lat: 35.18, Lon: 129.08}, 5), Value: "Busanjin-gu"})
	hits := rt.SearchPoint(geo.Point{Lat: 37.57, Lon: 126.98})
	fmt.Println(len(hits), hits[0].Value)
	// Output: 1 Jongno-gu
}
