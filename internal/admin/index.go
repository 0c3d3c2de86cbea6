package admin

import (
	"cmp"
	"math"
	"slices"

	"stir/internal/geo"
)

// leafSize is how many districts one leaf of the point index holds.
const leafSize = 16

// fallbackCandidates is how many bbox-nearest districts the slack fallback
// weighs.
const fallbackCandidates = 8

// indexEntry is one district as the point index stores it: all a point
// query reads, so a leaf scan never dereferences a District.
type indexEntry struct {
	box    geo.Rect
	center geo.Point
	radius float64
	pos    int // position in Gazetteer.Districts()
}

// districtIndex is the gazetteer's static point index. The districts are
// packed once, Sort-Tile-Recursive style (Leutenegger et al. 1997), into
// leaves of leafSize entries, with one flat slice of leaf boxes above
// them: leaf i holds entries[i*leafSize : min((i+1)*leafSize, len)] and
// leaves[i] bounds them.
//
// Every query breaks an exact tie in favour of the earlier district in
// Districts(), so no answer depends on the packing order and a plain loop
// over Districts() is a full oracle.
type districtIndex struct {
	entries []indexEntry
	leaves  []geo.Rect
}

func newDistrictIndex(districts []*District) districtIndex {
	n := len(districts)
	entries := make([]indexEntry, n)
	for i, d := range districts {
		entries[i] = indexEntry{box: d.Bounds(), center: d.Center, radius: d.RadiusKm, pos: i}
	}
	if n == 0 {
		return districtIndex{}
	}
	// Sort by centre longitude and cut into vertical strips of whole
	// leaves, then sort each strip by centre latitude, so every leaf but
	// the last is full and covers a compact patch.
	leafCount := (n + leafSize - 1) / leafSize
	strips := int(math.Ceil(math.Sqrt(float64(leafCount))))
	perStrip := (leafCount + strips - 1) / strips * leafSize
	slices.SortStableFunc(entries, func(a, b indexEntry) int { return cmp.Compare(a.center.Lon, b.center.Lon) })
	for lo := 0; lo < n; lo += perStrip {
		slices.SortStableFunc(entries[lo:min(lo+perStrip, n)], func(a, b indexEntry) int {
			return cmp.Compare(a.center.Lat, b.center.Lat)
		})
	}
	leaves := make([]geo.Rect, leafCount)
	for i := range leaves {
		leaf := entries[i*leafSize : min((i+1)*leafSize, n)]
		leaves[i] = leaf[0].box
		for _, e := range leaf[1:] {
			leaves[i] = leaves[i].Union(e.box)
		}
	}
	return districtIndex{entries: entries, leaves: leaves}
}

// leaf returns the entries of leaf i.
func (x *districtIndex) leaf(i int) []indexEntry {
	return x.entries[i*leafSize : min((i+1)*leafSize, len(x.entries))]
}

// containing returns the position of the district whose circular extent
// holds p with the closest centre, or -1.
func (x *districtIndex) containing(p geo.Point) int {
	best, bestD := -1, 0.0
	for i, box := range x.leaves {
		if !box.Contains(p) {
			continue
		}
		for _, e := range x.leaf(i) {
			if !e.box.Contains(p) {
				continue
			}
			d := e.center.DistanceKm(p)
			if d > e.radius {
				continue // in the bounding box but outside the circular extent
			}
			if best < 0 || d < bestD || d == bestD && e.pos < best {
				best, bestD = e.pos, d
			}
		}
	}
	return best
}

// fallback returns the position of the district, among the
// fallbackCandidates whose boxes lie nearest p, whose approximate boundary
// p lies least far outside, provided that is within slackKm; or -1.
func (x *districtIndex) fallback(p geo.Point, slackKm float64) int {
	var buf [fallbackCandidates]boxCandidate
	best, bestOver := -1, 0.0
	for _, c := range x.nearest(buf[:0], p, fallbackCandidates) {
		e := &x.entries[c.at]
		over := e.center.DistanceKm(p) - e.radius
		if over <= slackKm && (best < 0 || over < bestOver || over == bestOver && e.pos < best) {
			best, bestOver = e.pos, over
		}
	}
	return best
}

// boxCandidate is a district ranked by the degree-space distance of its
// bounding box from a query point.
type boxCandidate struct {
	d2  float64 // squared degree-space distance of the box from the point
	pos int     // position in Gazetteer.Districts()
	at  int     // index into districtIndex.entries
}

func (c boxCandidate) before(o boxCandidate) bool {
	return c.d2 < o.d2 || c.d2 == o.d2 && c.pos < o.pos
}

// nearest appends to dst, which must be empty, the k districts whose boxes
// lie nearest p, ordered by box distance and then position, and returns
// it. Given a dst with capacity for them it does not allocate.
func (x *districtIndex) nearest(dst []boxCandidate, p geo.Point, k int) []boxCandidate {
	if k <= 0 {
		return dst
	}
	for i, box := range x.leaves {
		if len(dst) == k && box.DistanceSqDeg(p) > dst[k-1].d2 {
			continue // nothing in this leaf can displace the k-th candidate
		}
		for j, e := range x.leaf(i) {
			c := boxCandidate{d2: e.box.DistanceSqDeg(p), pos: e.pos, at: i*leafSize + j}
			switch {
			case len(dst) < k:
				dst = append(dst, c)
			case c.before(dst[k-1]):
				dst[k-1] = c
			default:
				continue
			}
			for m := len(dst) - 1; m > 0 && dst[m].before(dst[m-1]); m-- {
				dst[m], dst[m-1] = dst[m-1], dst[m]
			}
		}
	}
	return dst
}
