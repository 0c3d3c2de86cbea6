package geocode

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"stir/internal/admin"
	"stir/internal/geo"
)

// DirectResolver is the in-process reverse geocoder: district point
// resolution through a gazetteer, behind a point memo. Every answer is the
// gazetteer's answer for the quantised point, so the memo changes only how
// often the gazetteer is asked. Stream shards, cluster workers and the
// batch pipeline share one, so the memo takes no lock.
//
// The memo is a direct-mapped table of 64-bit words, one per slot: a word
// packs a quantised point, in thousandths of a degree, with the position
// + 1 of its district in the gazetteer's Districts (0 is an empty slot). A
// lookup is one atomic load and a miss one atomic swap; neither
// allocates, and the table holds no pointer for the collector to scan. A
// point that does not pack (invalid, or quantised to more than 3
// decimals) and a point no district is near go straight to the gazetteer
// and never enter the table.
type DirectResolver struct {
	gaz     *admin.Gazetteer
	slackKm float64
	quant   int

	table []atomic.Uint64
	shift uint // 64 - log2(len(table)): a hash's top bits pick the slot

	hits, misses, evictions, entries atomic.Int64
}

// Word layout: an 18-bit latitude and a 19-bit longitude, both offset to
// be non-negative, above a 27-bit district position.
const (
	keyScale = 1000 // the table keys points in thousandths of a degree
	lonBits  = 19   // 360001 longitudes
	posBits  = 64 - 18 - lonBits
	posMask  = 1<<posBits - 1
)

// NewGazetteerResolver is the in-process reverse geocoder over gaz, its
// memo sized to the next power of two of at least cacheSize slots. slackKm
// follows the Server rule: 0 means the 10 km default, negative disables
// the nearest-district fallback.
func NewGazetteerResolver(gaz *admin.Gazetteer, slackKm float64, cacheSize int) *DirectResolver {
	if slackKm == 0 {
		slackKm = 10
	}
	slots := 1
	if cacheSize > 1 {
		slots = 1 << bits.Len(uint(cacheSize-1))
	}
	return &DirectResolver{
		gaz:     gaz,
		slackKm: slackKm,
		quant:   3,
		table:   make([]atomic.Uint64, slots),
		shift:   uint(64 - bits.TrailingZeros(uint(slots))),
	}
}

// Reverse implements Resolver.
func (d *DirectResolver) Reverse(_ context.Context, p geo.Point) (Location, error) {
	q := quantizePoint(p, d.quant)
	key, ok := d.pack(q)
	if !ok {
		dist, err := d.gaz.ResolvePoint(q, d.slackKm)
		if err != nil {
			return Location{}, fmt.Errorf("%w: %s", ErrNoMatch, p)
		}
		return locationOf(dist), nil
	}
	slot := &d.table[key*0x9e3779b97f4a7c15>>d.shift]
	if w := slot.Load(); w != 0 && w>>posBits == key {
		d.hits.Add(1)
		return locationOf(d.gaz.Districts()[w&posMask-1]), nil
	}
	d.misses.Add(1)
	pos, err := d.gaz.ResolveIndex(q, d.slackKm)
	if err != nil {
		return Location{}, fmt.Errorf("%w: %s", ErrNoMatch, p)
	}
	if w := uint64(pos) + 1; w <= posMask {
		switch old := slot.Swap(key<<posBits | w); {
		case old == 0:
			d.entries.Add(1)
		case old>>posBits != key:
			d.evictions.Add(1)
		}
	}
	return locationOf(d.gaz.Districts()[pos]), nil
}

// pack returns the table key of a quantised point: its latitude and
// longitude in thousandths of a degree, offset to be non-negative. A point
// out of range, NaN, or quantised finer than a thousandth does not pack.
func (d *DirectResolver) pack(q geo.Point) (uint64, bool) {
	if d.quant < 0 || d.quant > 3 {
		return 0, false
	}
	lat, lon := math.Round(q.Lat*keyScale), math.Round(q.Lon*keyScale)
	if !(lat >= -90*keyScale && lat <= 90*keyScale && lon >= -180*keyScale && lon <= 180*keyScale) {
		return 0, false
	}
	return uint64(lat+90*keyScale)<<lonBits | uint64(lon+180*keyScale), true
}

func locationOf(d *admin.District) Location {
	return Location{Country: d.Country, State: d.State, County: d.County}
}

// Stats implements StatsProvider. Hits and misses count the calls whose
// point packs; an eviction is a miss that overwrote a slot holding another
// point; entries are the occupied slots.
func (d *DirectResolver) Stats() CacheStats {
	return CacheStats{
		Hits:      d.hits.Load(),
		Misses:    d.misses.Load(),
		Evictions: d.evictions.Load(),
		Entries:   int(d.entries.Load()),
	}
}

// SetQuantizeDecimals sets the coordinate quantisation (the memo's cell
// size) and empties the table: 3 ≈ 110 m (default), 2 ≈ 1.1 km — coarse
// enough for county-level grouping and far more memo-effective. More than
// 3 decimals, or a negative count (no quantisation), bypasses the table.
// Call it before the resolver is shared.
func (d *DirectResolver) SetQuantizeDecimals(n int) {
	d.quant = n
	for i := range d.table {
		if d.table[i].Swap(0) != 0 {
			d.entries.Add(-1)
		}
	}
}
