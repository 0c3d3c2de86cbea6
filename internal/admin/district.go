// Package admin provides the administrative-district gazetteer STIR groups
// locations by: the Korean hierarchy of provinces / metropolitan cities
// (states) and si/gu/gun (counties) used by the paper's Korean dataset, plus
// a coarse worldwide city gazetteer used by the Lady Gaga dataset.
//
// The gazetteer answers two questions:
//
//   - reverse geocoding: which district contains (or is nearest to) a point;
//   - name resolution: which district a free-text location string refers to.
package admin

import (
	"bytes"
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"stir/internal/geo"
)

// Level describes how precise a district reference is.
type Level int

const (
	// LevelCountry means only the country is known (insufficient for STIR).
	LevelCountry Level = iota
	// LevelState means a province / metropolitan city is known.
	LevelState
	// LevelCounty means a si/gu/gun (or world city) is known — the
	// granularity the paper groups by.
	LevelCounty
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelCountry:
		return "country"
	case LevelState:
		return "state"
	case LevelCounty:
		return "county"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// District is one administrative district (a <state>,<county> pair in the
// paper's Yahoo-API terminology).
type District struct {
	Country    string    // ISO-like country code, e.g. "KR", "US"
	State      string    // province or metropolitan city, e.g. "Seoul"
	County     string    // si/gu/gun or world city, e.g. "Yangcheon-gu"
	Center     geo.Point // representative centre
	RadiusKm   float64   // approximate radius of the district's extent
	Population int       // approximate population, used as a sampling weight
	Metro      bool      // part of a metropolitan city (paper splits these into gu)
	Aliases    []string  // extra spellings seen in free-text profiles
}

// ID returns the district's stable identifier "Country/State/County".
func (d *District) ID() string {
	return d.Country + "/" + d.State + "/" + d.County
}

// Key returns the "state#county" form used in the paper's location strings.
func (d *District) Key() string {
	return d.State + "#" + d.County
}

// Bounds returns a conservative bounding rectangle for the district.
func (d *District) Bounds() geo.Rect {
	return geo.RectAround(d.Center, d.RadiusKm)
}

// NormalizeName lowercases, trims and collapses interior whitespace and
// strips decorative punctuation; it is the canonical form for name lookups.
func NormalizeName(s string) string {
	var buf [64]byte
	return string(AppendNormalized(buf[:0], s))
}

// AppendNormalized appends NormalizeName(s) to dst and returns the extended
// buffer. Given a buffer with room for the result it does not allocate, so
// callers can normalise into a stack array and probe Gazetteer.Lookup.
func AppendNormalized(dst []byte, s string) []byte {
	s = strings.TrimSpace(s)
	start := len(dst)
	lastSpace := false
	for _, r := range s {
		switch r = unicode.ToLower(r); r {
		case ' ', '\t', ',', '.', '_':
			if !lastSpace && len(dst) > start {
				dst = append(dst, ' ')
				lastSpace = true
			}
		default:
			dst = utf8.AppendRune(dst, r)
			lastSpace = false
		}
	}
	// A trailing delimiter leaves a space, and unicode spaces other than
	// ' ' and '\t' survive next to delimiters at either end: trim them all.
	n := copy(dst[start:], bytes.TrimSpace(dst[start:]))
	return dst[:start+n]
}

// suffixes that Korean romanised district names carry; names are indexed
// both with and without them ("yangcheon-gu", "yangcheon gu", "yangcheon").
var koreanSuffixes = []string{"-gu", "-si", "-gun", "-do"}

// nameForms expands a district name into the spellings a free-text profile
// might use.
func nameForms(name string) []string {
	n := NormalizeName(name)
	forms := []string{n}
	for _, suf := range koreanSuffixes {
		if strings.HasSuffix(n, suf) {
			bare := strings.TrimSuffix(n, suf)
			forms = append(forms, bare, bare+" "+suf[1:])
			break
		}
	}
	return forms
}
