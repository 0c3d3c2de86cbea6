// Package textnorm refines the free-text profile locations on Twitter into
// administrative districts — the manual filtering step of the paper's §III-B.
// Profiles carry anything from exact addresses and GPS coordinates to vague
// ("my home"), insufficient ("Earth", "Seoul", "Korea") and meaningless
// ("darangland :)") strings, sometimes two locations at once; the classifier
// sorts them into those buckets and extracts the district when one exists.
package textnorm

import (
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"stir/internal/admin"
	"stir/internal/geo"
)

// Quality buckets a profile location string, mirroring the paper's manual
// refinement categories.
type Quality int

const (
	// WellDefined uniquely names one administrative district.
	WellDefined Quality = iota
	// GPSCoordinates means the profile holds literal coordinates (some users
	// paste them); the point still needs reverse geocoding.
	GPSCoordinates
	// Ambiguous names more than one possible district, like the paper's user
	// with both "Gold Coast Australia" and a Seoul district in one field.
	Ambiguous
	// Vague is a relative or personal place: "my home", "everywhere".
	Vague
	// Insufficient is recognisable but too coarse for county-level grouping:
	// "Earth", "Korea", or a bare state like "Seoul".
	Insufficient
	// Meaningless matches nothing at all: "darangland :)".
	Meaningless
)

// String implements fmt.Stringer.
func (q Quality) String() string {
	switch q {
	case WellDefined:
		return "well-defined"
	case GPSCoordinates:
		return "gps-coordinates"
	case Ambiguous:
		return "ambiguous"
	case Vague:
		return "vague"
	case Insufficient:
		return "insufficient"
	case Meaningless:
		return "meaningless"
	default:
		return "unknown"
	}
}

// Usable reports whether the paper's refinement keeps users with this
// quality: only uniquely resolvable locations survive.
func (q Quality) Usable() bool { return q == WellDefined || q == GPSCoordinates }

// Result is one classified profile location.
type Result struct {
	Quality Quality
	// District is set for WellDefined (and for GPSCoordinates after the
	// caller reverse-geocodes Point).
	District *admin.District
	// Candidates holds the competing districts for Ambiguous. It may be a
	// read-only view into the gazetteer's name index: it must not be
	// modified.
	Candidates []*admin.District
	// Point is set for GPSCoordinates.
	Point *geo.Point
	// MatchedText is the fragment that produced the district, for audits.
	MatchedText string
}

// Refiner classifies profile locations against a gazetteer.
type Refiner struct {
	gaz *admin.Gazetteer
	// MaxNGram bounds how many consecutive tokens one district name may
	// span; 4 covers "gold coast australia" style names.
	MaxNGram int
}

// NewRefiner builds a Refiner over the gazetteer.
func NewRefiner(gaz *admin.Gazetteer) *Refiner {
	return &Refiner{gaz: gaz, MaxNGram: 4}
}

// vagueTerms are relative/personal places with no fixed district.
var vagueTerms = termSet(
	"my home", "home", "my house", "house",
	"my room", "somewhere", "everywhere", "nowhere",
	"here", "there", "in your heart", "heart",
	"internet", "online", "twitter", "web",
	"우리집", "집", "어딘가",
)

// planetTerms are recognisable but uselessly coarse, the paper's "Earth"
// case; country names land here too.
var planetTerms = termSet(
	"earth", "world", "the world", "planet earth",
	"moon", "mars", "universe", "asia",
	"korea", "south korea", "republic of korea",
	"대한민국", "한국", "usa", "united states",
	"japan", "china", "uk", "united kingdom",
	"australia", "canada", "france", "germany",
)

// termSet maps each normalised term to itself, so a probe with a scratch
// buffer yields a string Result.MatchedText can keep without a copy.
func termSet(terms ...string) map[string]string {
	m := make(map[string]string, len(terms))
	for _, t := range terms {
		m[t] = t
	}
	return m
}

// Classify buckets one profile location string. Up to the token scan it
// works in a stack buffer, so the vague, planet, meaningless and whole-string
// district paths do not allocate.
func (r *Refiner) Classify(raw string) Result {
	trimmed := strings.TrimSpace(raw)
	if trimmed == "" {
		return Result{Quality: Meaningless}
	}
	if p := parseCoordinates(trimmed); p != nil {
		return Result{Quality: GPSCoordinates, Point: p, MatchedText: trimmed}
	}
	var buf [128]byte
	norm := admin.AppendNormalized(buf[:0], trimmed)
	if len(norm) == 0 {
		return Result{Quality: Meaningless}
	}
	if t, ok := vagueTerms[string(norm)]; ok {
		return Result{Quality: Vague, MatchedText: t}
	}
	if t, ok := planetTerms[string(norm)]; ok {
		return Result{Quality: Insufficient, MatchedText: t}
	}

	// Whole-string match first: cheapest and least ambiguous. A district
	// spelling wins over a state of the same spelling; a bare state
	// ("Seoul", "경기도") is recognisable but too coarse.
	name := r.gaz.Lookup(norm)
	switch {
	case len(name.Districts) == 1:
		return Result{Quality: WellDefined, District: name.Districts[0], MatchedText: name.Form}
	case len(name.Districts) > 1:
		return Result{Quality: Ambiguous, Candidates: name.Districts, MatchedText: name.Form}
	case name.State != "":
		return Result{Quality: Insufficient, MatchedText: name.State}
	}

	// Token scan: find district names and state names anywhere in the text.
	return r.scanTokens(norm)
}

// scanTokens collects every district and state mention in the normalised
// text, then reconciles them.
func (r *Refiner) scanTokens(norm []byte) Result {
	var buf [8]admin.Name
	found := buf[:0]
	ScanNames(r.gaz, norm, r.MaxNGram, func(n admin.Name) bool {
		found = append(found, n)
		return true
	})
	var districts []*admin.District
	states := false
	for _, n := range found {
		if len(n.Districts) == 0 {
			states = true
		} else {
			districts = appendNew(districts, n.Districts)
		}
	}
	// A state mention disambiguates same-named counties ("Jung-gu" + "Busan").
	if states && len(districts) > 1 {
		var narrowed []*admin.District
		for _, d := range districts {
			named := func(n admin.Name) bool { return len(n.Districts) == 0 && n.State == d.State }
			if slices.ContainsFunc(found, named) {
				narrowed = append(narrowed, d)
			}
		}
		if len(narrowed) > 0 {
			districts = narrowed
		}
	}
	switch {
	case len(districts) == 1:
		return Result{Quality: WellDefined, District: districts[0], MatchedText: joinForms(found)}
	case len(districts) > 1:
		// Same county name across states, or genuinely two places listed.
		return Result{Quality: Ambiguous, Candidates: districts, MatchedText: joinForms(found)}
	case states:
		return Result{Quality: Insufficient, MatchedText: joinForms(found)}
	default:
		return Result{Quality: Meaningless}
	}
}

// appendNew appends the districts of add that dst does not hold yet. The
// gazetteer rejects duplicate IDs, so pointer identity is district identity.
// A nil dst becomes the index view add itself; views have no spare capacity,
// so the first append that adds a district copies rather than writing into
// the index.
func appendNew(dst, add []*admin.District) []*admin.District {
	if dst == nil {
		return add
	}
	for _, d := range add {
		if !slices.Contains(dst, d) {
			dst = append(dst, d)
		}
	}
	return dst
}

// joinForms renders the matched fragments in scan order, " + " between them.
func joinForms(found []admin.Name) string {
	if len(found) == 1 {
		return found[0].Form
	}
	var b strings.Builder
	for i, n := range found {
		if i > 0 {
			b.WriteString(" + ")
		}
		b.WriteString(n.Form)
	}
	return b.String()
}

// token is one whitespace-separated token of a scanned string, by offset.
type token struct {
	start, end int
	used       bool // claimed by a longer or earlier n-gram
}

// ScanNames walks the n-grams of norm, a normalised string, longest first
// and left to right, and offers every gazetteer entry one of them spells to
// claim. Once claim accepts an entry, the n-grams overlapping its tokens are
// skipped, so "gold coast australia" shadows "gold". Tokens split like
// strings.Fields and an n-gram is its tokens joined by single spaces; the
// probe is a slice of norm, copied only when norm holds whitespace other
// than single spaces. maxN below 1 counts as 1. For up to 32 tokens the
// scan does not allocate.
func ScanNames(g *admin.Gazetteer, norm []byte, maxN int, claim func(admin.Name) bool) {
	var buf [32]token
	toks, single := tokenize(buf[:0], norm)
	if !single {
		spaced := make([]byte, 0, len(norm))
		for i, t := range toks {
			if i > 0 {
				spaced = append(spaced, ' ')
			}
			spaced = append(spaced, norm[t.start:t.end]...)
		}
		norm = spaced
		toks, _ = tokenize(toks[:0], norm)
	}
	for n := min(max(maxN, 1), len(toks)); n >= 1; n-- {
		for i := 0; i+n <= len(toks); i++ {
			span := toks[i : i+n]
			if slices.ContainsFunc(span, func(t token) bool { return t.used }) {
				continue
			}
			name := g.Lookup(norm[span[0].start:span[n-1].end])
			if name.Form == "" || !claim(name) {
				continue
			}
			for j := range span {
				span[j].used = true
			}
		}
	}
}

// tokenize appends the token offsets of s to toks and reports whether the
// tokens are separated by exactly one ' ' each, with nothing before the
// first or after the last: then every n-gram is a slice of s.
func tokenize(toks []token, s []byte) ([]token, bool) {
	start := -1
	for i := 0; i < len(s); {
		r, w := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, w = utf8.DecodeRune(s[i:])
		}
		switch {
		case !unicode.IsSpace(r):
			if start < 0 {
				start = i
			}
		case start >= 0:
			toks = append(toks, token{start: start, end: i})
			start = -1
		}
		i += w
	}
	if start >= 0 {
		toks = append(toks, token{start: start, end: len(s)})
	}
	single := len(toks) == 0 && len(s) == 0 ||
		len(toks) > 0 && toks[0].start == 0 && toks[len(toks)-1].end == len(s)
	for i := 1; single && i < len(toks); i++ {
		single = toks[i].start == toks[i-1].end+1 && s[toks[i-1].end] == ' '
	}
	return toks, single
}

// parseCoordinates recognises "37.53, 126.97"-style literal coordinates:
// exactly two decimal numbers in valid ranges, separated by a comma and/or
// whitespace, with at least one fractional part (so "3 14" is not a match).
// It returns nil, without allocating, for text that is no coordinate pair.
func parseCoordinates(s string) *geo.Point {
	var fields [2]string
	n := 0
	for i := 0; i < len(s); {
		if isCoordSep(s[i]) {
			i++
			continue
		}
		j := i
		for j < len(s) && !isCoordSep(s[j]) {
			j++
		}
		if n == len(fields) {
			return nil
		}
		fields[n] = s[i:j]
		n++
		i = j
	}
	if n != 2 {
		return nil
	}
	if !strings.Contains(fields[0], ".") && !strings.Contains(fields[1], ".") {
		return nil
	}
	// ParseFloat allocates its error. A field without a digit can parse
	// only as Inf or NaN, which are no coordinates, so skip the attempt.
	if !strings.ContainsAny(fields[0], digits) || !strings.ContainsAny(fields[1], digits) {
		return nil
	}
	lat, err1 := strconv.ParseFloat(fields[0], 64)
	lon, err2 := strconv.ParseFloat(fields[1], 64)
	if err1 != nil || err2 != nil {
		return nil
	}
	p := geo.Point{Lat: lat, Lon: lon}
	if !p.Valid() {
		return nil
	}
	return &p
}

const digits = "0123456789"

// isCoordSep reports the separators of a coordinate pair. All are ASCII, so
// a byte scan splits exactly where a rune scan would.
func isCoordSep(c byte) bool {
	return c == ',' || c == ' ' || c == '\t' || c == ';' || c == '/'
}
