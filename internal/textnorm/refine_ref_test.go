package textnorm

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"stir/internal/admin"
	"stir/internal/geo"
	"stir/internal/synth"
	"stir/internal/twitter"
)

// This file keeps Classify as it was before the compiled name index — the
// n-gram scan over strings.Join, the allocating normaliser and coordinate
// parser, and a dedupe that filters in place — as the oracle the fast
// Classify must agree with. Its gazetteer lookups are ResolveName and
// IsState, which admin's own reference test holds to their old logic.

var (
	refVagueTerms = map[string]bool{
		"my home": true, "home": true, "my house": true, "house": true,
		"my room": true, "somewhere": true, "everywhere": true, "nowhere": true,
		"here": true, "there": true, "in your heart": true, "heart": true,
		"internet": true, "online": true, "twitter": true, "web": true,
		"우리집": true, "집": true, "어딘가": true,
	}
	refPlanetTerms = map[string]bool{
		"earth": true, "world": true, "the world": true, "planet earth": true,
		"moon": true, "mars": true, "universe": true, "asia": true,
		"korea": true, "south korea": true, "republic of korea": true,
		"대한민국": true, "한국": true, "usa": true, "united states": true,
		"japan": true, "china": true, "uk": true, "united kingdom": true,
		"australia": true, "canada": true, "france": true, "germany": true,
	}
)

func refNormalizeName(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	var b strings.Builder
	lastSpace := false
	for _, r := range s {
		switch {
		case r == ' ' || r == '\t' || r == ',' || r == '.' || r == '_':
			if !lastSpace && b.Len() > 0 {
				b.WriteByte(' ')
				lastSpace = true
			}
		default:
			b.WriteRune(r)
			lastSpace = false
		}
	}
	return strings.TrimSpace(b.String())
}

func refClassify(r *Refiner, raw string) Result {
	trimmed := strings.TrimSpace(raw)
	if trimmed == "" {
		return Result{Quality: Meaningless}
	}
	if p, ok := refParseCoordinates(trimmed); ok {
		return Result{Quality: GPSCoordinates, Point: &p, MatchedText: trimmed}
	}
	norm := refNormalizeName(trimmed)
	if norm == "" {
		return Result{Quality: Meaningless}
	}
	if refVagueTerms[norm] {
		return Result{Quality: Vague, MatchedText: norm}
	}
	if refPlanetTerms[norm] {
		return Result{Quality: Insufficient, MatchedText: norm}
	}
	if ds := r.gaz.ResolveName(norm); len(ds) == 1 {
		return Result{Quality: WellDefined, District: ds[0], MatchedText: norm}
	} else if len(ds) > 1 {
		return Result{Quality: Ambiguous, Candidates: ds, MatchedText: norm}
	}
	if state, ok := r.gaz.IsState(norm); ok {
		return Result{Quality: Insufficient, MatchedText: state}
	}
	return refScanTokens(r, norm)
}

func refScanTokens(r *Refiner, norm string) Result {
	tokens := strings.Fields(norm)
	maxN := r.MaxNGram
	if maxN < 1 {
		maxN = 1
	}
	var (
		districts []*admin.District
		states    []string
		matched   []string
	)
	used := make([]bool, len(tokens))
	for n := maxN; n >= 1; n-- {
		for i := 0; i+n <= len(tokens); i++ {
			if slices.Contains(used[i:i+n], true) {
				continue
			}
			frag := strings.Join(tokens[i:i+n], " ")
			if ds := r.gaz.ResolveName(frag); len(ds) > 0 {
				districts = append(districts, ds...)
				matched = append(matched, frag)
				for j := i; j < i+n; j++ {
					used[j] = true
				}
				continue
			}
			if st, ok := r.gaz.IsState(frag); ok {
				states = append(states, st)
				matched = append(matched, frag)
				for j := i; j < i+n; j++ {
					used[j] = true
				}
			}
		}
	}
	seen := make(map[string]bool, len(districts))
	out := districts[:0]
	for _, d := range districts {
		if !seen[d.ID()] {
			seen[d.ID()] = true
			out = append(out, d)
		}
	}
	districts = out
	if len(states) > 0 && len(districts) > 1 {
		var narrowed []*admin.District
		for _, d := range districts {
			if slices.Contains(states, d.State) {
				narrowed = append(narrowed, d)
			}
		}
		if len(narrowed) > 0 {
			districts = narrowed
		}
	}
	switch {
	case len(districts) == 1:
		return Result{Quality: WellDefined, District: districts[0], MatchedText: strings.Join(matched, " + ")}
	case len(districts) > 1:
		return Result{Quality: Ambiguous, Candidates: districts, MatchedText: strings.Join(matched, " + ")}
	case len(states) > 0:
		return Result{Quality: Insufficient, MatchedText: strings.Join(matched, " + ")}
	default:
		return Result{Quality: Meaningless}
	}
}

func refParseCoordinates(s string) (geo.Point, bool) {
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t' || r == ';' || r == '/'
	})
	if len(fields) != 2 {
		return geo.Point{}, false
	}
	lat, err1 := strconv.ParseFloat(fields[0], 64)
	lon, err2 := strconv.ParseFloat(fields[1], 64)
	if err1 != nil || err2 != nil {
		return geo.Point{}, false
	}
	if !strings.Contains(fields[0], ".") && !strings.Contains(fields[1], ".") {
		return geo.Point{}, false
	}
	p, err := geo.NewPoint(lat, lon)
	if err != nil {
		return geo.Point{}, false
	}
	return p, true
}

// diffResult describes how got differs from want, or returns "".
func diffResult(got, want Result) string {
	ids := func(ds []*admin.District) []string {
		out := make([]string, len(ds))
		for i, d := range ds {
			out[i] = d.ID()
		}
		return out
	}
	switch {
	case got.Quality != want.Quality:
		return fmt.Sprintf("quality %v, reference %v", got.Quality, want.Quality)
	case got.District != want.District:
		return fmt.Sprintf("district %v, reference %v", got.District, want.District)
	case !slices.Equal(ids(got.Candidates), ids(want.Candidates)):
		return fmt.Sprintf("candidates %v, reference %v", ids(got.Candidates), ids(want.Candidates))
	case got.MatchedText != want.MatchedText:
		return fmt.Sprintf("matched %q, reference %q", got.MatchedText, want.MatchedText)
	case (got.Point == nil) != (want.Point == nil) || got.Point != nil && *got.Point != *want.Point:
		return fmt.Sprintf("point %v, reference %v", got.Point, want.Point)
	}
	return ""
}

// tableInputs are the inputs of this package's table tests, plus shapes
// that exercise the scanner's edges: whitespace NormalizeName keeps, more
// tokens than the scanner's stack buffer, numbers that are no coordinates.
var tableInputs = []string{
	"Yangcheon-gu", "Seoul Yangcheon-gu", "Yangcheon-gu, Seoul, Korea", "양천구",
	"Uiwang-si", "uiwang", "Bucheon-si, Gyeonggi-do", "I live in Haeundae now",
	"Gold Coast Australia", "NYC", "Jung-gu, Busan", "Seoul", "서울", "Korea",
	"대한민국", "Earth", "Gyeonggi-do", "경기도", "planet earth", "Asia", "my home",
	"HOME", "somewhere", "in your heart", "우리집", "internet", "darangland :)", "",
	"   ", "xyzzyplugh", "!!!", "아무데나아님", "Jung-gu", "Gold Coast Australia / Yangcheon-gu",
	"37.5172, 126.8664", "37.5172 126.8664", "37.5,126.9", "99.0, 200.0", "3 14", "1234",
	"Seoul, Yangcheon-gu", "Bucheon-si Gyeonggi-do Korea", "seoul korea",
	"Republic of Korea", "living in GANGNAM-GU, seoul", "Tokyo Japan",
	"gwangju", "jeju", "sejong", "washington", "new york", "jeju island",
	"seoul\nyangcheon-gu", "jung-gu busan", "gold\u3000coast australia", "a \n b",
	"0x25.8p0, 0x7e.f8p0", "inf, 1.5", "NaN 1.0", "1.5e1 2", "1_0.5 2", "0.0, 0.0",
	"Jung-gu Jung-gu Busan Jung-gu Daegu", "Haeundae / Jung-gu / Seoul / Busan",
	strings.Repeat("Jung-gu Seoul Haeundae x ", 12), "\xff\xfe Seoul \xff",
}

// classifyProbes returns the table inputs, every gazetteer entry's form and
// the raw names it comes from in a few decorations, and the profile text of
// a synthetic population with every profile kind.
func classifyProbes(t testing.TB, gaz *admin.Gazetteer, cfg synth.Config) []string {
	t.Helper()
	probes := slices.Clone(tableInputs)
	for n := range gaz.Names() {
		probes = append(probes, n.Form, strings.ToUpper(n.Form)+", Korea", "in "+n.Form+" now")
	}
	for _, d := range gaz.Districts() {
		probes = append(probes, d.County, d.County+", "+d.State, d.State+" "+d.County)
		probes = append(probes, d.Aliases...)
	}
	gen, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc := twitter.NewService()
	pop, err := gen.Populate(svc)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[synth.ProfileKind]bool)
	for _, u := range pop.Truth {
		kinds[u.Profile] = true
	}
	for k := synth.PEmpty; k <= synth.PAmbiguous; k++ {
		if !kinds[k] {
			t.Fatalf("population has no %v profile", k)
		}
	}
	svc.EachUser(func(u *twitter.User) bool {
		probes = append(probes, u.ProfileLocation)
		return true
	})
	return probes
}

func TestClassifyMatchesReference(t *testing.T) {
	korea, err := admin.NewKoreaGazetteer()
	if err != nil {
		t.Fatal(err)
	}
	world, err := admin.NewWorldGazetteer()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		gaz *admin.Gazetteer
		cfg synth.Config
	}{
		{korea, synth.KoreanConfig(7, 600, korea)},
		{world, synth.LadyGagaConfig(7, 600, world)},
	} {
		probes := classifyProbes(t, tc.gaz, tc.cfg)
		r := NewRefiner(tc.gaz)
		for _, maxN := range []int{4, 2, 1, 0} {
			r.MaxNGram = maxN
			for _, p := range probes {
				if d := diffResult(r.Classify(p), refClassify(r, p)); d != "" {
					t.Errorf("MaxNGram %d: Classify(%q): %s", maxN, p, d)
				}
			}
		}
	}
}

func FuzzClassify(f *testing.F) {
	for _, in := range tableInputs {
		f.Add(in)
	}
	r := newRefiner(f)
	f.Fuzz(func(t *testing.T, raw string) {
		// Twitter caps profile locations at 30 characters. 128 bytes
		// still cross the scanner's 32-token buffer; longer inputs only
		// stall the fuzzer, which minimises each one byte by byte.
		if len(raw) > 128 {
			t.Skip()
		}
		got := r.Classify(raw)
		if d := diffResult(got, refClassify(r, raw)); d != "" {
			t.Fatalf("Classify(%q): %s", raw, d)
		}
		if got.Quality == Ambiguous && len(got.Candidates) < 2 || got.Quality == WellDefined && got.District == nil {
			t.Fatalf("Classify(%q) = %+v: payload does not fit the quality", raw, got)
		}
	})
}

// Classify hands out views into the gazetteer's name index; no dedupe or
// state-narrowing step may write through them.
func TestClassifyLeavesIndexViewsAlone(t *testing.T) {
	r := newRefiner(t)
	ids := func() []string {
		var out []string
		for _, d := range r.gaz.ResolveName("Jung-gu") {
			out = append(out, d.ID())
		}
		return out
	}
	before := ids()
	if len(before) < 5 {
		t.Fatalf("Jung-gu resolves to %v", before)
	}
	for _, in := range []string{"Jung-gu", "Jung-gu, Busan", "Gold Coast Australia / Yangcheon-gu", "Jung-gu Haeundae Jung-gu Seoul"} {
		r.Classify(in)
	}
	if after := ids(); !slices.Equal(before, after) {
		t.Fatalf("ResolveName(Jung-gu) changed: %v -> %v", before, after)
	}
}

// One Refiner serves every goroutine of a pipeline; under -race this checks
// that classifying shares the name index read-only.
func TestClassifyConcurrent(t *testing.T) {
	r := newRefiner(t)
	want := make([]Result, len(tableInputs))
	for i, in := range tableInputs {
		want[i] = r.Classify(in)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i := range tableInputs {
					i := (i + w*7) % len(tableInputs)
					if d := diffResult(r.Classify(tableInputs[i]), want[i]); d != "" {
						errs <- fmt.Sprintf("Classify(%q): %s", tableInputs[i], d)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestClassifyAllocs(t *testing.T) {
	r := newRefiner(t)
	for _, tc := range []struct {
		in   string
		want Quality
	}{
		{"Yangcheon-gu", WellDefined},
		{"Gold Coast Australia", WellDefined},
		{"my home", Vague},
		{"Earth", Insufficient},
		{"Seoul", Insufficient},
		{"darangland :)", Meaningless},
		{"I live in Haeundae now", WellDefined},
	} {
		if got := r.Classify(tc.in); got.Quality != tc.want {
			t.Fatalf("Classify(%q) = %v, want %v", tc.in, got.Quality, tc.want)
		}
		if n := testing.AllocsPerRun(100, func() { r.Classify(tc.in) }); n != 0 {
			t.Errorf("Classify(%q) allocates %.0f times per call", tc.in, n)
		}
	}
}
