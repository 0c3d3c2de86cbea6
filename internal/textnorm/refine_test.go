package textnorm

import (
	"testing"
	"testing/quick"

	"stir/internal/admin"
)

func newRefiner(t testing.TB) *Refiner {
	t.Helper()
	gaz, err := admin.NewWorldGazetteer()
	if err != nil {
		t.Fatal(err)
	}
	return NewRefiner(gaz)
}

func TestClassifyWellDefined(t *testing.T) {
	r := newRefiner(t)
	cases := []struct {
		in     string
		county string
	}{
		{"Yangcheon-gu", "Yangcheon-gu"},
		{"Seoul Yangcheon-gu", "Yangcheon-gu"},
		{"Yangcheon-gu, Seoul, Korea", "Yangcheon-gu"},
		{"양천구", "Yangcheon-gu"},
		{"Uiwang-si", "Uiwang-si"},
		{"uiwang", "Uiwang-si"},
		{"Bucheon-si, Gyeonggi-do", "Bucheon-si"},
		{"I live in Haeundae now", "Haeundae-gu"},
		{"Gold Coast Australia", "Gold Coast"},
		{"NYC", "New York City"},
		{"Jung-gu, Busan", "Jung-gu"}, // state disambiguates
		// Spellings that name a state too: the district wins.
		{"gwangju", "Gwangju-si"},
		{"jeju", "Jeju-si"},
		{"sejong", "Sejong-si"},
		{"washington", "Washington"},
		{"new york", "New York City"},
	}
	for _, tc := range cases {
		got := r.Classify(tc.in)
		if got.Quality != WellDefined {
			t.Errorf("Classify(%q).Quality = %v, want well-defined (matched %q)", tc.in, got.Quality, got.MatchedText)
			continue
		}
		if got.District.County != tc.county {
			t.Errorf("Classify(%q) district = %s, want %s", tc.in, got.District.County, tc.county)
		}
	}
}

func TestClassifyInsufficient(t *testing.T) {
	r := newRefiner(t)
	for _, in := range []string{"Seoul", "서울", "Korea", "대한민국", "Earth", "Gyeonggi-do", "경기도", "planet earth", "Asia"} {
		got := r.Classify(in)
		if got.Quality != Insufficient {
			t.Errorf("Classify(%q) = %v, want insufficient", in, got.Quality)
		}
	}
}

func TestClassifyVague(t *testing.T) {
	r := newRefiner(t)
	for _, in := range []string{"my home", "HOME", "somewhere", "in your heart", "우리집", "internet"} {
		got := r.Classify(in)
		if got.Quality != Vague {
			t.Errorf("Classify(%q) = %v, want vague", in, got.Quality)
		}
	}
}

func TestClassifyMeaningless(t *testing.T) {
	r := newRefiner(t)
	for _, in := range []string{"darangland :)", "", "   ", "xyzzyplugh", "!!!", "아무데나아님"} {
		got := r.Classify(in)
		if got.Quality != Meaningless {
			t.Errorf("Classify(%q) = %v, want meaningless", in, got.Quality)
		}
	}
}

func TestClassifyAmbiguous(t *testing.T) {
	r := newRefiner(t)
	// Jung-gu alone exists in many metros.
	got := r.Classify("Jung-gu")
	if got.Quality != Ambiguous || len(got.Candidates) < 5 {
		t.Fatalf("Classify(Jung-gu) = %v with %d candidates", got.Quality, len(got.Candidates))
	}
	// The paper's example: two locations in one field.
	got = r.Classify("Gold Coast Australia / Yangcheon-gu")
	if got.Quality != Ambiguous || len(got.Candidates) != 2 {
		t.Fatalf("two-location profile = %v, candidates %v", got.Quality, got.Candidates)
	}
}

func TestClassifyGPSCoordinates(t *testing.T) {
	r := newRefiner(t)
	cases := []string{"37.5172, 126.8664", "37.5172 126.8664", "37.5,126.9"}
	for _, in := range cases {
		got := r.Classify(in)
		if got.Quality != GPSCoordinates || got.Point == nil {
			t.Errorf("Classify(%q) = %v, want gps", in, got.Quality)
			continue
		}
		if got.Point.Lat < 37 || got.Point.Lat > 38 {
			t.Errorf("Classify(%q) point = %v", in, got.Point)
		}
	}
	// Out-of-range or non-coordinate numerics are not GPS.
	for _, in := range []string{"99.0, 200.0", "3 14", "1234"} {
		if got := r.Classify(in); got.Quality == GPSCoordinates {
			t.Errorf("Classify(%q) wrongly detected coordinates", in)
		}
	}
}

func TestQualityStringsAndUsable(t *testing.T) {
	all := []Quality{WellDefined, GPSCoordinates, Ambiguous, Vague, Insufficient, Meaningless}
	want := []string{"well-defined", "gps-coordinates", "ambiguous", "vague", "insufficient", "meaningless"}
	for i, q := range all {
		if q.String() != want[i] {
			t.Errorf("Quality(%d).String() = %q, want %q", i, q.String(), want[i])
		}
	}
	if Quality(99).String() != "unknown" {
		t.Error("out-of-range quality should stringify as unknown")
	}
	if !WellDefined.Usable() || !GPSCoordinates.Usable() {
		t.Error("well-defined and gps should be usable")
	}
	for _, q := range []Quality{Ambiguous, Vague, Insufficient, Meaningless} {
		if q.Usable() {
			t.Errorf("%v should not be usable", q)
		}
	}
}

func TestClassifyNoisyRealWorldProfiles(t *testing.T) {
	r := newRefiner(t)
	// Shapes seen in the paper's Fig. 3 screenshots.
	cases := []struct {
		in   string
		want Quality
	}{
		{"Seoul, Yangcheon-gu", WellDefined},
		{"Bucheon-si Gyeonggi-do Korea", WellDefined},
		{"seoul korea", Insufficient},
		{"Republic of Korea", Insufficient},
		{"living in GANGNAM-GU, seoul", WellDefined},
		{"Tokyo Japan", WellDefined},
	}
	for _, tc := range cases {
		got := r.Classify(tc.in)
		if got.Quality != tc.want {
			t.Errorf("Classify(%q) = %v (matched %q), want %v", tc.in, got.Quality, got.MatchedText, tc.want)
		}
	}
}

// BenchmarkClassify times one sub-benchmark per quality bucket, plus the
// mixed input set earlier versions of this benchmark used.
func BenchmarkClassify(b *testing.B) {
	r := newRefiner(b)
	buckets := []struct {
		name   string
		inputs []string
	}{
		{"mixed", []string{"Yangcheon-gu, Seoul, Korea", "my home", "37.5172, 126.8664", "darangland :)", "Gold Coast Australia"}},
		{WellDefined.String(), []string{"Yangcheon-gu", "Yangcheon-gu, Seoul, Korea", "I live in Haeundae now", "Jung-gu, Busan"}},
		{GPSCoordinates.String(), []string{"37.5172, 126.8664", "35.1796 129.0756"}},
		{Ambiguous.String(), []string{"Jung-gu", "Gold Coast Australia / Yangcheon-gu"}},
		{Vague.String(), []string{"my home", "in your heart"}},
		{Insufficient.String(), []string{"Earth", "Seoul", "seoul korea"}},
		{Meaningless.String(), []string{"darangland :)", "no.where.at.all"}},
	}
	for _, bk := range buckets {
		b.Run(bk.name, func(b *testing.B) {
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				r.Classify(bk.inputs[i%len(bk.inputs)])
				i++
			}
		})
	}
}

// Property: Classify never panics and always lands in a defined bucket with
// consistent payload fields, no matter the input bytes.
func TestClassifyTotalProperty(t *testing.T) {
	r := newRefiner(t)
	f := func(raw string) bool {
		res := r.Classify(raw)
		switch res.Quality {
		case WellDefined:
			return res.District != nil
		case GPSCoordinates:
			return res.Point != nil
		case Ambiguous:
			return len(res.Candidates) > 1
		case Vague, Insufficient, Meaningless:
			return true
		default:
			return false
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
