package twitter

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
	"unicode/utf8"

	"stir/internal/obs"
)

// goldenStreamTweets are the tweets testdata/wire/sample.jsonl holds, one
// line each, as json.Marshal wrote them: Hangul text with a coordinate pair,
// no geo, every character encoding/json escapes (HTML, quotes, controls,
// U+2028/U+2029, invalid UTF-8), negative zero and coordinates in exponent
// form, a zone offset, the zero time and the extreme IDs.
func goldenStreamTweets() []*Tweet {
	at := time.Date(2011, 5, 1, 9, 30, 0, 123456789, time.UTC)
	return []*Tweet{
		{ID: 1001, UserID: 42, Text: "서울 종로구에서 점심 #stir", CreatedAt: at, Geo: &GeoTag{Lat: 37.5665, Lon: 126.978}},
		{ID: 1002, UserID: 7, Text: "plain text, no geo", CreatedAt: at.Add(time.Second).Truncate(time.Second)},
		{ID: 1003, UserID: 7, Text: `<b>Tom & "Jerry"</b> \ / a/b`, CreatedAt: at.Add(120 * time.Millisecond)},
		{ID: 1004, UserID: 7, Text: "tab\tnew\nline\rcr\bbs\fff\x00nul\x1fus\x7fdel", CreatedAt: at},
		{ID: 1005, UserID: 7, Text: "line\u2028sep\u2029para \ufffd kept", CreatedAt: at},
		{ID: 1006, UserID: 7, Text: "bad \xff\xfe utf8 \xe2\x82 cut", CreatedAt: at},
		{ID: 1007, UserID: 8, Text: "", CreatedAt: at, Geo: &GeoTag{Lat: math.Copysign(0, -1), Lon: 0}},
		{ID: 1008, UserID: 8, Text: "tiny", CreatedAt: at, Geo: &GeoTag{Lat: 1e-7, Lon: -2.5e-9}},
		{ID: 1009, UserID: 8, Text: "huge", CreatedAt: at, Geo: &GeoTag{Lat: 1e21, Lon: -123456789012345678901234.0}},
		{ID: 1010, UserID: 9, Text: "KST", CreatedAt: at.In(time.FixedZone("KST", 9*3600))},
		{ID: 1011, UserID: 9, Text: "zero time"},
		{ID: math.MaxInt64, UserID: math.MinInt64, Text: "extremes", CreatedAt: time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)},
	}
}

// TestStreamWireGolden pins the sample stream's bytes: AppendTweetJSON
// writes exactly the committed lines, each of which is json.Marshal's
// output, and every line decodes back, UTC ones on the fast path, to what
// json.Unmarshal reads from it.
func TestStreamWireGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "wire", "sample.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, tw := range goldenStreamTweets() {
		want, err := json.Marshal(tw)
		if err != nil {
			t.Fatal(err)
		}
		n := len(got)
		if got, err = AppendTweetJSON(got, tw); err != nil {
			t.Fatalf("tweet %d: %v", tw.ID, err)
		}
		if !bytes.Equal(got[n:], want) {
			t.Fatalf("tweet %d\n got %s\nwant %s", tw.ID, got[n:], want)
		}
		got = append(got, '\n')
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("stream bytes differ from testdata/wire/sample.jsonl\n got %s\nwant %s", got, golden)
	}
	for _, line := range bytes.SplitAfter(golden, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var want Tweet
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatal(err)
		}
		back, reason := parseTweetLine(bytes.TrimSpace(line))
		if utc := bytes.Contains(line, []byte(`Z"`)); back == nil && utc {
			t.Fatalf("fast path declined (%s) %s", reason, line)
		} else if back == nil {
			continue
		}
		if !sameTweet(back, &want) {
			t.Fatalf("fast path read %+v from %s, json.Unmarshal %+v", back, line, want)
		}
	}
}

// sameTweet compares two tweets field by field: the times as instants in
// the same location, the coordinates by bit pattern.
func sameTweet(a, b *Tweet) bool {
	if a.ID != b.ID || a.UserID != b.UserID || a.Text != b.Text ||
		!a.CreatedAt.Equal(b.CreatedAt) || a.CreatedAt.Location() != b.CreatedAt.Location() ||
		(a.Geo == nil) != (b.Geo == nil) {
		return false
	}
	return a.Geo == nil || math.Float64bits(a.Geo.Lat) == math.Float64bits(b.Geo.Lat) &&
		math.Float64bits(a.Geo.Lon) == math.Float64bits(b.Geo.Lon)
}

// The fast path declines every line that is not in the encoder's shape, and
// says why.
func TestParseTweetLineDeclines(t *testing.T) {
	const ok = `{"id":1,"user_id":2,"text":"a","created_at":"2011-05-01T09:30:00Z"}`
	if tw, reason := parseTweetLine([]byte(ok)); tw == nil {
		t.Fatalf("declined the encoder's shape: %s", reason)
	}
	cases := []struct{ line, reason string }{
		{`{"user_id":2,"id":1,"text":"a","created_at":"2011-05-01T09:30:00Z"}`, declineShape},
		{`{"id":1, "user_id":2,"text":"a","created_at":"2011-05-01T09:30:00Z"}`, declineShape},
		{`{"id":1,"user_id":2,"text":"a","created_at":"2011-05-01T09:30:00Z","x":1}`, declineShape},
		{`{"id":1,"user_id":2,"text":"a","created_at":"2011-05-01T09:30:00Z","geo":null}`, declineShape},
		{`{"id":1,"user_id":2,"text":"a","created_at":"2011-05-01T09:30:00Z"}}`, declineShape},
		{`{"id":1,"user_id":2,"text":"a"}`, declineShape},
		{`{"id":01,"user_id":2,"text":"a","created_at":"2011-05-01T09:30:00Z"}`, declineNumber},
		{`{"id":1.0,"user_id":2,"text":"a","created_at":"2011-05-01T09:30:00Z"}`, declineNumber},
		{`{"id":9223372036854775808,"user_id":2,"text":"a","created_at":"2011-05-01T09:30:00Z"}`, declineNumber},
		{`{"id":1,"user_id":2,"text":"a","created_at":"2011-05-01T09:30:00Z","geo":{"lat":1e999,"lon":0}}`, declineNumber},
		{`{"id":1,"user_id":2,"text":"a","created_at":"2011-05-01T09:30:00Z","geo":{"lat":.5,"lon":0}}`, declineNumber},
		{`{"id":1,"user_id":2,"text":"\ud83d\ude00","created_at":"2011-05-01T09:30:00Z"}`, declineText},
		{`{"id":1,"user_id":2,"text":"\x","created_at":"2011-05-01T09:30:00Z"}`, declineText},
		{"{\"id\":1,\"user_id\":2,\"text\":\"\xff\",\"created_at\":\"2011-05-01T09:30:00Z\"}", declineText},
		{"{\"id\":1,\"user_id\":2,\"text\":\"\t\",\"created_at\":\"2011-05-01T09:30:00Z\"}", declineText},
		{`{"id":1,"user_id":2,"text":"a","created_at":"2011-05-01T18:30:00+09:00"}`, declineTime},
		{`{"id":1,"user_id":2,"text":"a","created_at":"2011-02-29T09:30:00Z"}`, declineTime},
		{`{"id":1,"user_id":2,"text":"a","created_at":"2011-05-01T09:30:00.1234567891Z"}`, declineTime},
		{`{"id":1,"user_id":2,"text":"a","created_at":"2011-05-01T09:30:00.Z"}`, declineTime},
		{`{"id":1,"user_id":2,"text":"a","created_at":"2011-05-01T24:00:00Z"}`, declineTime},
	}
	for _, c := range cases {
		if tw, reason := parseTweetLine([]byte(c.line)); tw != nil || reason != c.reason {
			t.Errorf("%s: got %+v, reason %q; want decline %q", c.line, tw, reason, c.reason)
		}
	}
}

// FuzzStreamLine checks the stream codec against encoding/json:
//   - a line parseTweetLine accepts decodes, field for field, to what
//     json.Unmarshal reads from it (CreatedAt as the same instant in the
//     same location), and a line json.Unmarshal rejects is declined;
//   - the tweet json.Unmarshal reads from the line, and a tweet built from
//     its raw bytes (the bytes as text; IDs, time, zone and coordinates
//     from the first 48 of them), encode under AppendTweetJSON to exactly
//     json.Marshal's bytes, or fail with json.Marshal's error; the encoded
//     line decodes back to what json.Unmarshal reads from it, on the fast
//     path whenever the time is in UTC, and to the tweet itself when its
//     text is valid UTF-8.
//
// Seeds live in testdata/fuzz/FuzzStreamLine.
func FuzzStreamLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		trimmed := bytes.TrimSpace(line)
		fast, _ := parseTweetLine(trimmed)
		var ref Tweet
		refErr := json.Unmarshal(trimmed, &ref)
		if fast != nil {
			if refErr != nil {
				t.Fatalf("fast path accepted %q, which json.Unmarshal rejects: %v", line, refErr)
			}
			if !sameTweet(fast, &ref) {
				t.Fatalf("fast path read %+v from %q, json.Unmarshal %+v", fast, line, ref)
			}
		}
		if refErr == nil {
			checkRoundTrip(t, &ref)
		}
		checkRoundTrip(t, tweetFromBytes(line))
	})
}

// checkRoundTrip encodes tw after a prefix and checks the bytes against
// json.Marshal and the decoded line against json.Unmarshal and tw.
func checkRoundTrip(t *testing.T, tw *Tweet) {
	t.Helper()
	prefix := []byte("prefix\n")
	got, err := AppendTweetJSON(prefix, tw)
	want, wantErr := json.Marshal(tw)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() || string(got) != string(prefix) {
			t.Fatalf("tweet %+v: AppendTweetJSON gave %q, %v; json.Marshal fails with %v", tw, got, err, wantErr)
		}
		return
	}
	if err != nil || !bytes.Equal(got[len(prefix):], want) || string(got[:len(prefix)]) != string(prefix) {
		t.Fatalf("tweet %+v:\n got %q, %v\nwant %q", tw, got, err, want)
	}
	var ref Tweet
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatalf("json.Unmarshal of json.Marshal's %q: %v", want, err)
	}
	back, reason := parseTweetLine(want)
	if back == nil {
		if _, off := tw.CreatedAt.Zone(); off == 0 {
			t.Fatalf("fast path declined (%s) its own UTC encoding %q", reason, want)
		}
		return
	}
	if !sameTweet(back, &ref) {
		t.Fatalf("fast path read %+v from %q, json.Unmarshal %+v", back, want, ref)
	}
	// A UTC line reads back in time.UTC, whatever zero-offset zone wrote it.
	same := *tw
	same.CreatedAt = tw.CreatedAt.UTC()
	if utf8.ValidString(tw.Text) && !sameTweet(back, &same) {
		t.Fatalf("tweet %+v round-trips to %+v", tw, back)
	}
}

// tweetFromBytes builds a tweet from fuzz bytes: the bytes themselves are
// the text, and the first 48 (zero-padded) give the IDs, a time spread over
// about ±10,000 years around 1970 with any nanosecond, a zone (UTC, a
// zero-offset fixed zone, or an offset in quarter hours up to ±32 hours)
// and, for odd b[29], coordinates: raw float64 bit patterns when b[29]&2
// is set (NaN and infinities included), else hundred-thousandths.
func tweetFromBytes(b []byte) *Tweet {
	var p [48]byte
	copy(p[:], b)
	u := func(i int) uint64 { return binary.LittleEndian.Uint64(p[i:]) }
	const span = 10_000 * 366 * 86400
	at := time.Unix(int64(u(16))%span, int64(binary.LittleEndian.Uint32(p[24:]))%1e9)
	switch z := int8(p[28]); z {
	case 0:
		at = at.UTC()
	case 1:
		at = at.In(time.FixedZone("", 0))
	default:
		at = at.In(time.FixedZone("", int(z)*900))
	}
	tw := &Tweet{ID: TweetID(u(0)), UserID: UserID(u(8)), Text: string(b), CreatedAt: at}
	switch {
	case p[29]&3 == 3:
		tw.Geo = &GeoTag{Lat: math.Float64frombits(u(32)), Lon: math.Float64frombits(u(40))}
	case p[29]&1 == 1:
		tw.Geo = &GeoTag{Lat: float64(int32(u(32))) / 1e5, Lon: float64(int32(u(40))) / 1e5}
	}
	return tw
}

// TestStreamReadAllocs guards the read loop's allocations: per line, the
// decoded tweet, its text and its geo tag, and nothing for the line itself.
func TestStreamReadAllocs(t *testing.T) {
	const lines = 200
	var payload []byte
	tweetAllocs := 0.0
	for i := 0; i < lines; i++ {
		tw := &Tweet{ID: TweetID(i + 1), UserID: UserID(i % 7), Text: "서울 강남구 점심 lunch near Gangnam station #stir",
			CreatedAt: time.Date(2011, 5, 1, 9, 30, i, i*1000, time.UTC)}
		tweetAllocs += 2
		if i%3 == 0 {
			tw.Geo = &GeoTag{Lat: 37.5 + float64(i)/1000, Lon: 127.03}
			tweetAllocs++
		}
		var err error
		if payload, err = AppendTweetJSON(payload, tw); err != nil {
			t.Fatal(err)
		}
		payload = append(payload, '\n')
	}
	reg := obs.NewRegistry()
	// Warm the registry's series so the measured runs only read.
	n := 0
	count := func(*Tweet) bool { n++; return true }
	if err := readStream(context.Background(), bytes.NewReader(payload), reg, count); err != nil || n != lines {
		t.Fatalf("read %d of %d lines: %v", n, lines, err)
	}
	r := bytes.NewReader(payload)
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(payload)
		_ = readStream(context.Background(), r, reg, count)
	})
	// The bufio.Reader and its buffer are per connection.
	if limit := tweetAllocs + 2; allocs > limit {
		t.Fatalf("reading %d lines allocated %.0f times, want at most %.0f", lines, allocs, limit)
	}
}

// BenchmarkStreamLine measures one geotagged Korean/English tweet through
// the stream codec: encode (AppendTweetJSON into a reused buffer) and
// decode (the fast path, as readStream runs it).
func BenchmarkStreamLine(b *testing.B) {
	tw := &Tweet{ID: 123456789, UserID: 4242, Text: "서울 강남구 점심 lunch near Gangnam station, great weather #stir",
		CreatedAt: time.Date(2011, 5, 1, 9, 30, 0, 123456789, time.UTC), Geo: &GeoTag{Lat: 37.49794, Lon: 127.02762}}
	line, err := AppendTweetJSON(nil, tw)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(line)))
		buf := make([]byte, 0, 2*len(line))
		for b.Loop() {
			buf, _ = AppendTweetJSON(buf[:0], tw)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(line)))
		for b.Loop() {
			if got, _ := parseTweetLine(line); got == nil {
				b.Fatal("declined")
			}
		}
	})
}
