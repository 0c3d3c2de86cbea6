package twitter

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// The sample stream's wire form: one tweet per line, in exactly the bytes
// json.Marshal writes for a Tweet. AppendTweetJSON writes them without
// reflection, and parseTweetLine reads back that one shape without
// reflection; every other line goes to json.Unmarshal (DESIGN.md §9, "The
// stream wire").

// AppendTweetJSON appends t to dst as json.Marshal renders it, byte for
// byte: the fields in declaration order, strings with HTML-safe escaping
// (<, > and & as \u003c, \u003e, \u0026), U+2028 and U+2029 escaped and
// each invalid UTF-8 byte written as \ufffd, the time in RFC 3339 with
// nanoseconds, geo left out when nil and coordinates in encoding/json's
// float form. A tweet json.Marshal refuses (a time outside years 0-9999 or
// with a zone offset of 24 hours or more, a NaN or infinite coordinate)
// returns dst unchanged and json.Marshal's error.
func AppendTweetJSON(dst []byte, t *Tweet) ([]byte, error) {
	n0 := len(dst)
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(t.ID), 10)
	dst = append(dst, `,"user_id":`...)
	dst = strconv.AppendInt(dst, int64(t.UserID), 10)
	dst = append(dst, `,"text":`...)
	dst = appendJSONString(dst, t.Text)
	dst = append(dst, `,"created_at":"`...)
	ts := len(dst)
	dst = t.CreatedAt.AppendFormat(dst, time.RFC3339Nano)
	if !strictRFC3339(dst[ts:]) || t.Geo != nil && !(finite(t.Geo.Lat) && finite(t.Geo.Lon)) {
		b, err := json.Marshal(t)
		if err != nil {
			return dst[:n0], err
		}
		return append(dst[:n0], b...), nil
	}
	dst = append(dst, '"')
	if t.Geo != nil {
		dst = append(dst, `,"geo":{"lat":`...)
		dst = appendJSONFloat(dst, t.Geo.Lat)
		dst = append(dst, `,"lon":`...)
		dst = appendJSONFloat(dst, t.Geo.Lon)
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

// strictRFC3339 reports whether b, a time in time.RFC3339Nano, is one
// time.Time.MarshalJSON accepts: a year of exactly four digits and a zone
// offset under 24 hours.
func strictRFC3339(b []byte) bool {
	if len(b) < len("2006-01-02T15:04:05Z") || b[len("2006")] != '-' {
		return false
	}
	if b[len(b)-1] == 'Z' {
		return true
	}
	c := b[len(b)-len("Z07:00")]
	hour := 10*(b[len(b)-len("07:00")]-'0') + b[len(b)-len("7:00")] - '0'
	return !('0' <= c && c <= '9') && hour < 24
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// appendJSONFloat appends a finite f as encoding/json writes a float64:
// strconv's shortest form, in exponent form below 1e-6 and from 1e21 on,
// with a one-digit negative exponent unpadded.
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// jsonSafe marks the ASCII bytes encoding/json writes unescaped in an
// HTML-safe string.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		safe[b] = !strings.ContainsRune(`"\<>&`, b)
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as encoding/json quotes a string with
// HTML escaping on.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// The reasons parseTweetLine declines a line, the bounded reason label of
// stream_decode_fallback_total.
const (
	// declineShape: the keys are not id, user_id, text, created_at and an
	// optional geo of lat and lon, in that order, or the line carries
	// whitespace, null or bytes past the object.
	declineShape = "shape"
	// declineNumber: an ID that is not a plain integer within int64, or a
	// coordinate that is not a JSON number within float64.
	declineNumber = "number"
	// declineText: text with a control byte, invalid UTF-8, an escaped
	// surrogate or an unknown escape.
	declineText = "text"
	// declineTime: a created_at that is not a UTC timestamp in the form
	// time.RFC3339Nano writes, with the ranges time.Time.UnmarshalJSON
	// checks.
	declineTime = "time"
)

// parseTweetLine decodes one sample-stream line, surrounding whitespace
// already trimmed, when it has exactly the shape AppendTweetJSON writes for
// a UTC tweet. Then it returns the tweet json.Unmarshal would decode, field
// for field. Any other line it declines, returning nil and why; the caller
// decodes a declined line with json.Unmarshal, so a line from another
// writer decodes exactly as it would without this path.
func parseTweetLine(b []byte) (*Tweet, string) {
	b, ok := cut(b, `{"id":`)
	if !ok {
		return nil, declineShape
	}
	id, b, ok := parseJSONInt(b)
	if !ok {
		return nil, declineNumber
	}
	if b, ok = cut(b, `,"user_id":`); !ok {
		return nil, declineShape
	}
	user, b, ok := parseJSONInt(b)
	if !ok {
		return nil, declineNumber
	}
	if b, ok = cut(b, `,"text":"`); !ok {
		return nil, declineShape
	}
	text, b, ok := parseJSONString(b)
	if !ok {
		return nil, declineText
	}
	if b, ok = cut(b, `,"created_at":"`); !ok {
		return nil, declineShape
	}
	at, b, ok := parseUTCTime(b)
	if !ok {
		return nil, declineTime
	}
	if string(b) == "}" {
		return &Tweet{ID: TweetID(id), UserID: UserID(user), Text: text, CreatedAt: at}, ""
	}
	if b, ok = cut(b, `,"geo":{"lat":`); !ok {
		return nil, declineShape
	}
	lat, b, ok := parseJSONFloat(b)
	if !ok {
		return nil, declineNumber
	}
	if b, ok = cut(b, `,"lon":`); !ok {
		return nil, declineShape
	}
	lon, b, ok := parseJSONFloat(b)
	if !ok {
		return nil, declineNumber
	}
	if string(b) != "}}" {
		return nil, declineShape
	}
	return &Tweet{ID: TweetID(id), UserID: UserID(user), Text: text, CreatedAt: at, Geo: &GeoTag{Lat: lat, Lon: lon}}, ""
}

// cut returns b without prefix, and whether b began with it.
func cut(b []byte, prefix string) ([]byte, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return b, false
	}
	return b[len(prefix):], true
}

// parseJSONInt reads the JSON integer that begins b (an optional minus,
// then 0 or digits without a leading zero, and no fraction or exponent)
// when it fits an int64, and returns the bytes after it.
func parseJSONInt(b []byte) (int64, []byte, bool) {
	i := 0
	if len(b) > 0 && b[0] == '-' {
		i = 1
	}
	start := i
	var u uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		if i-start == 19 {
			return 0, b, false // 20 digits or more overflow int64
		}
		u = u*10 + uint64(b[i]-'0')
	}
	n := i - start
	if n == 0 || n > 1 && b[start] == '0' || i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, b, false
	}
	if start == 1 {
		if u > 1<<63 {
			return 0, b, false
		}
		return -int64(u), b[i:], true // -1<<63 wraps to itself
	}
	if u > math.MaxInt64 {
		return 0, b, false
	}
	return int64(u), b[i:], true
}

// parseJSONFloat reads the JSON number that begins b when it is within
// float64, as json.Unmarshal reads it into a float64, and returns the bytes
// after it.
func parseJSONFloat(b []byte) (float64, []byte, bool) {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	digits := func() int {
		n := 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			n++
		}
		return n
	}
	lead := i
	if n := digits(); n == 0 || n > 1 && b[lead] == '0' {
		return 0, b, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			return 0, b, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return 0, b, false
		}
	}
	f, err := strconv.ParseFloat(string(b[:i]), 64)
	if err != nil {
		return 0, b, false
	}
	return f, b[i:], true
}

// parseJSONString reads a JSON string's contents and closing quote from b,
// the bytes after its opening quote, as json.Unmarshal decodes them. It
// fails on what json.Unmarshal would reject or repair: a control byte,
// invalid UTF-8, an unknown escape and an escaped surrogate.
func parseJSONString(b []byte) (string, []byte, bool) {
	i := 0
	for i < len(b) {
		c := b[i]
		if c == '"' {
			return string(b[:i]), b[i+1:], true
		}
		if c == '\\' {
			break
		}
		if c < ' ' {
			return "", b, false
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && size == 1 {
			return "", b, false
		}
		i += size
	}
	// Escapes: find the closing quote, then unescape into one allocation
	// no longer than the escaped form.
	end := i
	for end < len(b) && b[end] != '"' {
		if b[end] == '\\' {
			end++
		}
		end++
	}
	if end >= len(b) {
		return "", b, false
	}
	var sb strings.Builder
	sb.Grow(end)
	sb.Write(b[:i])
	for i < end {
		c := b[i]
		switch {
		case c == '\\':
			i++
			switch e := b[i]; e {
			case '"', '\\', '/':
				sb.WriteByte(e)
			case 'b':
				sb.WriteByte('\b')
			case 'f':
				sb.WriteByte('\f')
			case 'n':
				sb.WriteByte('\n')
			case 'r':
				sb.WriteByte('\r')
			case 't':
				sb.WriteByte('\t')
			case 'u':
				r, ok := parseHex4(b[i+1 : end])
				if !ok || 0xD800 <= r && r <= 0xDFFF {
					return "", b, false
				}
				sb.WriteRune(r)
				i += 4
			default:
				return "", b, false
			}
			i++
		case c < ' ':
			return "", b, false
		case c < utf8.RuneSelf:
			sb.WriteByte(c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:end])
			if r == utf8.RuneError && size == 1 {
				return "", b, false
			}
			sb.Write(b[i : i+size])
			i += size
		}
	}
	return sb.String(), b[end+1:], true
}

// parseHex4 reads the four hex digits that begin b.
func parseHex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// parseUTCTime reads a timestamp and its closing quote from b, the bytes
// after the opening quote, when it has the form time.RFC3339Nano writes for
// a UTC time (2006-01-02T15:04:05, at most nine fraction digits, then Z),
// with the field ranges time.Time.UnmarshalJSON enforces. It returns the
// same time.Time that method would.
func parseUTCTime(b []byte) (time.Time, []byte, bool) {
	const layout = "2006-01-02T15:04:05"
	if len(b) < len(layout)+len(`Z"`) || b[4] != '-' || b[7] != '-' || b[10] != 'T' || b[13] != ':' || b[16] != ':' {
		return time.Time{}, b, false
	}
	ok := true
	num := func(s []byte, lo, hi int) int {
		n := 0
		for _, c := range s {
			if c < '0' || '9' < c {
				ok = false
				return lo
			}
			n = n*10 + int(c-'0')
		}
		if n < lo || n > hi {
			ok = false
		}
		return n
	}
	year := num(b[0:4], 0, 9999)
	month := num(b[5:7], 1, 12)
	if !ok {
		return time.Time{}, b, false
	}
	day := num(b[8:10], 1, daysIn(time.Month(month), year))
	hour := num(b[11:13], 0, 23)
	minute := num(b[14:16], 0, 59)
	sec := num(b[17:19], 0, 59)
	i, nsec := len(layout), 0
	if b[i] == '.' {
		i++
		scale := 1_000_000_000
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if scale == 1 {
				return time.Time{}, b, false // past nanoseconds
			}
			scale /= 10
			nsec += int(b[i]-'0') * scale
		}
		if scale == 1_000_000_000 {
			return time.Time{}, b, false
		}
	}
	if !ok || len(b) < i+2 || b[i] != 'Z' || b[i+1] != '"' {
		return time.Time{}, b, false
	}
	return time.Date(year, time.Month(month), day, hour, minute, sec, nsec, time.UTC), b[i+2:], true
}

// daysIn is the number of days in month of the proleptic Gregorian year.
func daysIn(month time.Month, year int) int {
	switch month {
	case time.February:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case time.April, time.June, time.September, time.November:
		return 30
	}
	return 31
}
