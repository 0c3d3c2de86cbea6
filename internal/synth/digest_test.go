package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"stir/internal/twitter"
)

// populationDigest hashes everything a seed generates into svc: every
// user's screen name, profile location, language and creation time, and
// every tweet's ID, author, time, text and geotag, in ID order.
func populationDigest(svc *twitter.Service) string {
	h := sha256.New()
	var buf []byte
	str := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	svc.EachUser(func(u *twitter.User) bool {
		buf = binary.AppendVarint(buf[:0], int64(u.ID))
		str(u.ScreenName)
		str(u.ProfileLocation)
		str(u.Lang)
		buf = binary.AppendVarint(buf, u.CreatedAt.UnixNano())
		h.Write(buf)
		return true
	})
	svc.EachTweet(func(t *twitter.Tweet) bool {
		buf = binary.AppendVarint(buf[:0], int64(t.ID))
		buf = binary.AppendVarint(buf, int64(t.UserID))
		buf = binary.AppendVarint(buf, t.CreatedAt.UnixNano())
		str(t.Text)
		if t.Geo == nil {
			buf = append(buf, 0)
		} else {
			buf = append(buf, 1)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.Geo.Lat))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.Geo.Lon))
		}
		h.Write(buf)
		return true
	})
	return hex.EncodeToString(h.Sum(nil))
}

// TestPopulationDigest pins what one seed generates, byte for byte: a
// change to the generator's set-up (such as memoising the districts near
// each home) must not change a single user or tweet.
func TestPopulationDigest(t *testing.T) {
	svc, pop := generate(t, KoreanConfig(1, 2000, koreaGaz(t)))
	got := populationDigest(svc)
	t.Logf("digest %s over %d users, %d tweets (%d geo)", got, svc.UserCount(), pop.Tweets, pop.GeoTweets)
	const want = "323a64bc4a962078b52b1db144ea6221484539b390130d9b5f442414d1addf8f"
	if got != want {
		t.Fatalf("population digest %s, want %s", got, want)
	}
}
