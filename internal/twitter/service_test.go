package twitter

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"stir/internal/obs"
)

var t0 = time.Date(2011, 9, 1, 0, 0, 0, 0, time.UTC)

func newUser(t *testing.T, s *Service, name, loc string) *User {
	t.Helper()
	u, err := s.CreateUser(name, loc, "ko", t0)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestCreateUserTruncatesLocation(t *testing.T) {
	s := NewService()
	long := strings.Repeat("x", 50)
	u := newUser(t, s, "a", long)
	if got := len([]rune(u.ProfileLocation)); got != MaxProfileLocationLen {
		t.Fatalf("location length = %d, want %d", got, MaxProfileLocationLen)
	}
	// Multi-byte (Korean) text truncates by runes, not bytes.
	korean := strings.Repeat("서", 40)
	u2 := newUser(t, s, "b", korean)
	if got := len([]rune(u2.ProfileLocation)); got != MaxProfileLocationLen {
		t.Fatalf("korean location runes = %d, want %d", got, MaxProfileLocationLen)
	}
}

func TestUserLookup(t *testing.T) {
	s := NewService()
	u := newUser(t, s, "alice", "Seoul Yangcheon-gu")
	got, err := s.User(u.ID)
	if err != nil || got.ScreenName != "alice" {
		t.Fatalf("User = %v, %v", got, err)
	}
	if _, err := s.User(999); !errors.Is(err, ErrUserNotFound) {
		t.Fatalf("missing user err = %v", err)
	}
}

func TestFollowGraph(t *testing.T) {
	s := NewService()
	a := newUser(t, s, "a", "")
	b := newUser(t, s, "b", "")
	c := newUser(t, s, "c", "")
	if err := s.Follow(b.ID, a.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Follow(c.ID, a.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Follow(b.ID, a.ID); err != nil {
		t.Fatal(err) // duplicate follow is a no-op
	}
	fs, err := s.Followers(a.ID)
	if err != nil || len(fs) != 2 {
		t.Fatalf("Followers = %v, %v", fs, err)
	}
	if err := s.Follow(a.ID, a.ID); !errors.Is(err, ErrSelfFollow) {
		t.Fatalf("self follow err = %v", err)
	}
	if err := s.Follow(999, a.ID); !errors.Is(err, ErrUserNotFound) {
		t.Fatalf("unknown follower err = %v", err)
	}
	if _, err := s.Followers(999); !errors.Is(err, ErrUserNotFound) {
		t.Fatalf("followers of unknown err = %v", err)
	}
}

func TestPostTweetValidation(t *testing.T) {
	s := NewService()
	u := newUser(t, s, "a", "")
	if _, err := s.PostTweet(u.ID, strings.Repeat("y", 141), t0, nil); !errors.Is(err, ErrTweetTooLong) {
		t.Fatalf("long tweet err = %v", err)
	}
	if _, err := s.PostTweet(999, "hi", t0, nil); !errors.Is(err, ErrUserNotFound) {
		t.Fatalf("unknown user err = %v", err)
	}
	tw, err := s.PostTweet(u.ID, "hello", t0, &GeoTag{Lat: 37.5, Lon: 127.0})
	if err != nil || !tw.HasGeo() {
		t.Fatalf("geo tweet = %v, %v", tw, err)
	}
}

func TestTweetIDsMonotonic(t *testing.T) {
	s := NewService()
	u := newUser(t, s, "a", "")
	var last TweetID
	for i := 0; i < 10; i++ {
		tw, err := s.PostTweet(u.ID, "t", t0.Add(time.Duration(i)*time.Minute), nil)
		if err != nil {
			t.Fatal(err)
		}
		if tw.ID <= last {
			t.Fatalf("IDs not monotonic: %d after %d", tw.ID, last)
		}
		last = tw.ID
	}
	if s.TweetCount() != 10 {
		t.Fatalf("TweetCount = %d", s.TweetCount())
	}
}

func TestUserTimelinePaging(t *testing.T) {
	s := NewService()
	u := newUser(t, s, "a", "")
	other := newUser(t, s, "b", "")
	for i := 0; i < 450; i++ {
		if _, err := s.PostTweet(u.ID, "mine", t0.Add(time.Duration(i)*time.Minute), nil); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			s.PostTweet(other.ID, "noise", t0, nil)
		}
	}
	var got []*Tweet
	maxID := TweetID(0)
	pages := 0
	for {
		page, err := s.UserTimeline(u.ID, maxID, 200)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, page.Tweets...)
		pages++
		if page.NextMaxID == 0 {
			break
		}
		maxID = page.NextMaxID
	}
	if len(got) != 450 {
		t.Fatalf("collected %d tweets, want 450", len(got))
	}
	if pages != 3 {
		t.Fatalf("pages = %d, want 3 (200+200+50)", pages)
	}
	// Newest first, strictly descending, and all ours.
	for i, tw := range got {
		if tw.UserID != u.ID {
			t.Fatalf("foreign tweet in timeline: %v", tw)
		}
		if i > 0 && tw.ID >= got[i-1].ID {
			t.Fatalf("timeline not descending at %d", i)
		}
	}
}

func TestUserTimelineCountClamp(t *testing.T) {
	s := NewService()
	u := newUser(t, s, "a", "")
	for i := 0; i < 300; i++ {
		s.PostTweet(u.ID, "t", t0, nil)
	}
	page, err := s.UserTimeline(u.ID, 0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Tweets) != 200 {
		t.Fatalf("count not clamped to 200, got %d", len(page.Tweets))
	}
	page, _ = s.UserTimeline(u.ID, 0, 0)
	if len(page.Tweets) != 20 {
		t.Fatalf("default count = %d, want 20", len(page.Tweets))
	}
}

func TestSearch(t *testing.T) {
	s := NewService()
	u := newUser(t, s, "a", "")
	s.PostTweet(u.ID, "Big earthquake in Seoul!", t0, nil)
	s.PostTweet(u.ID, "lunch time", t0, &GeoTag{Lat: 37.5, Lon: 127})
	s.PostTweet(u.ID, "EARTHQUAKE again", t0, &GeoTag{Lat: 35.1, Lon: 129})

	hits := s.Search(SearchQuery{Text: "earthquake", Count: 10})
	if len(hits) != 2 {
		t.Fatalf("search hits = %d, want 2", len(hits))
	}
	if hits[0].ID >= hits[1].ID {
		t.Fatal("search results should be oldest first")
	}
	geoHits := s.Search(SearchQuery{OnlyGeo: true, Count: 10})
	if len(geoHits) != 2 {
		t.Fatalf("geo hits = %d, want 2", len(geoHits))
	}
	// since_id resumption.
	next := s.Search(SearchQuery{Text: "earthquake", SinceID: hits[0].ID, Count: 10})
	if len(next) != 1 || next[0].ID != hits[1].ID {
		t.Fatalf("since_id resume = %v", next)
	}
}

func TestStreamDelivery(t *testing.T) {
	s := NewService()
	u := newUser(t, s, "a", "")
	ch, cancel := s.OpenStream(16)
	defer cancel()
	want := 5
	for i := 0; i < want; i++ {
		s.PostTweet(u.ID, "streamed", t0, nil)
	}
	got := 0
	timeout := time.After(time.Second)
	for got < want {
		select {
		case <-ch:
			got++
		case <-timeout:
			t.Fatalf("received %d/%d streamed tweets", got, want)
		}
	}
	// After cancel, posting must not block or panic.
	cancel()
	if _, err := s.PostTweet(u.ID, "after cancel", t0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStreamSlowConsumerDrops(t *testing.T) {
	s := NewService()
	u := newUser(t, s, "a", "")
	_, cancel := s.OpenStream(1) // tiny buffer, never drained
	defer cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			s.PostTweet(u.ID, "flood", t0, nil)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("posting blocked on slow stream consumer")
	}
}

// TestStreamShedCountedPerSubscriber opens two one-slot subscriptions, drains
// one after every post and never reads the other: the drained one misses
// nothing, the other misses every tweet after the first, and StreamShed and
// the API server's gauge report the sum.
func TestStreamShedCountedPerSubscriber(t *testing.T) {
	s := NewService()
	u := newUser(t, s, "a", "")
	reg := obs.NewRegistry()
	NewAPIServer(s, ServerOptions{Metrics: reg})
	drained, cancelDrained := s.OpenStream(1)
	defer cancelDrained()
	_, cancelLagging := s.OpenStream(1)
	const posts = 10
	for i := 0; i < posts; i++ {
		if _, err := s.PostTweet(u.ID, "flood", t0, nil); err != nil {
			t.Fatal(err)
		}
		<-drained
	}
	s.mu.RLock()
	got := []int64{s.streamers[0].shed, s.streamers[1].shed}
	s.mu.RUnlock()
	if got[0] != 0 || got[1] != posts-1 {
		t.Fatalf("per-subscriber shed = %v, want [0 %d]", got, posts-1)
	}
	cancelLagging()
	if n := s.StreamShed(); n != posts-1 {
		t.Fatalf("StreamShed = %d, want %d", n, posts-1)
	}
	if m, ok := reg.Snapshot().Get("stir_twitter_stream_shed_total"); !ok || m.Value != posts-1 {
		t.Fatalf("stir_twitter_stream_shed_total = %+v (found %v), want %d", m, ok, posts-1)
	}
}

// TestShedGaugeDoesNotPinService drops a service whose API server exported
// the shed gauge: the registry outlives both and must not keep the tweet
// store reachable.
func TestShedGaugeDoesNotPinService(t *testing.T) {
	reg := obs.NewRegistry()
	svc := NewService()
	NewAPIServer(svc, ServerOptions{Metrics: reg})
	w := weak.Make(svc)
	svc = nil
	runtime.GC()
	if w.Value() != nil {
		t.Fatal("the metrics registry keeps a dropped service reachable")
	}
	if _, ok := reg.Snapshot().Get("stir_twitter_stream_shed_total"); !ok {
		t.Fatal("stir_twitter_stream_shed_total not exported")
	}
}

// TestStreamCancelDuringPost closes subscriptions while a poster runs: a
// post must never send on a channel a concurrent cancel has closed.
func TestStreamCancelDuringPost(t *testing.T) {
	s := NewService()
	u := newUser(t, s, "a", "")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.PostTweet(u.ID, "x", t0, nil)
			}
		}
	}()
	for i := 0; i < 20000; i++ {
		_, cancel := s.OpenStream(1)
		cancel()
	}
	close(stop)
	wg.Wait()
}

func TestEachTweetAndUser(t *testing.T) {
	s := NewService()
	a := newUser(t, s, "a", "")
	newUser(t, s, "b", "")
	s.PostTweet(a.ID, "1", t0, nil)
	s.PostTweet(a.ID, "2", t0, nil)
	var tweetCount int
	s.EachTweet(func(tw *Tweet) bool { tweetCount++; return true })
	if tweetCount != 2 {
		t.Fatalf("EachTweet visited %d", tweetCount)
	}
	var names []string
	s.EachUser(func(u *User) bool { names = append(names, u.ScreenName); return len(names) < 1 })
	if len(names) != 1 || names[0] != "a" {
		t.Fatalf("EachUser early stop = %v", names)
	}
}

func TestServiceConcurrency(t *testing.T) {
	s := NewService()
	users := make([]*User, 8)
	for i := range users {
		users[i] = newUser(t, s, "u", "")
	}
	var wg sync.WaitGroup
	for i := range users {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s.PostTweet(users[i].ID, "c", t0, nil)
				s.UserTimeline(users[i].ID, 0, 10)
				s.Search(SearchQuery{Text: "c", Count: 5})
			}
		}(i)
	}
	wg.Wait()
	if s.TweetCount() != 400 {
		t.Fatalf("TweetCount = %d, want 400", s.TweetCount())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	u := &User{ID: 7, ScreenName: "bslee", ProfileLocation: "서울 양천구", Lang: "ko", CreatedAt: t0}
	b, err := EncodeUser(u)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := DecodeUser(b)
	if err != nil || *u2 != *u {
		t.Fatalf("user roundtrip = %+v, %v", u2, err)
	}
	tw := &Tweet{ID: 9, UserID: 7, Text: "hi", CreatedAt: t0, Geo: &GeoTag{Lat: 37.5, Lon: 127}}
	tb, err := EncodeTweet(tw)
	if err != nil {
		t.Fatal(err)
	}
	tw2, err := DecodeTweet(tb)
	if err != nil || tw2.ID != tw.ID || *tw2.Geo != *tw.Geo {
		t.Fatalf("tweet roundtrip = %+v, %v", tw2, err)
	}
	if _, err := DecodeUser([]byte("{bad")); err == nil {
		t.Fatal("bad user json accepted")
	}
	if _, err := DecodeTweet([]byte("{bad")); err == nil {
		t.Fatal("bad tweet json accepted")
	}
}
