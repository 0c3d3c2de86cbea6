package twitter

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"stir/internal/obs"
	"stir/internal/resilience"
	"stir/internal/storage"
)

// buildCommunity creates a two-hop follower graph:
// seed <- 5 followers, each of those <- 3 followers (15 leaves), 21 total.
func buildCommunity(t *testing.T, svc *Service) UserID {
	t.Helper()
	seed := newUser(t, svc, "seed", "Seoul Jongno-gu")
	svc.PostTweet(seed.ID, "hello", t0, &GeoTag{Lat: 37.57, Lon: 126.98})
	for i := 0; i < 5; i++ {
		mid := newUser(t, svc, "mid", "Seoul Mapo-gu")
		if err := svc.Follow(mid.ID, seed.ID); err != nil {
			t.Fatal(err)
		}
		svc.PostTweet(mid.ID, "mid tweet", t0, nil)
		for j := 0; j < 3; j++ {
			leaf := newUser(t, svc, "leaf", "Bucheon-si")
			if err := svc.Follow(leaf.ID, mid.ID); err != nil {
				t.Fatal(err)
			}
			svc.PostTweet(leaf.ID, "leaf tweet", t0, &GeoTag{Lat: 37.5, Lon: 126.76})
		}
	}
	return seed.ID
}

func newCrawler(t *testing.T, c *Client) (*Crawler, *storage.Store) {
	t.Helper()
	st, err := storage.Open(t.TempDir(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return &Crawler{Client: c, Store: st}, st
}

func TestCrawlerBFS(t *testing.T) {
	svc := NewService()
	seed := buildCommunity(t, svc)
	_, c := startAPI(t, svc, ServerOptions{})
	cr, st := newCrawler(t, c)

	res, err := cr.Run(context.Background(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if res.UsersCollected != 21 {
		t.Fatalf("UsersCollected = %d, want 21", res.UsersCollected)
	}
	if res.TweetsCollected != 21 {
		t.Fatalf("TweetsCollected = %d, want 21", res.TweetsCollected)
	}
	if res.GeoTweets != 16 {
		t.Fatalf("GeoTweets = %d, want 16", res.GeoTweets)
	}
	users, tweets, err := LoadCollected(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 21 {
		t.Fatalf("stored users = %d", len(users))
	}
	total := 0
	for _, ts := range tweets {
		total += len(ts)
	}
	if total != 21 {
		t.Fatalf("stored tweets = %d", total)
	}
}

func TestCrawlerMaxUsers(t *testing.T) {
	svc := NewService()
	seed := buildCommunity(t, svc)
	_, c := startAPI(t, svc, ServerOptions{})
	cr, _ := newCrawler(t, c)
	cr.MaxUsers = 6
	res, err := cr.Run(context.Background(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if res.UsersCollected != 6 {
		t.Fatalf("UsersCollected = %d, want 6", res.UsersCollected)
	}
}

func TestCrawlerResume(t *testing.T) {
	svc := NewService()
	seed := buildCommunity(t, svc)
	_, c := startAPI(t, svc, ServerOptions{})
	cr, st := newCrawler(t, c)

	// First leg: stop after 6 users.
	cr.MaxUsers = 6
	if _, err := cr.Run(context.Background(), seed); err != nil {
		t.Fatal(err)
	}
	// Second leg resumes from the checkpoint (seeds ignored) and finishes.
	cr2 := &Crawler{Client: c, Store: st}
	res, err := cr2.Run(context.Background(), 424242) // bogus seed must be ignored
	if err != nil {
		t.Fatal(err)
	}
	if res.UsersCollected != 21 {
		t.Fatalf("resumed UsersCollected = %d, want 21", res.UsersCollected)
	}
	users, _, err := LoadCollected(st)
	if err != nil || len(users) != 21 {
		t.Fatalf("stored users after resume = %d, %v", len(users), err)
	}
}

func TestCrawlerContextCancel(t *testing.T) {
	svc := NewService()
	seed := buildCommunity(t, svc)
	_, c := startAPI(t, svc, ServerOptions{})
	cr, _ := newCrawler(t, c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cr.Run(ctx, seed); err == nil {
		t.Fatal("cancelled crawl should error")
	}
}

func TestCrawlerSurvivesRateLimits(t *testing.T) {
	svc := NewService()
	seed := buildCommunity(t, svc)
	srv := httptest.NewServer(NewAPIServer(svc, ServerOptions{RESTLimit: 7, Window: 100 * time.Millisecond}))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)
	c.Retry.MaxDelay = 120 * time.Millisecond
	c.Retry.MaxAttempts = 51
	cr, _ := newCrawler(t, c)
	res, err := cr.Run(context.Background(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if res.UsersCollected != 21 {
		t.Fatalf("UsersCollected = %d, want 21 despite rate limits", res.UsersCollected)
	}
}

func TestCrawlerMissingConfig(t *testing.T) {
	cr := &Crawler{}
	if _, err := cr.Run(context.Background(), 1); err == nil {
		t.Fatal("crawler without client/store should error")
	}
}

func TestCrawlerOnProgress(t *testing.T) {
	svc := NewService()
	seed := buildCommunity(t, svc)
	_, c := startAPI(t, svc, ServerOptions{})
	cr, _ := newCrawler(t, c)
	calls := 0
	cr.OnProgress = func(done, queued int) { calls++ }
	if _, err := cr.Run(context.Background(), seed); err != nil {
		t.Fatal(err)
	}
	if calls != 21 {
		t.Fatalf("OnProgress calls = %d, want 21", calls)
	}
}

// A crash between UserShow and UserTimeline must leave no partial user in
// the store, and the resumed crawl must re-fetch that user exactly once.
func TestCrawlerCrashMidUserLeavesNoPartialState(t *testing.T) {
	svc := NewService()
	seed := buildCommunity(t, svc)
	api := NewAPIServer(svc, ServerOptions{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var crashed atomic.Bool
	var seedShows atomic.Int64
	seedStr := strconv.FormatInt(int64(seed), 10)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/1/users/show.json" && r.URL.Query().Get("user_id") == seedStr {
			seedShows.Add(1)
		}
		if r.URL.Path == "/1/statuses/user_timeline.json" && r.URL.Query().Get("user_id") == seedStr && !crashed.Load() {
			// The "crash": kill the crawl after UserShow succeeded but
			// before the timeline landed.
			crashed.Store(true)
			cancel()
			http.Error(w, "crashed", http.StatusInternalServerError)
			return
		}
		api.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	c := NewClient(srv.URL)
	c.Retry.MaxDelay = 20 * time.Millisecond
	c.Retry.MaxAttempts = 4
	cr, st := newCrawler(t, c)
	if _, err := cr.Run(ctx, seed); err == nil {
		t.Fatal("crashed run must return an error")
	}
	for _, pfx := range []string{userKeyPfx, tweetKeyPfx, crawlVisitedPfx, crawlQuarantinePfx} {
		if ks := st.KeysWithPrefix(pfx); len(ks) != 0 {
			t.Fatalf("partial state leaked under %q: %v", pfx, ks)
		}
	}

	seedShows.Store(0)
	cr2 := &Crawler{Client: NewClient(srv.URL), Store: st}
	res, err := cr2.Run(context.Background(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if res.UsersCollected != 21 {
		t.Fatalf("resumed UsersCollected = %d, want 21", res.UsersCollected)
	}
	if n := seedShows.Load(); n != 1 {
		t.Fatalf("resume fetched the crashed user %d times, want exactly once", n)
	}
}

// A user whose fetches keep failing is quarantined and the crawl moves on.
func TestCrawlerQuarantinesPoisonedUser(t *testing.T) {
	svc := NewService()
	seed := newUser(t, svc, "seed", "Seoul Jongno-gu")
	svc.PostTweet(seed.ID, "s", t0, &GeoTag{Lat: 37.57, Lon: 126.98})
	poisoned := newUser(t, svc, "poisoned", "Seoul Mapo-gu")
	if err := svc.Follow(poisoned.ID, seed.ID); err != nil {
		t.Fatal(err)
	}
	healthy := newUser(t, svc, "healthy", "Bucheon-si")
	if err := svc.Follow(healthy.ID, seed.ID); err != nil {
		t.Fatal(err)
	}
	svc.PostTweet(healthy.ID, "h", t0, nil)

	api := NewAPIServer(svc, ServerOptions{})
	poisonedStr := strconv.FormatInt(int64(poisoned.ID), 10)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("user_id") == poisonedStr {
			http.Error(w, "permanently broken upstream", http.StatusServiceUnavailable)
			return
		}
		api.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	c := NewClient(srv.URL)
	c.Retry.MaxDelay = 10 * time.Millisecond
	c.Retry.MaxAttempts = 2
	cr, st := newCrawler(t, c)
	reg := obs.NewRegistry()
	cr.Metrics = reg
	cr.Retry = &resilience.Policy{
		Name: "crawler", MaxAttempts: 2, BaseDelay: time.Millisecond, Metrics: reg,
	}
	res, err := cr.Run(context.Background(), seed.ID)
	if err != nil {
		t.Fatalf("crawl must survive a poisoned user: %v", err)
	}
	if res.UsersCollected != 2 || res.UsersQuarantined != 1 {
		t.Fatalf("res = %+v, want 2 collected / 1 quarantined", res)
	}
	q, err := QuarantinedUsers(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 1 || q[poisoned.ID] == "" {
		t.Fatalf("QuarantinedUsers = %v, want cause for %d", q, poisoned.ID)
	}
	users, _, err := LoadCollected(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 2 {
		t.Fatalf("stored users = %d, want 2 (no partial poisoned profile)", len(users))
	}
	if m, ok := reg.Snapshot().Get("crawl_quarantined_total"); !ok || m.Value != 1 {
		t.Fatalf("crawl_quarantined_total = %+v ok=%v, want 1", m, ok)
	}
}

// A fresh crawl must report its own counters, not recount whatever else the
// store happens to hold (the recount is only for resumed crawls).
func TestFreshCrawlDoesNotRecountStore(t *testing.T) {
	svc := NewService()
	loner := newUser(t, svc, "loner", "Seoul Jongno-gu")
	_, c := startAPI(t, svc, ServerOptions{})
	cr, st := newCrawler(t, c)
	if err := st.Put(tweetKeyPfx+"999", []byte("stale")); err != nil {
		t.Fatal(err)
	}
	res, err := cr.Run(context.Background(), loner.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.UsersCollected != 1 || res.TweetsCollected != 0 {
		t.Fatalf("res = %+v; stale store contents leaked into a fresh crawl's counters", res)
	}
}
