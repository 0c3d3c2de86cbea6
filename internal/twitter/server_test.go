package twitter

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func startAPI(t *testing.T, svc *Service, opts ServerOptions) (*httptest.Server, *Client) {
	t.Helper()
	srv := httptest.NewServer(NewAPIServer(svc, opts))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)
	c.Retry.MaxDelay = 50 * time.Millisecond
	c.Retry.MaxAttempts = 51
	return srv, c
}

func seedGraph(t *testing.T, svc *Service) (*User, []*User) {
	t.Helper()
	seed := newUser(t, svc, "seed", "Seoul Jongno-gu")
	var followers []*User
	for i := 0; i < 12; i++ {
		u := newUser(t, svc, "f", "Seoul Mapo-gu")
		if err := svc.Follow(u.ID, seed.ID); err != nil {
			t.Fatal(err)
		}
		followers = append(followers, u)
	}
	return seed, followers
}

func TestHTTPUserShow(t *testing.T) {
	svc := NewService()
	u := newUser(t, svc, "alice", "부천시")
	_, c := startAPI(t, svc, ServerOptions{})
	got, err := c.UserShow(context.Background(), u.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ScreenName != "alice" || got.ProfileLocation != "부천시" {
		t.Fatalf("UserShow = %+v", got)
	}
	_, err = c.UserShow(context.Background(), 9999)
	if !IsNotFound(err) {
		t.Fatalf("missing user err = %v", err)
	}
}

func TestHTTPFollowerPaging(t *testing.T) {
	svc := NewService()
	seed, followers := seedGraph(t, svc)
	_, c := startAPI(t, svc, ServerOptions{FollowersPageSize: 5})
	ids, err := c.FollowerIDs(context.Background(), seed.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(followers) {
		t.Fatalf("got %d follower ids, want %d", len(ids), len(followers))
	}
}

func TestHTTPTimelineAndSearch(t *testing.T) {
	svc := NewService()
	u := newUser(t, svc, "a", "")
	for i := 0; i < 250; i++ {
		text := "regular"
		var g *GeoTag
		if i%10 == 0 {
			text = "earthquake now"
			g = &GeoTag{Lat: 37.5, Lon: 127}
		}
		if _, err := svc.PostTweet(u.ID, text, t0.Add(time.Duration(i)*time.Second), g); err != nil {
			t.Fatal(err)
		}
	}
	_, c := startAPI(t, svc, ServerOptions{})
	tl, err := c.UserTimeline(context.Background(), u.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) != 250 {
		t.Fatalf("timeline = %d tweets, want 250", len(tl))
	}
	limited, err := c.UserTimeline(context.Background(), u.ID, 30)
	if err != nil || len(limited) != 30 {
		t.Fatalf("limited timeline = %d, %v", len(limited), err)
	}
	hits, err := c.Search(context.Background(), "earthquake", false, 0)
	if err != nil || len(hits) != 25 {
		t.Fatalf("search = %d hits, %v; want 25", len(hits), err)
	}
	geoHits, err := c.Search(context.Background(), "", true, 0)
	if err != nil || len(geoHits) != 25 {
		t.Fatalf("geo search = %d hits, %v; want 25", len(geoHits), err)
	}
}

func TestHTTPRateLimitAndRecovery(t *testing.T) {
	svc := NewService()
	u := newUser(t, svc, "a", "")
	_, c := startAPI(t, svc, ServerOptions{RESTLimit: 3, Window: 200 * time.Millisecond})
	// 10 calls against a budget of 3 per 200ms: the client must back off and
	// eventually succeed on every call.
	for i := 0; i < 10; i++ {
		if _, err := c.UserShow(context.Background(), u.ID); err != nil {
			t.Fatalf("call %d failed: %v", i, err)
		}
	}
}

func TestHTTPRateLimitHeaders(t *testing.T) {
	svc := NewService()
	u := newUser(t, svc, "a", "")
	srv, _ := startAPI(t, svc, ServerOptions{RESTLimit: 2, Window: time.Hour})
	resp, err := http.Get(srv.URL + "/1/users/show.json?user_id=" + itoa(int64(u.ID)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-RateLimit-Limit") != "2" || resp.Header.Get("X-RateLimit-Remaining") != "1" {
		t.Fatalf("headers = %v", resp.Header)
	}
	http.Get(srv.URL + "/1/users/show.json?user_id=" + itoa(int64(u.ID)))
	resp3, _ := http.Get(srv.URL + "/1/users/show.json?user_id=" + itoa(int64(u.ID)))
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp3.StatusCode)
	}
}

func itoa(v int64) string {
	b := [20]byte{}
	i := len(b)
	if v == 0 {
		return "0"
	}
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestHTTPBadRequests(t *testing.T) {
	svc := NewService()
	srv, _ := startAPI(t, svc, ServerOptions{})
	for _, path := range []string{
		"/1/users/show.json",                 // missing user_id
		"/1/users/show.json?user_id=abc",     // non-numeric
		"/1/users/show.json?user_id=-5",      // negative
		"/1/followers/ids.json?user_id=zero", // invalid
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestHTTPStreaming(t *testing.T) {
	svc := NewService()
	u := newUser(t, svc, "a", "")
	_, c := startAPI(t, svc, ServerOptions{})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	var got atomic.Int32
	streamDone := make(chan error, 1)
	go func() {
		streamDone <- c.Stream(ctx, "gaga", func(tw *Tweet) bool {
			return got.Add(1) < 3
		})
	}()

	// Post until the consumer has what it needs; the stream subscription may
	// attach slightly after the first posts.
	deadline := time.After(4 * time.Second)
	for got.Load() < 3 {
		svc.PostTweet(u.ID, "lady GAGA concert", t0, nil)
		svc.PostTweet(u.ID, "unrelated", t0, nil)
		select {
		case <-deadline:
			t.Fatalf("stream delivered %d/3 tracked tweets", got.Load())
		case <-time.After(5 * time.Millisecond):
		}
	}
	if err := <-streamDone; err != nil {
		t.Fatalf("stream returned %v", err)
	}
}

func TestHTTPStreamCancellation(t *testing.T) {
	svc := NewService()
	_, c := startAPI(t, svc, ServerOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- c.Stream(ctx, "", func(*Tweet) bool { return true })
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil && ctx.Err() == nil {
			t.Fatalf("stream err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stream did not stop on cancellation")
	}
}

func TestHTTPUsersLookup(t *testing.T) {
	svc := NewService()
	var ids []UserID
	for i := 0; i < 250; i++ {
		u := newUser(t, svc, "u", "Seoul")
		ids = append(ids, u.ID)
	}
	_, c := startAPI(t, svc, ServerOptions{})
	// Includes unknown IDs, which are silently omitted.
	query := append(append([]UserID{}, ids...), 99999, 88888)
	users, err := c.UsersLookup(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 250 {
		t.Fatalf("looked up %d users, want 250", len(users))
	}
	// Batch efficiency: 252 IDs must cost 3 rate-limit tokens, not 252.
	svc2 := NewService()
	var ids2 []UserID
	for i := 0; i < 250; i++ {
		u := newUser(t, svc2, "u", "")
		ids2 = append(ids2, u.ID)
	}
	_, c2 := startAPI(t, svc2, ServerOptions{RESTLimit: 3, Window: time.Hour})
	if _, err := c2.UsersLookup(context.Background(), ids2); err != nil {
		t.Fatalf("batch lookup blew the 3-token budget: %v", err)
	}
}

func TestHTTPUsersLookupBadRequest(t *testing.T) {
	svc := NewService()
	srv, _ := startAPI(t, svc, ServerOptions{})
	for _, q := range []string{"", "user_id=abc", "user_id=1,x"} {
		resp, err := http.Get(srv.URL + "/1/users/lookup.json?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d", q, resp.StatusCode)
		}
	}
}
