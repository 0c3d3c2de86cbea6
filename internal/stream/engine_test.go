package stream

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stir/internal/core"
	"stir/internal/geo"
	"stir/internal/geocode"
	"stir/internal/obs"
	"stir/internal/resilience"
	"stir/internal/twitter"
)

// fixedProfiles resolves every user to the same place and counts calls.
type fixedProfiles struct {
	place core.Place
	calls atomic.Int64
	block chan struct{} // when set, resolve waits here first
	fail  atomic.Bool
}

func (f *fixedProfiles) fn(ctx context.Context, id twitter.UserID) (core.Place, bool, error) {
	f.calls.Add(1)
	if f.block != nil {
		<-f.block
	}
	if f.fail.Load() {
		return core.Place{}, false, errors.New("profile backend down")
	}
	return f.place, true, nil
}

// echoResolver maps every point to a place keyed by its integer latitude.
type echoResolver struct{}

func (echoResolver) Reverse(_ context.Context, p geo.Point) (geocode.Location, error) {
	if p.Lat < 0 {
		return geocode.Location{}, geocode.ErrNoMatch
	}
	return geocode.Location{State: "S", County: "C"}, nil
}

func geoTweet(id, user int64, lat float64) *twitter.Tweet {
	return &twitter.Tweet{ID: twitter.TweetID(id), UserID: twitter.UserID(user),
		Geo: &twitter.GeoTag{Lat: lat, Lon: 1}}
}

func plainEngine(t *testing.T, mutate func(*Config)) (*Engine, *fixedProfiles) {
	t.Helper()
	prof := &fixedProfiles{place: core.Place{State: "S", County: "C"}}
	cfg := Config{
		Shards:   1,
		Profiles: prof.fn,
		Resolver: echoResolver{},
		Metrics:  obs.NewRegistry(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng, prof
}

func TestNewRequiresDeps(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("want error without Profiles/Resolver")
	}
}

func TestDropWhenFull(t *testing.T) {
	eng, prof := plainEngine(t, func(c *Config) {
		c.Buffer = 1
		c.DropWhenFull = true
	})
	prof.block = make(chan struct{})
	// First tweet occupies the worker (blocked in the profile resolve),
	// second fills the queue, third must be shed.
	if !eng.Ingest(geoTweet(1, 10, 1)) {
		t.Fatal("first ingest refused")
	}
	for prof.calls.Load() == 0 { // wait until the worker holds tweet 1
		time.Sleep(time.Millisecond)
	}
	if !eng.Ingest(geoTweet(2, 10, 1)) {
		t.Fatal("second ingest refused with an empty queue slot")
	}
	if eng.Ingest(geoTweet(3, 10, 1)) {
		t.Fatal("third ingest accepted beyond capacity")
	}
	close(prof.block) // closed channel: later resolves pass straight through
	eng.Drain()
	st := eng.Stats()
	if st.Dropped != 1 || st.PerShardDropped[0] != 1 {
		t.Fatalf("dropped = %d (%v), want 1", st.Dropped, st.PerShardDropped)
	}
	if st.Processed != 2 {
		t.Fatalf("processed = %d, want 2", st.Processed)
	}
	if st.Ingested != 2 || eng.Ingested() != 2 {
		t.Fatalf("ingested = %d, want 2 (drops must not count)", st.Ingested)
	}
}

func TestIngestAfterCloseRefuses(t *testing.T) {
	eng, _ := plainEngine(t, nil)
	eng.Close()
	if eng.Ingest(geoTweet(1, 1, 1)) {
		t.Fatal("ingest accepted after Close")
	}
}

func TestProfileCachedPerUser(t *testing.T) {
	eng, prof := plainEngine(t, nil)
	for i := int64(0); i < 10; i++ {
		eng.Ingest(geoTweet(i, 7, 1))
	}
	eng.Drain()
	if got := prof.calls.Load(); got != 1 {
		t.Fatalf("profile resolved %d times for one user, want 1", got)
	}
}

func TestTransientProfileErrorRetries(t *testing.T) {
	eng, prof := plainEngine(t, nil)
	prof.fail.Store(true)
	eng.Ingest(geoTweet(1, 7, 1))
	eng.Drain()
	if st := eng.Stats(); st.ProfileErrors != 1 || st.Users != 0 {
		t.Fatalf("after transient failure: %+v", st)
	}
	// The backend recovers; the user's next tweet retries and lands.
	prof.fail.Store(false)
	eng.Ingest(geoTweet(2, 7, 1))
	eng.Drain()
	st := eng.Stats()
	if st.Users != 1 || st.Processed != 1 {
		t.Fatalf("after recovery: %+v", st)
	}
	if prof.calls.Load() != 2 {
		t.Fatalf("profile calls = %d, want 2", prof.calls.Load())
	}
}

func TestGeocodeFailureCounted(t *testing.T) {
	eng, _ := plainEngine(t, nil)
	eng.Ingest(geoTweet(1, 7, -5)) // negative latitude → ErrNoMatch
	eng.Ingest(geoTweet(2, 7, 1))
	eng.Ingest(&twitter.Tweet{ID: 3, UserID: 7}) // no geo tag
	eng.Drain()
	st := eng.Stats()
	if st.GeocodeFailures != 1 || st.Processed != 1 || st.NonGeo != 1 {
		t.Fatalf("stats %+v", st)
	}
	v, ok := eng.User(7)
	if !ok || v.TotalTweets != 1 || v.Group != "Top-1" || v.Rank != 1 || v.Weight != 1 {
		t.Fatalf("user view %+v ok=%v", v, ok)
	}
}

func TestDedupByTweetID(t *testing.T) {
	eng, _ := plainEngine(t, func(c *Config) { c.DedupByTweetID = true })
	eng.Ingest(geoTweet(5, 7, 1))
	eng.Ingest(geoTweet(5, 7, 1)) // replayed
	eng.Ingest(geoTweet(4, 7, 1)) // older ID
	eng.Ingest(geoTweet(6, 7, 1)) // fresh
	eng.Drain()
	st := eng.Stats()
	if st.Processed != 2 || st.Duplicates != 2 {
		t.Fatalf("stats %+v, want 2 processed / 2 duplicates", st)
	}
}

func TestGroupCountsTrackSnapshot(t *testing.T) {
	ds := testDataset(t, 300, 3)
	eng := testEngine(t, ds, nil)
	defer eng.Close()
	for _, tw := range allTweets(ds) {
		eng.Ingest(tw)
	}
	eng.Drain()
	users, tweets := eng.GroupCounts()
	snap := eng.Snapshot()
	for g := 0; g < core.NumGroups; g++ {
		if users[g] != snap.Analysis.Groups[g].Users {
			t.Fatalf("group %d users: incremental %d, snapshot %d", g, users[g], snap.Analysis.Groups[g].Users)
		}
		if tweets[g] != snap.Analysis.Groups[g].Tweets {
			t.Fatalf("group %d tweets: incremental %d, snapshot %d", g, tweets[g], snap.Analysis.Groups[g].Tweets)
		}
	}
}

// TestRunGivesUpAfterPolicyExhaustion runs the default policy's attempt
// count against a source that keeps refusing: every attempt reaches the
// source (none is failed fast), the policy gives up once, and Run returns
// its exhaustion error.
func TestRunGivesUpAfterPolicyExhaustion(t *testing.T) {
	reg := obs.NewRegistry()
	eng, _ := plainEngine(t, func(c *Config) {
		c.Reconnect = &resilience.Policy{
			Name:        "stream_test",
			MaxAttempts: 8,
			BaseDelay:   time.Millisecond,
			Metrics:     reg,
			Sleep:       func(ctx context.Context, _ time.Duration) error { return ctx.Err() },
		}
	})
	var connects atomic.Int64
	src := srcFunc(func(ctx context.Context, fn func(*twitter.Tweet) bool) error {
		connects.Add(1)
		return nil // connects, delivers nothing, ends
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := eng.Run(ctx, src)
	if err == nil || !strings.Contains(err.Error(), "attempts exhausted") {
		t.Fatalf("Run = %v, want the connect policy's exhaustion error", err)
	}
	if st := eng.Stats(); st.ConnectFailures != 8 || connects.Load() != 8 {
		t.Fatalf("connect failures %d, source connects %d, want 8 and 8", st.ConnectFailures, connects.Load())
	}
	if m, ok := reg.Snapshot().Get("resilience_giveups_total", "policy", "stream_test"); !ok || m.Value != 1 {
		t.Fatalf("resilience_giveups_total = %+v ok=%v, want 1", m, ok)
	}
}

type srcFunc func(ctx context.Context, fn func(*twitter.Tweet) bool) error

func (f srcFunc) Stream(ctx context.Context, fn func(*twitter.Tweet) bool) error { return f(ctx, fn) }

// TestAnalysisConcurrentWithIngest reads the summary cut, the group counts
// and the group gauges while tweets are being applied; once drained, the cut
// is the batch analysis. Run under -race this checks the summaries' locking.
func TestAnalysisConcurrentWithIngest(t *testing.T) {
	ds := testDataset(t, 200, 5)
	res, err := ds.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eng := testEngine(t, ds, func(c *Config) { c.Metrics = reg })
	defer eng.Close()
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
			}
			eng.Analysis()
			eng.GroupCounts()
			reg.Snapshot()
		}
	}()
	for _, tw := range allTweets(ds) {
		eng.Ingest(tw)
	}
	eng.Drain()
	close(stop)
	wg.Wait()
	if got, want := mustJSON(t, eng.Analysis()), mustJSON(t, res.Analysis); !bytes.Equal(got, want) {
		t.Fatalf("drained analysis:\n got %s\nwant %s", got, want)
	}
}
