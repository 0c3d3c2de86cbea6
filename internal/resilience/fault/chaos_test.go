// Acceptance chaos runs for the resilience layer: a degraded pipeline run
// under injected geocode faults accounts for every dropped user, and a crawl
// against a flaky API converges to the same store a fault-free crawl builds.
// Every schedule is seeded, so a failure replays bit-for-bit.
package fault_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"stir"
	"stir/internal/obs"
	"stir/internal/resilience/fault"
	"stir/internal/storage"
	"stir/internal/twitter"

	"net/http/httptest"
)

func TestChaosDegradedPipelineAccountsForEveryDrop(t *testing.T) {
	ctx := context.Background()
	ds, err := stir.NewKoreanDataset(stir.DatasetOptions{Seed: 1, Users: 300})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := ds.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Strict mode under the same 10% fault schedule must abort...
	faults := stir.AnalyzeOptions{FaultRate: 0.1, FaultSeed: 42}
	if _, err := ds.AnalyzeWith(ctx, faults); err == nil {
		t.Fatal("strict run under injected faults should fail")
	}

	// ...while the degraded run completes and accounts for every drop.
	faults.ContinueOnError = true
	res, err := ds.AnalyzeWith(ctx, faults)
	if err != nil {
		t.Fatalf("degraded run: %v", err)
	}
	if len(res.SkippedUsers) == 0 {
		t.Fatal("10% faults over 300 users must skip someone")
	}
	if res.Funnel.SkippedUsers != len(res.SkippedUsers) {
		t.Fatalf("funnel says %d skipped, result lists %d", res.Funnel.SkippedUsers, len(res.SkippedUsers))
	}
	for i := 1; i < len(res.SkippedUsers); i++ {
		if res.SkippedUsers[i] <= res.SkippedUsers[i-1] {
			t.Fatalf("SkippedUsers not sorted/unique at %d: %v", i, res.SkippedUsers)
		}
	}
	// Faults only remove users, and every fault-removed user is recorded:
	// the clean run's finals are exactly the degraded finals plus a subset
	// of the skips.
	if res.Funnel.FinalUsers > clean.Funnel.FinalUsers {
		t.Fatalf("degraded finals %d exceed clean finals %d", res.Funnel.FinalUsers, clean.Funnel.FinalUsers)
	}
	if res.Funnel.FinalUsers+len(res.SkippedUsers) < clean.Funnel.FinalUsers {
		t.Fatalf("finals %d + skipped %d do not cover clean finals %d: users dropped without record",
			res.Funnel.FinalUsers, len(res.SkippedUsers), clean.Funnel.FinalUsers)
	}

	// Same seed, same schedule, same skips.
	again, err := ds.AnalyzeWith(ctx, faults)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.SkippedUsers, res.SkippedUsers) {
		t.Fatalf("same seed skipped %v then %v", res.SkippedUsers, again.SkippedUsers)
	}
}

// chaosCommunity builds a small crawlable follower graph: a seed, 4 mid
// users, 2 leaves each — 13 users, geo tweets throughout.
func chaosCommunity(t *testing.T) (*twitter.Service, twitter.UserID) {
	t.Helper()
	svc := twitter.NewService()
	t0 := time.Date(2011, 9, 1, 0, 0, 0, 0, time.UTC)
	seed, err := svc.CreateUser("seed", "Seoul Jongno-gu", "ko", t0)
	if err != nil {
		t.Fatal(err)
	}
	svc.PostTweet(seed.ID, "hello", t0, &twitter.GeoTag{Lat: 37.57, Lon: 126.98})
	for i := 0; i < 4; i++ {
		mid, err := svc.CreateUser("mid", "Seoul Mapo-gu", "ko", t0)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Follow(mid.ID, seed.ID); err != nil {
			t.Fatal(err)
		}
		svc.PostTweet(mid.ID, "mid", t0, &twitter.GeoTag{Lat: 37.55, Lon: 126.9})
		for j := 0; j < 2; j++ {
			leaf, err := svc.CreateUser("leaf", "Bucheon-si", "ko", t0)
			if err != nil {
				t.Fatal(err)
			}
			if err := svc.Follow(leaf.ID, mid.ID); err != nil {
				t.Fatal(err)
			}
			svc.PostTweet(leaf.ID, "leaf", t0, nil)
		}
	}
	return svc, seed.ID
}

// crawlStore crawls the API at baseURL into a fresh store and returns the
// collected users and tweets plus the store itself.
func crawlStore(t *testing.T, baseURL string, seed twitter.UserID) (map[twitter.UserID]*twitter.User, map[twitter.UserID][]*twitter.Tweet, *storage.Store) {
	t.Helper()
	st, err := storage.Open(t.TempDir(), storage.Options{Metrics: obs.Discard})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	c := twitter.NewClient(baseURL)
	c.Retry.MaxDelay = 20 * time.Millisecond
	c.Retry.MaxAttempts = 31
	c.Metrics = obs.Discard
	cr := &twitter.Crawler{Client: c, Store: st, Metrics: obs.Discard}
	res, err := cr.Run(context.Background(), seed)
	if err != nil {
		t.Fatalf("crawl against %s: %v", baseURL, err)
	}
	if res.UsersQuarantined != 0 {
		t.Fatalf("transient-only faults quarantined %d users", res.UsersQuarantined)
	}
	users, tweets, err := twitter.LoadCollected(st)
	if err != nil {
		t.Fatal(err)
	}
	return users, tweets, st
}

func TestChaosFlakyCrawlConvergesToCleanStore(t *testing.T) {
	svc, seed := chaosCommunity(t)

	clean := httptest.NewServer(twitter.NewAPIServer(svc, twitter.ServerOptions{}))
	t.Cleanup(clean.Close)
	cleanUsers, cleanTweets, _ := crawlStore(t, clean.URL, seed)
	if len(cleanUsers) != 13 {
		t.Fatalf("clean crawl collected %d users, want 13", len(cleanUsers))
	}

	// 30% of requests answered with an injected reset or 503, on a fixed
	// schedule.
	inj := fault.New(2026, fault.Rates{Error5xx: 0.15, Reset: 0.15}, obs.Discard)
	flaky := httptest.NewServer(inj.Handler(twitter.NewAPIServer(svc, twitter.ServerOptions{})))
	t.Cleanup(flaky.Close)
	flakyUsers, flakyTweets, st := crawlStore(t, flaky.URL, seed)

	if !reflect.DeepEqual(flakyUsers, cleanUsers) {
		t.Fatalf("flaky crawl stored %d users, clean %d: contents diverge", len(flakyUsers), len(cleanUsers))
	}
	if !reflect.DeepEqual(flakyTweets, cleanTweets) {
		t.Fatalf("flaky crawl tweets diverge from clean crawl")
	}
	q, err := twitter.QuarantinedUsers(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 0 {
		t.Fatalf("quarantined %v despite transient-only faults", q)
	}
}
