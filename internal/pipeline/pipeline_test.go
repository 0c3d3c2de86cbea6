package pipeline

import (
	"context"
	"testing"
	"time"

	"stir/internal/admin"
	"stir/internal/core"
	"stir/internal/synth"
	"stir/internal/textnorm"
	"stir/internal/twitter"
)

var t0 = time.Date(2011, 9, 1, 0, 0, 0, 0, time.UTC)

func koreaGaz(t testing.TB) *admin.Gazetteer {
	t.Helper()
	g, err := admin.NewKoreaGazetteer()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// handBuilt constructs a tiny dataset with known expected outcomes.
func handBuilt(t *testing.T, gaz *admin.Gazetteer) (map[twitter.UserID]*twitter.User, map[twitter.UserID][]*twitter.Tweet) {
	t.Helper()
	svc := twitter.NewService()
	mk := func(loc string) *twitter.User {
		u, err := svc.CreateUser("u", loc, "ko", t0)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	yangcheon, err := gaz.ByID("KR/Seoul/Yangcheon-gu")
	if err != nil {
		t.Fatal(err)
	}
	jung, err := gaz.ByID("KR/Seoul/Jung-gu")
	if err != nil {
		t.Fatal(err)
	}
	geoAt := func(d *admin.District) *twitter.GeoTag {
		return &twitter.GeoTag{Lat: d.Center.Lat, Lon: d.Center.Lon}
	}

	// u1: well-defined profile, 2 geo tweets at home + 1 away → Top-1.
	u1 := mk("Seoul Yangcheon-gu")
	svc.PostTweet(u1.ID, "a", t0, geoAt(yangcheon))
	svc.PostTweet(u1.ID, "b", t0, geoAt(yangcheon))
	svc.PostTweet(u1.ID, "c", t0, geoAt(jung))
	svc.PostTweet(u1.ID, "no geo", t0, nil)

	// u2: well-defined profile, all tweets away → None.
	u2 := mk("양천구")
	svc.PostTweet(u2.ID, "d", t0, geoAt(jung))

	// u3: well-defined profile, no geo tweets → dropped at the geo filter.
	u3 := mk("Yangcheon-gu")
	svc.PostTweet(u3.ID, "e", t0, nil)

	// u4: vague profile → dropped at refinement.
	u4 := mk("my home")
	svc.PostTweet(u4.ID, "f", t0, geoAt(jung))

	// u5: empty profile → counted as empty.
	u5 := mk("")
	svc.PostTweet(u5.ID, "g", t0, geoAt(jung))

	// u6: GPS coordinates in the profile resolving to Yangcheon-gu, one geo
	// tweet at home → Top-1 via the GPS-profile path.
	u6 := mk("37.5172, 126.8664")
	svc.PostTweet(u6.ID, "h", t0, geoAt(yangcheon))

	// u7: insufficient profile.
	u7 := mk("Seoul")
	svc.PostTweet(u7.ID, "i", t0, geoAt(jung))

	return CollectFromService(svc)
}

func TestPipelineHandBuilt(t *testing.T) {
	gaz := koreaGaz(t)
	users, tweets := handBuilt(t, gaz)
	p := New(gaz, 10)
	res, err := p.Run(context.Background(), users, tweets)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Funnel
	if f.RawUsers != 7 {
		t.Fatalf("RawUsers = %d", f.RawUsers)
	}
	if f.RawTweets != 10 {
		t.Fatalf("RawTweets = %d", f.RawTweets)
	}
	if f.GeoTweets != 8 {
		t.Fatalf("GeoTweets = %d", f.GeoTweets)
	}
	if f.EmptyProfiles != 1 {
		t.Fatalf("EmptyProfiles = %d", f.EmptyProfiles)
	}
	// Well-defined: u1, u2, u3 (text) + u6 (gps profile) = 4.
	if f.WellDefinedUsers != 4 {
		t.Fatalf("WellDefinedUsers = %d", f.WellDefinedUsers)
	}
	if f.ProfileBreakdown[textnorm.Vague] != 1 || f.ProfileBreakdown[textnorm.Insufficient] != 1 {
		t.Fatalf("breakdown = %v", f.ProfileBreakdown)
	}
	// Final: u1, u2, u6 (u3 has no geo tweet).
	if f.FinalUsers != 3 {
		t.Fatalf("FinalUsers = %d", f.FinalUsers)
	}
	if f.FinalGeoTweets != 5 {
		t.Fatalf("FinalGeoTweets = %d", f.FinalGeoTweets)
	}
	if len(res.Groupings) != 3 || len(res.ProfileDistrict) != 3 {
		t.Fatalf("groupings = %d, profiles = %d", len(res.Groupings), len(res.ProfileDistrict))
	}
	a := res.Analysis
	if a.Stat(core.Top1).Users != 2 {
		t.Fatalf("Top1 users = %d, want 2 (u1, u6)", a.Stat(core.Top1).Users)
	}
	if a.Stat(core.None).Users != 1 {
		t.Fatalf("None users = %d, want 1 (u2)", a.Stat(core.None).Users)
	}
}

func TestPipelineMinGeoTweets(t *testing.T) {
	gaz := koreaGaz(t)
	users, tweets := handBuilt(t, gaz)
	p := New(gaz, 10)
	p.MinGeoTweets = 2
	res, err := p.Run(context.Background(), users, tweets)
	if err != nil {
		t.Fatal(err)
	}
	// Only u1 has ≥2 geo tweets.
	if res.Funnel.FinalUsers != 1 {
		t.Fatalf("FinalUsers = %d, want 1", res.Funnel.FinalUsers)
	}
}

func TestPipelineMissingDeps(t *testing.T) {
	p := &Pipeline{}
	if _, err := p.Run(context.Background(), nil, nil); err == nil {
		t.Fatal("pipeline without deps accepted")
	}
}

func TestPipelineCancellation(t *testing.T) {
	gaz := koreaGaz(t)
	users, tweets := handBuilt(t, gaz)
	p := New(gaz, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Run(ctx, users, tweets); err == nil {
		t.Fatal("cancelled run should error")
	}
}

func TestPipelineOnSyntheticPopulation(t *testing.T) {
	gaz := koreaGaz(t)
	cfg := synth.KoreanConfig(99, 3000, gaz)
	gen, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc := twitter.NewService()
	pop, err := gen.Populate(svc)
	if err != nil {
		t.Fatal(err)
	}
	users, tweets := CollectFromService(svc)
	p := New(gaz, 10)
	res, err := p.Run(context.Background(), users, tweets)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Funnel
	if f.RawUsers != 3000 || f.RawTweets != pop.Tweets || f.GeoTweets != pop.GeoTweets {
		t.Fatalf("funnel inputs wrong: %+v (pop %d/%d)", f, pop.Tweets, pop.GeoTweets)
	}
	// The funnel must be strictly narrowing.
	if !(f.WellDefinedUsers <= f.RawUsers && f.FinalUsers <= f.WellDefinedUsers) {
		t.Fatalf("funnel not narrowing: %+v", f)
	}
	if f.FinalUsers == 0 {
		t.Fatal("no users survived; generator and pipeline disagree")
	}
	// Analysis totals match groupings.
	if res.Analysis.Users != len(res.Groupings) {
		t.Fatalf("analysis users %d != groupings %d", res.Analysis.Users, len(res.Groupings))
	}
	// The recovered group distribution should be dominated by Top-1 and
	// None, as the mobility mix dictates.
	top1 := res.Analysis.Stat(core.Top1).UserShare
	if top1 < 0.25 {
		t.Fatalf("Top-1 share = %.3f, implausibly low for the Korean mix", top1)
	}
	// Ground truth check: final users classified Top-1 are mostly residents.
	residents := 0
	for _, g := range res.Groupings {
		if g.Group != core.Top1 {
			continue
		}
		if pop.Truth[twitter.UserID(g.UserID)].Class == synth.Resident {
			residents++
		}
	}
	top1Count := res.Analysis.Stat(core.Top1).Users
	if top1Count > 0 && float64(residents)/float64(top1Count) < 0.6 {
		t.Fatalf("only %d/%d Top-1 users are residents", residents, top1Count)
	}
}

func TestCollectFromService(t *testing.T) {
	svc := twitter.NewService()
	u, _ := svc.CreateUser("a", "Seoul", "ko", t0)
	svc.PostTweet(u.ID, "x", t0, nil)
	svc.PostTweet(u.ID, "y", t0, nil)
	users, tweets := CollectFromService(svc)
	if len(users) != 1 || len(tweets[u.ID]) != 2 {
		t.Fatalf("collected %d users, %d tweets", len(users), len(tweets[u.ID]))
	}
}

// TestParallelCancellation: a run whose context is already cancelled
// errors instead of returning a result.
func TestParallelCancellation(t *testing.T) {
	gaz := koreaGaz(t)
	users, tweets := handBuilt(t, gaz)
	p := New(gaz, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Run(ctx, users, tweets); err == nil {
		t.Fatal("cancelled run should error")
	}
}
