package pipeline

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"stir/internal/admin"
	"stir/internal/geo"
	"stir/internal/geocode"
	"stir/internal/obs"
	"stir/internal/twitter"
)

// failingResolver fails any point at failLat.
type failingResolver struct {
	next    geocode.Resolver
	failLat float64
}

func (r *failingResolver) Reverse(ctx context.Context, p geo.Point) (geocode.Location, error) {
	if p.Lat == r.failLat {
		return geocode.Location{}, errors.New("resolver infrastructure down")
	}
	return r.next.Reverse(ctx, p)
}

// poisonedDataset builds n well-defined users with one geo tweet each; the
// lowest-ID user's tweet sits at a point the failing resolver rejects.
func poisonedDataset(t *testing.T, gaz *admin.Gazetteer, n int) (map[twitter.UserID]*twitter.User, map[twitter.UserID][]*twitter.Tweet, twitter.UserID, float64) {
	t.Helper()
	svc := twitter.NewService()
	yangcheon, err := gaz.ByID("KR/Seoul/Yangcheon-gu")
	if err != nil {
		t.Fatal(err)
	}
	jung, err := gaz.ByID("KR/Seoul/Jung-gu")
	if err != nil {
		t.Fatal(err)
	}
	bad, err := svc.CreateUser("bad", "Seoul Jung-gu", "ko", t0)
	if err != nil {
		t.Fatal(err)
	}
	svc.PostTweet(bad.ID, "poisoned", t0, &twitter.GeoTag{Lat: jung.Center.Lat, Lon: jung.Center.Lon})
	for i := 1; i < n; i++ {
		u, err := svc.CreateUser(fmt.Sprintf("u%d", i), "Seoul Yangcheon-gu", "ko", t0)
		if err != nil {
			t.Fatal(err)
		}
		svc.PostTweet(u.ID, "home", t0, &twitter.GeoTag{Lat: yangcheon.Center.Lat, Lon: yangcheon.Center.Lon})
	}
	users, tweets := CollectFromService(svc)
	return users, tweets, bad.ID, jung.Center.Lat
}

func TestContinueOnErrorSkipsFailingUser(t *testing.T) {
	gaz := koreaGaz(t)
	users, tweets, badID, badLat := poisonedDataset(t, gaz, 8)

	strict := New(gaz, 10)
	strict.Obs = obs.Discard
	strict.Resolver = &failingResolver{next: strict.Resolver, failLat: badLat}
	if _, err := strict.Run(context.Background(), users, tweets); err == nil {
		t.Fatal("strict mode must abort on a resolver infrastructure error")
	}

	reg := obs.NewRegistry()
	degraded := New(gaz, 10)
	degraded.Obs = reg
	degraded.ContinueOnError = true
	degraded.Resolver = &failingResolver{next: degraded.Resolver, failLat: badLat}
	res, err := degraded.Run(context.Background(), users, tweets)
	if err != nil {
		t.Fatalf("degraded mode should complete: %v", err)
	}
	if len(res.SkippedUsers) != 1 || res.SkippedUsers[0] != badID {
		t.Fatalf("SkippedUsers = %v, want [%d]", res.SkippedUsers, badID)
	}
	if res.Funnel.SkippedUsers != 1 {
		t.Fatalf("Funnel.SkippedUsers = %d, want 1", res.Funnel.SkippedUsers)
	}
	if res.Funnel.FinalUsers != 7 {
		t.Fatalf("FinalUsers = %d, want 7", res.Funnel.FinalUsers)
	}
	if m, ok := reg.Snapshot().Get(FunnelMetric, "stage", "skipped_users"); !ok || m.Value != 1 {
		t.Fatalf("funnel gauge skipped_users = %+v ok=%v, want 1", m, ok)
	}
}
