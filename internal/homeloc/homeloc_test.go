package homeloc

import (
	"context"
	"errors"
	"testing"
	"time"

	"stir/internal/admin"
	"stir/internal/geocode"
	"stir/internal/synth"
	"stir/internal/twitter"
)

var t0 = time.Date(2011, 9, 1, 0, 0, 0, 0, time.UTC)

func newPredictor(t testing.TB) (*Predictor, *admin.Gazetteer) {
	t.Helper()
	gaz, err := admin.NewKoreaGazetteer()
	if err != nil {
		t.Fatal(err)
	}
	resolver := geocode.NewGazetteerResolver(gaz, 10, 4096)
	return &Predictor{Gaz: gaz, Resolver: resolver}, gaz
}

func geoAt(t *testing.T, gaz *admin.Gazetteer, id string) *twitter.GeoTag {
	t.Helper()
	d, err := gaz.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return &twitter.GeoTag{Lat: d.Center.Lat, Lon: d.Center.Lon}
}

func TestPredictFromGPS(t *testing.T) {
	p, gaz := newPredictor(t)
	tweets := []*twitter.Tweet{
		{ID: 1, Text: "coffee", Geo: geoAt(t, gaz, "KR/Seoul/Yangcheon-gu"), CreatedAt: t0},
		{ID: 2, Text: "rain", Geo: geoAt(t, gaz, "KR/Seoul/Yangcheon-gu"), CreatedAt: t0},
		{ID: 3, Text: "bus", Geo: geoAt(t, gaz, "KR/Seoul/Jung-gu"), CreatedAt: t0},
	}
	pred, err := p.Predict(context.Background(), tweets)
	if err != nil {
		t.Fatal(err)
	}
	if pred.District.County != "Yangcheon-gu" {
		t.Fatalf("predicted %s", pred.District.ID())
	}
	if pred.GPSVotes != 3 || pred.ContentVotes != 0 {
		t.Fatalf("votes = %+v", pred)
	}
	if pred.Confidence() <= 0.5 {
		t.Fatalf("confidence = %v", pred.Confidence())
	}
}

func TestPredictFromMentions(t *testing.T) {
	p, _ := newPredictor(t)
	tweets := []*twitter.Tweet{
		{ID: 1, Text: "great lunch at Haeundae today", CreatedAt: t0},
		{ID: 2, Text: "back in haeundae-gu for the beach", CreatedAt: t0},
		{ID: 3, Text: "visiting Jongno-gu tomorrow", CreatedAt: t0},
	}
	pred, err := p.Predict(context.Background(), tweets)
	if err != nil {
		t.Fatal(err)
	}
	if pred.District.County != "Haeundae-gu" {
		t.Fatalf("predicted %s", pred.District.ID())
	}
	if pred.ContentVotes != 3 {
		t.Fatalf("content votes = %d", pred.ContentVotes)
	}
}

func TestPredictGPSOutweighsMentions(t *testing.T) {
	p, gaz := newPredictor(t)
	// Two name-drops of Jongno vs one GPS tweet in Yangcheon: GPS weight 3
	// beats content weight 2×1.
	tweets := []*twitter.Tweet{
		{ID: 1, Text: "thinking about Jongno-gu", CreatedAt: t0},
		{ID: 2, Text: "missing Jongno-gu", CreatedAt: t0},
		{ID: 3, Text: "home", Geo: geoAt(t, gaz, "KR/Seoul/Yangcheon-gu"), CreatedAt: t0},
	}
	pred, err := p.Predict(context.Background(), tweets)
	if err != nil {
		t.Fatal(err)
	}
	if pred.District.County != "Yangcheon-gu" {
		t.Fatalf("predicted %s, want GPS channel to win", pred.District.ID())
	}
}

func TestPredictAmbiguousMentionSplitsVote(t *testing.T) {
	p, _ := newPredictor(t)
	// "Jung-gu" is ambiguous across metros; a single unambiguous mention of
	// a different district must win over one ambiguous mention.
	tweets := []*twitter.Tweet{
		{ID: 1, Text: "meeting in Jung-gu", CreatedAt: t0},
		{ID: 2, Text: "home sweet Yangcheon-gu", CreatedAt: t0},
	}
	pred, err := p.Predict(context.Background(), tweets)
	if err != nil {
		t.Fatal(err)
	}
	if pred.District.County != "Yangcheon-gu" {
		t.Fatalf("predicted %s", pred.District.ID())
	}
}

func TestPredictNoEvidence(t *testing.T) {
	p, _ := newPredictor(t)
	tweets := []*twitter.Tweet{{ID: 1, Text: "nothing location-ish here", CreatedAt: t0}}
	if _, err := p.Predict(context.Background(), tweets); !errors.Is(err, ErrNoEvidence) {
		t.Fatalf("err = %v", err)
	}
	if _, err := (&Predictor{}).Predict(context.Background(), nil); err == nil {
		t.Fatal("missing gazetteer accepted")
	}
}

// TestPredictAgainstGroundTruth checks the predictor recovers the synthetic
// generator's true home for most users with enough GPS evidence.
func TestPredictAgainstGroundTruth(t *testing.T) {
	p, gaz := newPredictor(t)
	cfg := synth.KoreanConfig(77, 1200, gaz)
	gen, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc := twitter.NewService()
	pop, err := gen.Populate(svc)
	if err != nil {
		t.Fatal(err)
	}
	byUser := map[twitter.UserID][]*twitter.Tweet{}
	svc.EachTweet(func(tw *twitter.Tweet) bool {
		byUser[tw.UserID] = append(byUser[tw.UserID], tw)
		return true
	})
	correct, evaluated := 0, 0
	for id, tweets := range byUser {
		geoCount := 0
		for _, tw := range tweets {
			if tw.Geo != nil {
				geoCount++
			}
		}
		if geoCount < 5 {
			continue // too little evidence to grade the predictor on
		}
		truth := pop.Truth[id]
		// Only residents actually live where the generator says "home";
		// other classes are mobile by construction.
		if truth.Class != synth.Resident {
			continue
		}
		pred, err := p.Predict(context.Background(), tweets)
		if err != nil {
			continue
		}
		evaluated++
		if pred.District.ID() == truth.Home.ID() {
			correct++
		}
	}
	if evaluated < 10 {
		t.Fatalf("only %d users evaluated; generator settings drifted", evaluated)
	}
	acc := float64(correct) / float64(evaluated)
	if acc < 0.7 {
		t.Fatalf("home prediction accuracy %.2f over %d residents, want ≥ 0.7", acc, evaluated)
	}
}
