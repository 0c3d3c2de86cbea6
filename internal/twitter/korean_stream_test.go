package twitter_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"stir/internal/admin"
	"stir/internal/obs"
	"stir/internal/synth"
	"stir/internal/twitter"
)

// TestKoreanPopulationStreamsOnFastPath replays a synthetic Korean
// population through the API server's sample stream and Client.Stream: every
// tweet arrives, unchanged and in order, and every line decodes on the fast
// path, so stream_decode_fallback_total stays empty. The encoder writes
// json.Marshal's bytes for every tweet of the mix, so the stream's bytes per
// tweet are what they were under json.Encoder.
func TestKoreanPopulationStreamsOnFastPath(t *testing.T) {
	gaz, err := admin.NewKoreaGazetteer()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := synth.New(synth.KoreanConfig(7, 300, gaz))
	if err != nil {
		t.Fatal(err)
	}
	svc := twitter.NewService()
	if _, err := gen.Populate(svc); err != nil {
		t.Fatal(err)
	}
	var tweets []*twitter.Tweet
	geoTagged := 0
	svc.EachTweet(func(tw *twitter.Tweet) bool {
		tweets = append(tweets, tw)
		if tw.Geo != nil {
			geoTagged++
		}
		return true
	})
	if len(tweets) < 10_000 || geoTagged == 0 {
		t.Fatalf("population too small to mean anything: %d tweets, %d geotagged", len(tweets), geoTagged)
	}
	// The wire carries json.Marshal's bytes for every tweet of the mix.
	var line []byte
	for _, tw := range tweets {
		want, err := json.Marshal(tw)
		if err != nil {
			t.Fatal(err)
		}
		if line, err = twitter.AppendTweetJSON(line[:0], tw); err != nil || !bytes.Equal(line, want) {
			t.Fatalf("tweet %d: AppendTweetJSON wrote %s, %v; json.Marshal %s", tw.ID, line, err, want)
		}
	}

	srv := httptest.NewServer(twitter.NewAPIServer(svc, twitter.ServerOptions{Metrics: obs.NewRegistry()}))
	defer srv.Close()
	c := twitter.NewClient(srv.URL)
	c.HTTP = srv.Client()
	reg := obs.NewRegistry()
	c.Metrics = reg
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	received := make(chan *twitter.Tweet)
	done := make(chan error, 1)
	go func() {
		n := 0
		done <- c.Stream(ctx, "", func(tw *twitter.Tweet) bool {
			select {
			case received <- tw:
			case <-ctx.Done():
				return false
			}
			n++
			return n < len(tweets)
		})
	}()
	for svc.StreamerCount() == 0 {
		time.Sleep(time.Millisecond)
	}

	// Repost the population, keeping fewer than the subscription's buffer
	// in flight so the firehose never sheds.
	for i, sent := 0, 0; i < len(tweets); i++ {
		for ; sent < len(tweets) && sent-i < 512; sent++ {
			tw := tweets[sent]
			if _, err := svc.PostTweet(tw.UserID, tw.Text, tw.CreatedAt, tw.Geo); err != nil {
				t.Fatal(err)
			}
		}
		var got *twitter.Tweet
		select {
		case got = <-received:
		case <-ctx.Done():
			t.Fatalf("received %d of %d tweets", i, len(tweets))
		}
		want := tweets[i]
		if got.UserID != want.UserID || got.Text != want.Text || !got.CreatedAt.Equal(want.CreatedAt) ||
			(got.Geo == nil) != (want.Geo == nil) || got.Geo != nil && *got.Geo != *want.Geo {
			t.Fatalf("tweet %d: received %+v, posted %+v", i, got, want)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if shed := svc.StreamShed(); shed != 0 {
		t.Fatalf("stream shed %d tweets", shed)
	}
	for _, reason := range []string{"shape", "number", "text", "time"} {
		if n := reg.Counter("stream_decode_fallback_total", "reason", reason).Value(); n != 0 {
			t.Errorf("%d lines fell back to json.Unmarshal (reason %s)", n, reason)
		}
	}
	if n := reg.Counter("stream_decode_errors_total", "reason", "bad_json").Value(); n != 0 {
		t.Errorf("%d lines failed to decode", n)
	}
}
