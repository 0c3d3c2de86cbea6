package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"stir"
	"stir/internal/geocode"
	"stir/internal/obs"
	"stir/internal/storage"
	"stir/internal/textnorm"
	"stir/internal/twitter"
)

// The correctness anchor: after draining any tweet sequence, the engine's
// incremental groupings and analysis must be byte-for-byte equal to the batch
// pipeline over the same data — in any delivery order, and across a
// checkpoint/kill/resume.

func testDataset(t testing.TB, users int, seed int64) *stir.Dataset {
	t.Helper()
	ds, err := stir.NewKoreanDataset(stir.DatasetOptions{Users: users, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func allTweets(ds *stir.Dataset) []*twitter.Tweet {
	var out []*twitter.Tweet
	ds.Service.EachTweet(func(tw *twitter.Tweet) bool {
		out = append(out, tw)
		return true
	})
	return out
}

// testEngine builds an engine wired exactly like the batch pipeline: same
// refiner, same direct resolver (slack 10), same gazetteer narrowing.
func testEngine(t testing.TB, ds *stir.Dataset, mutate func(*Config)) *Engine {
	t.Helper()
	resolver := NewGazetteerResolver(ds.Gazetteer, 10)
	cfg := Config{
		Profiles: NewProfileResolver(ServiceLookup(ds.Service),
			textnorm.NewRefiner(ds.Gazetteer), resolver, ds.Gazetteer),
		Resolver: resolver,
		Metrics:  obs.NewRegistry(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// mustJSON marshals for the byte-for-byte comparison.
func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func assertMatchesBatch(t *testing.T, eng *Engine, res *stir.Result) {
	t.Helper()
	snap := eng.Snapshot()
	if !reflect.DeepEqual(snap.Groupings, res.Groupings) {
		t.Fatalf("groupings diverge: stream %d users, batch %d users",
			len(snap.Groupings), len(res.Groupings))
	}
	if got, want := mustJSON(t, snap.Analysis), mustJSON(t, res.Analysis); !bytes.Equal(got, want) {
		t.Fatalf("analysis not byte-for-byte equal:\nstream %s\nbatch  %s", got, want)
	}
	if got, want := mustJSON(t, snap.Groupings), mustJSON(t, res.Groupings); !bytes.Equal(got, want) {
		t.Fatal("groupings not byte-for-byte equal")
	}
}

func TestStreamMatchesBatchAnalyze(t *testing.T) {
	ds := testDataset(t, 600, 7)
	res, err := ds.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tweets := allTweets(ds)
	// Shuffled delivery: the incremental result must not depend on order.
	rand.New(rand.NewSource(42)).Shuffle(len(tweets), func(i, j int) {
		tweets[i], tweets[j] = tweets[j], tweets[i]
	})
	eng := testEngine(t, ds, nil)
	defer eng.Close()
	for _, tw := range tweets {
		if !eng.Ingest(tw) {
			t.Fatal("Ingest refused a tweet on an open engine")
		}
	}
	eng.Drain()
	assertMatchesBatch(t, eng, res)

	st := eng.Stats()
	if st.Dropped != 0 {
		t.Fatalf("dropped %d tweets with backpressure on", st.Dropped)
	}
	if want := res.Funnel.FinalGeoTweets; int(st.Processed) != want {
		t.Fatalf("processed %d geo tweets, batch funnel says %d", st.Processed, want)
	}
}

func TestStreamCheckpointResumeMatchesBatch(t *testing.T) {
	ds := testDataset(t, 500, 21)
	res, err := ds.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tweets := allTweets(ds)
	store, err := storage.Open(filepath.Join(t.TempDir(), "ckpt"), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// Phase 1: ingest a prefix, checkpoint, then keep feeding a doomed
	// engine whose post-checkpoint work must be invisible after resume.
	cut := len(tweets) / 2
	doomed := testEngine(t, ds, func(c *Config) { c.Store = store })
	for _, tw := range tweets[:cut] {
		doomed.Ingest(tw)
	}
	if err := doomed.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, tw := range tweets[cut : cut+cut/2] {
		doomed.Ingest(tw)
	}
	doomed.Close() // crash: the uncheckpointed suffix is lost

	// Phase 2: a fresh engine resumes from the checkpoint and replays
	// everything after the cut.
	eng := testEngine(t, ds, func(c *Config) { c.Store = store })
	defer eng.Close()
	for _, tw := range tweets[cut:] {
		eng.Ingest(tw)
	}
	eng.Drain()
	assertMatchesBatch(t, eng, res)
	if got, want := int(eng.Stats().Processed), res.Funnel.FinalGeoTweets; got != want {
		t.Fatalf("restored+live processed = %d, want %d", got, want)
	}

	// A second checkpoint from the resumed engine must also round-trip.
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	again := testEngine(t, ds, func(c *Config) { c.Store = store })
	defer again.Close()
	assertMatchesBatch(t, again, res)
}

// TestStreamHTTPGeocodeMatchesBatch is the cross-daemon geocode
// differential: a shuffled firehose drained through an engine on the HTTP
// client against a geocoded server must produce groupings and analysis
// byte-for-byte equal to the batch pipeline's in-process resolver path.
func TestStreamHTTPGeocodeMatchesBatch(t *testing.T) {
	ds := testDataset(t, 500, 13)
	res, err := ds.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tweets := allTweets(ds)
	rand.New(rand.NewSource(99)).Shuffle(len(tweets), func(i, j int) {
		tweets[i], tweets[j] = tweets[j], tweets[i]
	})

	srv := httptest.NewServer(geocode.NewServer(ds.Gazetteer, geocode.ServerOptions{}))
	defer srv.Close()
	resolver := geocode.NewClient(srv.URL, 65536)
	eng, err := New(Config{
		Profiles: NewProfileResolver(ServiceLookup(ds.Service),
			textnorm.NewRefiner(ds.Gazetteer), resolver, ds.Gazetteer),
		Resolver: resolver,
		Metrics:  obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, tw := range tweets {
		if !eng.Ingest(tw) {
			t.Fatal("Ingest refused a tweet on an open engine")
		}
	}
	eng.Drain()
	assertMatchesBatch(t, eng, res)
}
