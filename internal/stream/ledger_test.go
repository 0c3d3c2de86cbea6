package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"stir/internal/core"
	"stir/internal/geo"
	"stir/internal/geocode"
	"stir/internal/obs"
	"stir/internal/resilience"
	"stir/internal/storage"
	"stir/internal/twitter"
)

// The golden files under testdata/ledger were captured from the engine
// before the tweet outcomes became one Ledger type: the /v1/stats body and
// the /metrics series of a seeded run, and a checkpoint meta record with the
// Stats it loads into. They pin that the refactor moved no byte.

// heldUser is the ledger workload's user whose first profile lookup waits
// for the test, so its shard queue fills and sheds deterministically.
const heldUser = 1_000_003

// ledgerProfiles rejects every fifth user, fails every seventh user's first
// lookup, and holds heldUser's lookup until release is closed.
type ledgerProfiles struct {
	mu         sync.Mutex
	failedOnce map[twitter.UserID]bool
	entered    chan struct{}
	release    chan struct{}
}

func newLedgerProfiles() *ledgerProfiles {
	return &ledgerProfiles{
		failedOnce: map[twitter.UserID]bool{},
		entered:    make(chan struct{}),
		release:    make(chan struct{}),
	}
}

func (p *ledgerProfiles) fn(_ context.Context, id twitter.UserID) (core.Place, bool, error) {
	switch {
	case id == heldUser:
		close(p.entered)
		<-p.release
	case id%5 == 0:
		return core.Place{}, false, nil // not a well-defined profile
	case id%7 == 0:
		p.mu.Lock()
		defer p.mu.Unlock()
		if !p.failedOnce[id] {
			p.failedOnce[id] = true
			return core.Place{}, false, errors.New("profile backend down")
		}
	}
	return core.Place{State: "S", County: "C3"}, true, nil
}

// ledgerResolver fails a negative latitude with ErrNoMatch (a geocode
// failure) and a latitude above 80 with a transport error (a resolve error).
type ledgerResolver struct{}

func (ledgerResolver) Reverse(ctx context.Context, p geo.Point) (geocode.Location, error) {
	if p.Lat > 80 {
		return geocode.Location{}, errors.New("geocoder unreachable")
	}
	return echoResolver{}.Reverse(ctx, p)
}

// ledgerTweets is a seeded mix that reaches every outcome but a drop: GPS
// tweets that geocode, fail to match or fail to resolve, tweets without
// geo, and replays of older IDs, from users some of whom profile refinement
// rejects or fails on once.
func ledgerTweets(seed int64, first, n int64) []*twitter.Tweet {
	rnd := rand.New(rand.NewSource(seed))
	out := make([]*twitter.Tweet, 0, n)
	for id := first; id < first+n; id++ {
		user := int64(1 + rnd.Intn(60))
		tw := geoTweet(id, user, float64(rnd.Intn(90)-5))
		switch rnd.Intn(10) {
		case 0:
			tw.Geo = nil
		case 1:
			tw.ID = twitter.TweetID(id / 2) // a replay of an older ID
		}
		out = append(out, tw)
	}
	return out
}

// ledgerEngine is the workload's engine: three shards of four slots that
// shed when full, deduplicating by tweet ID.
func ledgerEngine(t *testing.T, prof *ledgerProfiles, mutate func(*Config)) *Engine {
	t.Helper()
	eng, _ := plainEngine(t, func(c *Config) {
		c.Shards = 3
		c.Buffer = 4
		c.DropWhenFull = true
		c.DedupByTweetID = true
		c.Profiles = prof.fn
		c.Resolver = ledgerResolver{}
		if mutate != nil {
			mutate(c)
		}
	})
	return eng
}

// runLedgerWorkload feeds the seeded mix one drained tweet at a time (so
// nothing sheds), then holds heldUser's profile lookup, fills that user's
// shard queue and offers two tweets more, which are dropped. It returns the
// number of tweets offered.
func runLedgerWorkload(t *testing.T, eng *Engine, prof *ledgerProfiles) int64 {
	t.Helper()
	tweets := ledgerTweets(9, 1, 4000)
	for _, tw := range tweets {
		if !eng.Ingest(tw) {
			t.Fatal("Ingest refused a tweet on an open, drained engine")
		}
		eng.Drain()
	}
	if !eng.Ingest(geoTweet(4001, heldUser, 1)) {
		t.Fatal("Ingest refused the held user's first tweet")
	}
	<-prof.entered
	for id := int64(4002); id <= 4007; id++ {
		want := id <= 4001+int64(eng.cfg.Buffer)
		if got := eng.Ingest(geoTweet(id, heldUser, 1)); got != want {
			t.Fatalf("tweet %d accepted = %v with the shard held, want %v", id, got, want)
		}
	}
	close(prof.release)
	eng.Drain()
	return int64(len(tweets)) + 7
}

func getStatsBody(t *testing.T, eng *Engine) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	eng.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	if rec.Code != 200 {
		t.Fatalf("/v1/stats: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "ledger", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStatsLedgerAccountsEveryTweet checks the loss ledger: after Drain,
// with no store, every tweet offered is counted in exactly one Ledger
// outcome, the tweets of profile-rejected users included (the rejecting
// tweet and every later one), so ingested = Σ outcomes − dropped.
func TestStatsLedgerAccountsEveryTweet(t *testing.T) {
	prof := newLedgerProfiles()
	eng := ledgerEngine(t, prof, nil)
	offered := runLedgerWorkload(t, eng, prof)
	st := eng.Stats()
	var sum int64
	l := reflect.ValueOf(st.Ledger)
	for i := 0; i < l.NumField(); i++ {
		if l.Field(i).Int() == 0 {
			t.Errorf("workload never produced %s", l.Type().Field(i).Name)
		}
		sum += l.Field(i).Int()
	}
	if st.Ingested != sum-st.Dropped || sum != offered {
		t.Fatalf("offered %d, ingested %d, ledger outcomes sum to %d with %d dropped: %+v",
			offered, st.Ingested, sum, st.Dropped, st.Ledger)
	}
	if st.RejectedUsers == 0 || st.RejectedTweets < int64(st.RejectedUsers) {
		t.Fatalf("rejected %d users but %d tweets", st.RejectedUsers, st.RejectedTweets)
	}
}

// TestStatsBodyGolden pins the engine's /v1/stats body for the seeded,
// drained ledger workload byte for byte: field names, their order and every
// count.
func TestStatsBodyGolden(t *testing.T) {
	prof := newLedgerProfiles()
	eng := ledgerEngine(t, prof, nil)
	runLedgerWorkload(t, eng, prof)
	if got, want := getStatsBody(t, eng), readGolden(t, "stats.json"); !bytes.Equal(got, want) {
		t.Fatalf("/v1/stats body:\n got %s\nwant %s", got, want)
	}
}

// TestCheckpointMetaGolden loads a checkpoint meta record written before the
// outcome counters became a Ledger (it has no rejected_tweets) and checks
// the engine restores exactly the counters it restored then.
func TestCheckpointMetaGolden(t *testing.T) {
	store, err := storage.Open(filepath.Join(t.TempDir(), "ckpt"), storage.Options{Metrics: obs.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Put(ckptMetaKey, bytes.TrimSpace(readGolden(t, "meta.json"))); err != nil {
		t.Fatal(err)
	}
	eng := ledgerEngine(t, newLedgerProfiles(), func(c *Config) { c.Store = store })
	if got, want := getStatsBody(t, eng), readGolden(t, "meta_stats.json"); !bytes.Equal(got, want) {
		t.Fatalf("/v1/stats after loading the meta record:\n got %s\nwant %s", got, want)
	}
	if got, want := eng.DurableCursor(), "seq-4007"; got != want {
		t.Fatalf("restored cursor %q, want %q", got, want)
	}
}

// TestCheckpointRestoresLedger: a resumed engine's Stats carry the whole
// Ledger of the engine that checkpointed, rejected tweets and drops
// included, while its Ingested starts from zero.
func TestCheckpointRestoresLedger(t *testing.T) {
	store, err := storage.Open(filepath.Join(t.TempDir(), "ckpt"), storage.Options{Metrics: obs.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	prof := newLedgerProfiles()
	a := ledgerEngine(t, prof, func(c *Config) { c.Store = store })
	runLedgerWorkload(t, a, prof)
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := a.Stats().Ledger
	a.Close()
	b := ledgerEngine(t, newLedgerProfiles(), func(c *Config) { c.Store = store })
	if got := b.Stats(); got.Ledger != want || got.Ingested != 0 {
		t.Fatalf("resumed ledger %+v ingested %d, want %+v ingested 0", got.Ledger, got.Ingested, want)
	}
}

// streamSeries renders every stream_* series of reg, one per line: name,
// labels, kind, and the value (a histogram's count).
func streamSeries(reg *obs.Registry) string {
	var lines []string
	for _, m := range reg.Snapshot().Metrics {
		if !strings.HasPrefix(m.Name, "stream_") {
			continue
		}
		keys := make([]string, 0, len(m.Labels))
		for k := range m.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var lbl strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&lbl, "%s=%q,", k, m.Labels[k])
		}
		v := m.Value
		if m.Kind == obs.KindHistogram {
			v = float64(m.Count)
		}
		lines = append(lines, fmt.Sprintf("%s{%s} %s %g", m.Name, strings.TrimSuffix(lbl.String(), ","), m.Kind, v))
	}
	return strings.Join(lines, "\n") + "\n"
}

// TestStreamMetricsGolden pins the stream_* series an engine exposes on
// /metrics: names, labels, kinds and values. The first engine runs the
// ledger workload and checkpoints; the second resumes from that checkpoint,
// consumes a source through Run (one disconnect, one refused connection)
// and checkpoints again, so its outcome series must read this session's
// tweets only.
func TestStreamMetricsGolden(t *testing.T) {
	store, err := storage.Open(filepath.Join(t.TempDir(), "ckpt"), storage.Options{Metrics: obs.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	regA := obs.NewRegistry()
	prof := newLedgerProfiles()
	a := ledgerEngine(t, prof, func(c *Config) {
		c.Store = store
		c.Metrics = regA
	})
	runLedgerWorkload(t, a, prof)
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	a.Close()

	regB := obs.NewRegistry()
	b := ledgerEngine(t, newLedgerProfiles(), func(c *Config) {
		c.Store = store
		c.Metrics = regB
		c.Buffer = 1024
		c.DropWhenFull = false
		c.Reconnect = &resilience.Policy{
			Name:        "stream_test",
			MaxAttempts: 3,
			BaseDelay:   time.Millisecond,
			Metrics:     obs.Discard,
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	src := srcFunc(func(_ context.Context, fn func(*twitter.Tweet) bool) error {
		calls++
		switch calls {
		case 1: // delivers, then drops: a disconnect
			for _, tw := range ledgerTweets(11, 3001, 1500) {
				fn(tw)
			}
		case 2: // delivers nothing: a connect failure
		default:
			cancel()
		}
		return nil
	})
	if err := b.Run(ctx, src); err != nil {
		t.Fatal(err)
	}
	b.Drain()
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A series registered up front may be new, at zero; every golden line
	// must still be there.
	got := "# first engine\n" + streamSeries(regA) + "# resumed engine\n" + streamSeries(regB)
	have := map[string]bool{}
	for _, l := range strings.Split(got, "\n") {
		have[l] = true
	}
	for _, l := range strings.Split(string(readGolden(t, "metrics.txt")), "\n") {
		if !have[l] {
			t.Errorf("series line %q missing; exposed:\n%s", l, got)
		}
	}
}
