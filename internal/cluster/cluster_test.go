package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"stir"
	"stir/internal/core"
	"stir/internal/obs"
	"stir/internal/storage"
	"stir/internal/storage/vfs"
	"stir/internal/stream"
	"stir/internal/textnorm"
	"stir/internal/twitter"
)

// The cluster's correctness anchor mirrors the stream engine's: after every
// membership change, failure, and replay, the merged cluster-wide groupings
// must be byte-for-byte the batch pipeline's output over the same tweets.

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

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// testWorker is one worker process: engine, optional fault-backed store, and
// an HTTP listener standing in for the worker daemon.
type testWorker struct {
	name  string
	flt   *vfs.Fault
	store *storage.Store // nil without flt; the disk-chaos suite recovers through it
	eng   *stream.Engine
	srv   *httptest.Server
}

// startWorker boots a worker. A non-nil flt gives it a checkpoint store on
// that fault filesystem (the store opens from whatever the FS holds, so a
// restarted FS resumes the previous checkpoint).
func startWorker(t testing.TB, ds *stir.Dataset, name string, flt *vfs.Fault) *testWorker {
	t.Helper()
	return startWorkerWrapped(t, ds, name, flt, nil)
}

// startWorkerWrapped is startWorker with the worker's HTTP handler passed
// through wrap (when non-nil) before the listener serves it, and the engine
// config passed through each tune.
func startWorkerWrapped(t testing.TB, ds *stir.Dataset, name string, flt *vfs.Fault, wrap func(http.Handler) http.Handler, tune ...func(*stream.Config)) *testWorker {
	t.Helper()
	var store *storage.Store
	if flt != nil {
		var err error
		store, err = storage.Open("ckpt", storage.Options{FS: flt, Metrics: obs.Discard})
		if err != nil {
			t.Fatalf("worker %s: open store: %v", name, err)
		}
	}
	resolver := stream.NewGazetteerResolver(ds.Gazetteer, 10)
	cfg := stream.Config{
		Profiles: stream.NewProfileResolver(stream.ServiceLookup(ds.Service),
			textnorm.NewRefiner(ds.Gazetteer), resolver, ds.Gazetteer),
		Resolver:       resolver,
		DedupByTweetID: true,
		Store:          store,
		Metrics:        obs.NewRegistry(),
	}
	for _, f := range tune {
		f(&cfg)
	}
	eng, err := stream.New(cfg)
	if err != nil {
		t.Fatalf("worker %s: engine: %v", name, err)
	}
	h := NewWorker(name, eng, obs.NewRegistry()).Handler()
	if wrap != nil {
		h = wrap(h)
	}
	return &testWorker{name: name, flt: flt, store: store, eng: eng, srv: httptest.NewServer(h)}
}

func (w *testWorker) stop() {
	w.srv.Close()
	w.eng.Close()
}

// kill is the SIGKILL-equivalent: the listener vanishes mid-flight and the
// engine's in-memory state is discarded without a checkpoint. Only what the
// store's filesystem already holds survives.
func (w *testWorker) kill() {
	w.srv.CloseClientConnections()
	w.srv.Close()
	w.eng.Close()
}

func testRouter(t testing.TB, reg *obs.Registry, mutate func(*Options)) *Router {
	t.Helper()
	opts := Options{
		Partitions:     32,
		ForwardBatch:   64,
		ScatterTimeout: 2 * time.Second,
		HandoffTimeout: 10 * time.Second,
		Metrics:        reg,
	}
	if mutate != nil {
		mutate(&opts)
	}
	return New(opts)
}

func join(t testing.TB, r *Router, w *testWorker) {
	t.Helper()
	if err := r.AddWorker(context.Background(), w.name, w.srv.URL); err != nil {
		t.Fatalf("join %s: %v", w.name, err)
	}
}

// feed pushes tweets through the router in fixed-size batches and fails on
// any drop: with all workers up, nothing may be lost or deferred.
func feed(t testing.TB, r *Router, tweets []*twitter.Tweet, batch int) {
	t.Helper()
	for len(tweets) > 0 {
		n := batch
		if n > len(tweets) {
			n = len(tweets)
		}
		rep := r.IngestBatch(context.Background(), tweets[:n])
		if rep.Forwarded != n || rep.Unrouted > 0 {
			t.Fatalf("ingest: %+v (want %d forwarded)", rep, n)
		}
		tweets = tweets[n:]
	}
}

// assertClusterMatchesBatch checks the merged cluster groupings and their
// analysis against the batch result, byte for byte.
func assertClusterMatchesBatch(t testing.TB, r *Router, res *stir.Result) {
	t.Helper()
	gs, errs := r.Groupings(context.Background())
	if len(errs) > 0 {
		t.Fatalf("gather errors: %+v", errs)
	}
	if got, want := mustJSON(t, gs), mustJSON(t, res.Groupings); !bytes.Equal(got, want) {
		t.Fatalf("cluster groupings diverge from batch: %d vs %d users", len(gs), len(res.Groupings))
	}
	if got, want := mustJSON(t, core.Analyze(gs)), mustJSON(t, res.Analysis); !bytes.Equal(got, want) {
		t.Fatalf("cluster analysis not byte-identical:\ncluster %s\nbatch   %s", got, want)
	}
}

func TestClusterScatterGatherMatchesBatch(t *testing.T) {
	ds := testDataset(t, 600, 5)
	res, err := ds.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r := testRouter(t, reg, nil)
	var workers []*testWorker
	for _, name := range []string{"w1", "w2", "w3"} {
		w := startWorker(t, ds, name, nil)
		defer w.stop()
		workers = append(workers, w)
		join(t, r, w)
	}
	feed(t, r, allTweets(ds), 97)
	assertClusterMatchesBatch(t, r, res)

	// Every worker holds a strict, non-empty subset of the users.
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	var stats StatsResult
	getJSON(t, srv.URL+"/v1/stats", http.StatusOK, &stats)
	if stats.Partial || stats.WorkersOK != 3 {
		t.Fatalf("stats degraded with all workers up: %+v", stats)
	}
	if stats.Users != res.Analysis.Users {
		t.Fatalf("summed users = %d, batch has %d", stats.Users, res.Analysis.Users)
	}
	var groups GroupsResult
	getJSON(t, srv.URL+"/v1/groups", http.StatusOK, &groups)
	if groups.Partial || groups.Users != res.Analysis.Users || groups.Tweets != res.Analysis.Tweets {
		t.Fatalf("groups mismatch: %+v", groups)
	}

	// Single-user lookup routes to the owner.
	u := res.Groupings[0]
	var view stream.UserView
	getJSON(t, srv.URL+"/v1/users/"+jsonNum(u.UserID), http.StatusOK, &view)
	if view.UserID != u.UserID || view.TotalTweets != u.TotalTweets {
		t.Fatalf("user view %+v does not match batch grouping %+v", view, u)
	}
	getJSON(t, srv.URL+"/v1/users/999999999", http.StatusNotFound, nil)
}

func jsonNum(v int64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// getBody GETs url and returns the body, failing unless the status is
// wantStatus.
func getBody(t testing.TB, url string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d: %s", url, resp.StatusCode, wantStatus, b)
	}
	return b
}

// routerGroupsBody is the /v1/groups body a router with workers members, of
// which those in errs did not answer, serves for analysis a while every
// partition still has an answering owner: not partial, errors listed.
func routerGroupsBody(t testing.TB, a core.Analysis, workers int, errs []WorkerError) []byte {
	t.Helper()
	res := a.Result()
	res.Workers, res.WorkersOK = workers, workers-len(errs)
	res.Errors = errs
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func getJSON(t testing.TB, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
}

func TestClusterJoinLeaveHandoffConverges(t *testing.T) {
	ds := testDataset(t, 600, 9)
	res, err := ds.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tweets := allTweets(ds)
	reg := obs.NewRegistry()
	r := testRouter(t, reg, nil)
	w1 := startWorker(t, ds, "w1", nil)
	defer w1.stop()
	join(t, r, w1)

	// Half the stream lands on a one-worker cluster.
	feed(t, r, tweets[:len(tweets)/2], 83)

	// A second worker joins mid-stream: its partitions migrate over.
	w2 := startWorker(t, ds, "w2", nil)
	defer w2.stop()
	join(t, r, w2)
	if got := reg.Counter("stir_cluster_handoffs_total", "reason", "join").Value(); got == 0 {
		t.Fatal("join moved no partitions")
	}
	// Rest of the stream flows through the two-worker ring.
	feed(t, r, tweets[len(tweets)/2:], 83)
	assertClusterMatchesBatch(t, r, res)
	if w2.eng.Stats().Users == 0 {
		t.Fatal("joined worker owns no users — handoff did nothing")
	}

	// w1 leaves gracefully; everything must flow back to w2.
	if err := r.Leave(context.Background(), "w1"); err != nil {
		t.Fatalf("leave: %v", err)
	}
	w1.stop()
	assertClusterMatchesBatch(t, r, res)
	if got, want := w2.eng.Stats().Users, res.Analysis.Users; got < want {
		t.Fatalf("after leave, w2 has %d grouped users, batch has %d", got, want)
	}
	if got := reg.Counter("stir_cluster_handoffs_total", "reason", "leave").Value(); got == 0 {
		t.Fatal("leave recorded no handoffs")
	}
}

// TestLeaveDownWorkerHandsOffNothing pins the leave handoff count: a leaver
// that is not serving exports nothing, so only its journal replays and no
// partition counts as handed off.
func TestLeaveDownWorkerHandsOffNothing(t *testing.T) {
	ds := testDataset(t, 200, 9)
	tweets := allTweets(ds)
	reg := obs.NewRegistry()
	r := testRouter(t, reg, nil)
	w1 := startWorker(t, ds, "w1", nil)
	defer w1.stop()
	w2 := startWorker(t, ds, "w2", nil)
	join(t, r, w1)
	join(t, r, w2)
	feed(t, r, tweets[:len(tweets)/2], 83)

	w2.kill()
	r.MarkDown("w2")
	if err := r.Leave(context.Background(), "w2"); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if got := reg.Counter("stir_cluster_handoffs_total", "reason", "leave").Value(); got != 0 {
		t.Fatalf("a down leaver counted %v handed-off partitions, want 0", got)
	}
	if got := r.Ring().Workers(); len(got) != 1 || got[0] != "w1" {
		t.Fatalf("ring after leave: %v, want [w1]", got)
	}
}

func TestClusterScatterPartialDegradation(t *testing.T) {
	ds := testDataset(t, 400, 11)
	reg := obs.NewRegistry()
	r := testRouter(t, reg, func(o *Options) {
		o.ForwardAttempts = 1
		o.ScatterTimeout = 500 * time.Millisecond
	})
	w1 := startWorker(t, ds, "w1", nil)
	defer w1.stop()
	w2 := startWorker(t, ds, "w2", nil)
	join(t, r, w1)
	join(t, r, w2)
	feed(t, r, allTweets(ds), 64)

	before, _ := r.Groupings(context.Background())

	// One shard dies. Queries must degrade, not fail.
	w2.kill()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	var groups GroupsResult
	getJSON(t, srv.URL+"/v1/groups", http.StatusOK, &groups)
	if !groups.Partial || groups.WorkersOK != 1 || len(groups.Errors) != 1 || groups.Errors[0].Worker != "w2" {
		t.Fatalf("want partial result blaming w2, got %+v", groups)
	}
	if groups.Users == 0 || groups.Users >= len(before) {
		t.Fatalf("partial answer should carry w1's shard only: %d users of %d", groups.Users, len(before))
	}
	var stats StatsResult
	getJSON(t, srv.URL+"/v1/stats", http.StatusOK, &stats)
	if !stats.Partial || stats.WorkersOK != 1 {
		t.Fatalf("stats not partial: %+v", stats)
	}

	// Ingest while a shard is down: its tweets defer to the journal. The
	// whole collection goes through again (idempotent — dedup absorbs it),
	// which guarantees some of it routes to the dead shard.
	rep := r.IngestBatch(context.Background(), allTweets(ds))
	if rep.Deferred == 0 || len(rep.Errors) == 0 {
		t.Fatalf("ingest against a dead shard must defer and account: %+v", rep)
	}
	if reg.Counter("stir_cluster_deferred_total", "worker", "w2").Value() == 0 {
		t.Fatal("deferred tweets not counted")
	}

	// Both shards down: now the answer is gone and the status says so. A
	// fresh value: workers_ok is omitted when zero, so decoding into the
	// earlier answer would keep its count.
	w1.srv.CloseClientConnections()
	w1.srv.Close()
	var down GroupsResult
	getJSON(t, srv.URL+"/v1/groups", http.StatusServiceUnavailable, &down)
	if down.WorkersOK != 0 || !down.Partial || len(down.Errors) != 2 {
		t.Fatalf("all workers dead: %+v", down)
	}
}

func TestRouterRingStateAndLastWorkerGuard(t *testing.T) {
	ds := testDataset(t, 50, 3)
	r := testRouter(t, obs.NewRegistry(), nil)
	w1 := startWorker(t, ds, "w1", nil)
	defer w1.stop()
	join(t, r, w1)
	if err := r.Leave(context.Background(), "w1"); err == nil {
		t.Fatal("removing the last worker must be refused")
	}
	if err := r.Leave(context.Background(), "ghost"); err == nil {
		t.Fatal("leaving an unknown worker must be refused")
	}
	v := r.Members()
	if v.Partitions != 32 || v.Replicas != 1 || len(v.Members) != 1 || v.Members[0].Name != "w1" || v.Members[0].Health != "alive" {
		t.Fatalf("ring state: %+v", v)
	}
	if n := len(v.Members[0].Partitions); n != 32 {
		t.Fatalf("single worker should own every partition, owns %d", n)
	}
}
