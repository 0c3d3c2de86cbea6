package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stir/internal/core"
	"stir/internal/geo"
	"stir/internal/geocode"
	"stir/internal/obs"
	"stir/internal/stream"
	"stir/internal/twitter"
)

// The router answers /v1/groups from one owner's summary per partition.
// These tests pin the owner rule, the route it reads and the fan-out
// timeout that bounds it.

// A stray copy of a partition on a worker outside its owner set — what a
// handoff whose drop failed leaves behind — never reaches /v1/groups, even
// when it has drifted past the owner's copy. The per-user merge of
// Router.Groupings would let it win.
func TestRouterGroupsIgnoresStrayCopy(t *testing.T) {
	ds := testDataset(t, 400, 29)
	res, err := ds.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tweets := allTweets(ds)
	r := testRouter(t, obs.NewRegistry(), nil)
	w1 := startWorker(t, ds, "w1", nil)
	defer w1.stop()
	w2 := startWorker(t, ds, "w2", nil)
	defer w2.stop()
	join(t, r, w1)
	join(t, r, w2)
	feed(t, r, tweets, 64)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	before := getBody(t, srv.URL+"/v1/groups", http.StatusOK)
	if want := routerGroupsBody(t, res.Analysis, 2, nil); !bytes.Equal(before, want) {
		t.Fatalf("/v1/groups:\n got %s\nwant %s", before, want)
	}

	// A grouped user whose partition w1 owns, and one of their geo-tweets.
	parts := r.opts.Partitions
	var stray *twitter.Tweet
	for _, g := range res.Groupings {
		if r.Ring().Owner(PartitionOf(twitter.UserID(g.UserID), parts)) != "w1" {
			continue
		}
		for _, tw := range tweets {
			if int64(tw.UserID) == g.UserID && tw.HasGeo() {
				stray = tw
				break
			}
		}
		break
	}
	if stray == nil {
		t.Fatal("no grouped user in a partition w1 owns")
	}
	part := strconv.Itoa(PartitionOf(stray.UserID, parts))

	// Copy the partition onto w2 through the worker routes.
	h := getBody(t, w1.srv.URL+"/cluster/v1/export?partitions="+strconv.Itoa(parts)+"&parts="+part, http.StatusOK)
	resp, err := http.Post(w2.srv.URL+"/cluster/v1/import", "application/json", bytes.NewReader(h))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("import: status %d", resp.StatusCode)
	}
	// The stray copy drifts: a tweet only w2 sees.
	extra := *stray
	extra.ID = 1 << 60
	if !w2.eng.Ingest(&extra) {
		t.Fatal("w2 refused the drift tweet")
	}
	w2.eng.Drain()

	if gs, _ := r.Groupings(context.Background()); bytes.Equal(mustJSON(t, gs), mustJSON(t, res.Groupings)) {
		t.Fatal("the per-user merge should let the drifted stray copy win")
	}
	if after := getBody(t, srv.URL+"/v1/groups", http.StatusOK); !bytes.Equal(after, before) {
		t.Fatalf("a stray copy moved /v1/groups:\n got %s\nwant %s", after, before)
	}
}

// With replicas, a partition's fuller replica wins: when one owner holds a
// tweet its co-owner has not applied yet, /v1/groups counts it, as the
// per-user merge of Router.Groupings does, whichever owner is primary.
func TestRouterGroupsPrefersFullerReplica(t *testing.T) {
	ds := testDataset(t, 300, 43)
	res, err := ds.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tweets := allTweets(ds)
	r := testRouter(t, obs.NewRegistry(), func(o *Options) { o.Replicas = 2 })
	workers := map[string]*testWorker{}
	for _, name := range []string{"w1", "w2"} {
		w := startWorker(t, ds, name, nil)
		defer w.stop()
		join(t, r, w)
		workers[name] = w
	}
	if rep := r.IngestBatch(context.Background(), tweets); rep.Forwarded != 2*len(tweets) {
		t.Fatalf("replicated ingest: %+v", rep)
	}

	// One geo-tweet more for a user of each worker's primary partitions,
	// applied only on the partition's secondary owner.
	grouped := map[int64]bool{}
	for _, g := range res.Groupings {
		grouped[g.UserID] = true
	}
	ahead := map[string]bool{}
	for i, tw := range tweets {
		if !tw.HasGeo() || !grouped[int64(tw.UserID)] {
			continue
		}
		owners := r.Ring().Owners(PartitionOf(tw.UserID, r.opts.Partitions), 2)
		if ahead[owners[0]] {
			continue
		}
		ahead[owners[0]] = true
		extra := *tw
		extra.ID = twitter.TweetID(1<<60 + i)
		workers[owners[1]].eng.Ingest(&extra)
		workers[owners[1]].eng.Drain()
	}
	if len(ahead) != 2 {
		t.Fatalf("found lagging primaries on %d workers, want 2", len(ahead))
	}

	gs, errs := r.Groupings(context.Background())
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	want := core.Analyze(gs)
	if want.Tweets != res.Analysis.Tweets+2 {
		t.Fatalf("per-user merge holds %d tweets, want batch's %d plus 2", want.Tweets, res.Analysis.Tweets)
	}
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	if got, want := getBody(t, srv.URL+"/v1/groups", http.StatusOK), routerGroupsBody(t, want, 2, nil); !bytes.Equal(got, want) {
		t.Fatalf("/v1/groups:\n got %s\nwant %s", got, want)
	}
}

// slowResolver is benchResolver taking a while per point, so a worker's
// shard queues still hold tweets when its forward ack returns.
type slowResolver struct{ benchResolver }

func (r slowResolver) Reverse(ctx context.Context, p geo.Point) (geocode.Location, error) {
	time.Sleep(50 * time.Microsecond)
	return r.benchResolver.Reverse(ctx, p)
}

// A read through the router sees every write the router acknowledged: the
// worker drains its queues before it answers with summaries.
func TestRouterGroupsReadsItsWrites(t *testing.T) {
	places := benchPlaces(16)
	eng, err := stream.New(stream.Config{
		Profiles: func(_ context.Context, id twitter.UserID) (core.Place, bool, error) {
			return places[int(id)%len(places)], true, nil
		},
		Resolver:       slowResolver{benchResolver{places: places}},
		DedupByTweetID: true,
		Metrics:        obs.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := httptest.NewServer(NewWorker("w1", eng, obs.Discard).Handler())
	defer srv.Close()
	r := testRouter(t, obs.NewRegistry(), nil)
	if err := r.AddWorker(context.Background(), "w1", srv.URL); err != nil {
		t.Fatal(err)
	}
	tweets := benchTweets(2000, 500)
	if rep := r.IngestBatch(context.Background(), tweets); rep.Forwarded != len(tweets) {
		t.Fatalf("ingest: %+v", rep)
	}
	if res, status := r.Groups(context.Background()); status != http.StatusOK || res.Tweets != len(tweets) || res.Users != 500 {
		t.Fatalf("/v1/groups right after the ack: status %d, %d users, %d tweets; want 500 users, %d tweets",
			status, res.Users, res.Tweets, len(tweets))
	}
}

// /v1/groups reads the workers' summaries, never their per-user groupings.
func TestRouterGroupsReadsNoGroupings(t *testing.T) {
	ds := testDataset(t, 300, 37)
	res, err := ds.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var groupings, summaries atomic.Int64
	count := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			switch req.URL.Path {
			case "/cluster/v1/groupings":
				groupings.Add(1)
			case "/cluster/v1/summaries":
				summaries.Add(1)
			}
			h.ServeHTTP(rw, req)
		})
	}
	r := testRouter(t, obs.NewRegistry(), nil)
	for _, name := range []string{"w1", "w2"} {
		w := startWorkerWrapped(t, ds, name, nil, count)
		defer w.stop()
		join(t, r, w)
	}
	feed(t, r, allTweets(ds), 64)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	want := routerGroupsBody(t, res.Analysis, 2, nil)
	for i := 0; i < 3; i++ {
		if got := getBody(t, srv.URL+"/v1/groups", http.StatusOK); !bytes.Equal(got, want) {
			t.Fatalf("/v1/groups:\n got %s\nwant %s", got, want)
		}
	}
	if n := groupings.Load(); n != 0 {
		t.Fatalf("/v1/groups read /cluster/v1/groupings %d times", n)
	}
	if n := summaries.Load(); n != 6 {
		t.Fatalf("3 queries over 2 workers read /cluster/v1/summaries %d times, want 6", n)
	}
}

// A scatter's timeout starts before it waits for a fan-out slot: with every
// slot held (as by forwards stuck on a slow worker), Groups and
// CheckpointAll give up after their timeouts and blame each worker, though
// every worker is healthy.
func TestScatterTimeoutCoversFanoutWait(t *testing.T) {
	ds := testDataset(t, 100, 31)
	r := testRouter(t, obs.NewRegistry(), func(o *Options) { o.MaxFanout = 1 })
	for _, name := range []string{"w1", "w2"} {
		w := startWorker(t, ds, name, nil)
		defer w.stop()
		join(t, r, w)
	}
	feed(t, r, allTweets(ds), 64)
	const timeout = 50 * time.Millisecond
	r.opts.ScatterTimeout, r.opts.HandoffTimeout = timeout, timeout

	// Hold the only slot; a call that waits past its timeout fails the test
	// rather than hanging it.
	r.sem <- struct{}{}
	var (
		res            GroupsResult
		status         int
		errs           []WorkerError
		took, tookCkpt time.Duration
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		start := time.Now()
		res, status = r.Groups(context.Background())
		took = time.Since(start)
		start = time.Now()
		errs = r.CheckpointAll(context.Background())
		tookCkpt = time.Since(start)
	}()
	select {
	case <-done:
		<-r.sem
	case <-time.After(20 * timeout):
		<-r.sem
		<-done
		t.Fatalf("with the slot held, Groups and CheckpointAll did not give up within %v", 20*timeout)
	}

	if status != http.StatusServiceUnavailable || !res.Partial || len(res.Errors) != 2 {
		t.Fatalf("Groups with no free slot: status %d, %+v", status, res)
	}
	if len(errs) != 2 {
		t.Fatalf("CheckpointAll with no free slot: %+v", errs)
	}
	for _, e := range append(res.Errors, errs...) {
		if !strings.Contains(e.Error, "fan-out slot") {
			t.Fatalf("%s: %s, want a fan-out slot timeout", e.Worker, e.Error)
		}
	}
	if took > 10*timeout || tookCkpt > 10*timeout {
		t.Fatalf("held slot: Groups took %v, CheckpointAll %v, timeout %v", took, tookCkpt, timeout)
	}

	// With the slot free again, the same router answers in full.
	r.opts.ScatterTimeout = 2 * time.Second
	if res, status := r.Groups(context.Background()); status != http.StatusOK || res.Partial {
		t.Fatalf("Groups after the slot freed: status %d, %+v", status, res)
	}
}

// The summaries route validates its partition count, answers GET only, is
// fenced like its siblings, and serves summaries that merge to the engine's
// analysis.
func TestWorkerSummariesRoute(t *testing.T) {
	ds := testDataset(t, 80, 41)
	reg := obs.NewRegistry()
	w := startWorkerReg(t, ds, "ws", reg)
	defer w.stop()
	base := w.srv.URL + "/cluster/v1/summaries"
	for _, q := range []string{"", "?partitions=", "?partitions=0", "?partitions=-3", "?partitions=x",
		"?partitions=" + strconv.Itoa(maxSummaryPartitions+1)} {
		if got := fenceDo(t, http.MethodGet, base+q, "", nil); got != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400", q, got)
		}
	}
	if got := fenceDo(t, http.MethodPost, base+"?partitions=8", "", nil); got != http.StatusMethodNotAllowed {
		t.Fatalf("POST: status %d, want 405", got)
	}
	if got := fenceDo(t, http.MethodGet, base+"?partitions=8", "5", nil); got != http.StatusOK {
		t.Fatalf("epoch 5: status %d", got)
	}
	if got := fenceDo(t, http.MethodGet, base+"?partitions=8", "4", nil); got != http.StatusPreconditionFailed {
		t.Fatalf("stale epoch: status %d, want 412", got)
	}
	if v := reg.Counter("stir_cluster_fenced_total", "worker", "ws", "route", "summaries").Value(); v != 1 {
		t.Fatalf("summaries fence counted %d times", v)
	}

	for _, tw := range allTweets(ds) {
		w.eng.Ingest(tw)
	}
	resp, err := http.Get(base + "?partitions=8")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(body)) {
		t.Fatalf("GET summaries: status %d, %d of %d bytes, %v", resp.StatusCode, len(body), resp.ContentLength, err)
	}
	sums, err := readSummaries(body, 8)
	if err != nil {
		t.Fatal(err)
	}
	var merged core.Summary
	n := 0
	for p, s := range sums {
		if s == nil {
			continue
		}
		if s.Empty() {
			t.Fatalf("partition %d: empty summary served", p)
		}
		merged.Merge(s)
		n++
	}
	if n == 0 || !bytes.Equal(mustJSON(t, merged.Analysis()), mustJSON(t, w.eng.Analysis())) {
		t.Fatalf("%d summaries do not merge to the engine's analysis", n)
	}
}
