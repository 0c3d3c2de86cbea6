package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stir"
	"stir/internal/leaktest"
	"stir/internal/logx"
	"stir/internal/obs"
	"stir/internal/resilience/fault"
	"stir/internal/stream"
	"stir/internal/textnorm"
)

// The failure-detector tests drive every transition through the Clock seam:
// a ManualClock advances, HealthTick runs synchronously, and the state
// machine's output is asserted — no wall-time sleeps anywhere.

func hostOf(t testing.TB, raw string) string {
	t.Helper()
	u, err := url.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// startWorkerReg is startWorker with a caller-owned metrics registry, so
// worker-side series (the fence counter) can be asserted.
func startWorkerReg(t testing.TB, ds *stir.Dataset, name string, reg *obs.Registry) *testWorker {
	t.Helper()
	resolver := stream.NewGazetteerResolver(ds.Gazetteer, 10)
	eng, err := stream.New(stream.Config{
		Profiles: stream.NewProfileResolver(stream.ServiceLookup(ds.Service),
			textnorm.NewRefiner(ds.Gazetteer), resolver, ds.Gazetteer),
		Resolver:       resolver,
		DedupByTweetID: true,
		Metrics:        obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("worker %s: engine: %v", name, err)
	}
	w := NewWorker(name, eng, reg)
	return &testWorker{name: name, eng: eng, srv: httptest.NewServer(w.Handler())}
}

// lockedBuffer collects router log lines across goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestHealthDetectorSuspectDownRejoin walks one worker through the whole
// detector life cycle behind an injected network partition: Alive → (silence)
// → Suspect with forwards deferring to the journal → Down → (partition
// heals) → automatic rejoin with journal replay — and the cluster's final
// answer is byte-identical to batch.
func TestHealthDetectorSuspectDownRejoin(t *testing.T) {
	leaktest.Check(t)
	ds := testDataset(t, 300, 29)
	res, err := ds.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tweets := allTweets(ds)

	clk := NewManualClock(time.Unix(1700000000, 0))
	part := fault.NewPartition(29, obs.Discard)
	reg := obs.NewRegistry()
	logs := &lockedBuffer{}
	r := testRouter(t, reg, func(o *Options) {
		o.HTTP = &http.Client{Transport: part.RoundTripper(nil)}
		o.Clock = clk
		o.ForwardAttempts = 2
		o.Log = logx.New(logs, "test-router")
	})
	w1 := startWorker(t, ds, "w1", nil)
	defer w1.stop()
	w2 := startWorker(t, ds, "w2", nil)
	defer w2.stop()
	join(t, r, w1)
	join(t, r, w2)

	ctx := context.Background()
	half := len(tweets) / 2
	feed(t, r, tweets[:half], 64)

	// Cut w2 off: requests die on the wire, the server never sees them.
	host2 := hostOf(t, w2.srv.URL)
	part.Set(host2, fault.Link{DropRequests: true})

	// Inside the suspect window the worker stays Alive — one lost probe is
	// not a failure.
	r.HealthTick(ctx)
	if got := r.Members().Members[1]; got.Health != "alive" {
		t.Fatalf("one missed probe already escalated: %+v", got)
	}

	// Past SuspectAfter: Suspect, forwards defer.
	clk.Advance(DefaultSuspectAfter + time.Second)
	r.HealthTick(ctx)
	m := r.Members()
	if m.Members[1].Name != "w2" || m.Members[1].Health != "suspect" {
		t.Fatalf("want w2 suspect after silence, got %+v", m.Members[1])
	}
	if m.Members[1].LastErr == "" {
		t.Fatal("suspect member should carry its probe error")
	}
	sent := part.Sent(host2)
	rep := r.IngestBatch(ctx, tweets[half:])
	if rep.Deferred == 0 || rep.Forwarded+rep.Deferred != len(tweets)-half {
		t.Fatalf("suspect worker should journal its share: %+v", rep)
	}
	if part.Sent(host2) != sent {
		t.Fatalf("suspect worker still receives forwards: sent %d → %d", sent, part.Sent(host2))
	}

	// Past DownAfter: Down (no auto-failover configured — it stays a member
	// and keeps journaling).
	clk.Advance(DefaultDownAfter)
	r.HealthTick(ctx)
	if got := r.Members().Members[1]; got.Health != "down" {
		t.Fatalf("want w2 down, got %+v", got)
	}
	if n := len(r.Members().Members); n != 2 {
		t.Fatalf("down without auto-failover must keep membership, got %d members", n)
	}

	// Heal the partition: the next probe succeeds and the detector rejoins
	// the worker on its own — journal replayed, Alive again.
	part.Heal(host2)
	r.HealthTick(ctx)
	got := r.Members().Members[1]
	if got.Health != "alive" {
		t.Fatalf("healed worker should auto-rejoin, got %+v", got)
	}
	if reg.Counter("stir_cluster_replayed_total", "worker", "w2").Value() == 0 {
		t.Fatal("auto-rejoin replayed nothing — deferred tweets lost?")
	}
	assertClusterMatchesBatch(t, r, res)

	// The state machine's full path is counted and logged.
	for _, to := range []string{"suspect", "down", "alive"} {
		if v := reg.Counter("stir_cluster_health_transitions_total", "worker", "w2", "to", to).Value(); v != 1 {
			t.Fatalf("transition to %s counted %d times, want 1", to, v)
		}
	}
	if reg.Counter("stir_cluster_health_probes_total", "worker", "w2", "result", "fail").Value() < 3 {
		t.Fatal("failed probes not counted")
	}
	if out := logs.String(); !bytes.Contains([]byte(out), []byte("worker health transition")) {
		t.Fatalf("state transitions missing from router log:\n%s", out)
	}
	// Epoch: one bump per join plus one for the rejoin.
	if e := r.Epoch(); e != 3 {
		t.Fatalf("epoch after join+join+rejoin = %d, want 3", e)
	}
}

// TestHealthAutoFailover drives a partitioned worker to Down with
// auto-failover on: the detector removes it through the crash-recovery path
// (journal-only here — no checkpoint store), the survivor absorbs its users,
// and the answer still matches batch exactly.
func TestHealthAutoFailover(t *testing.T) {
	ds := testDataset(t, 250, 37)
	res, err := ds.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tweets := allTweets(ds)

	clk := NewManualClock(time.Unix(1700000000, 0))
	part := fault.NewPartition(37, obs.Discard)
	reg := obs.NewRegistry()
	r := testRouter(t, reg, func(o *Options) {
		o.HTTP = &http.Client{Transport: part.RoundTripper(nil)}
		o.Clock = clk
		o.ForwardAttempts = 2
		o.AutoFailover = true
	})
	w1 := startWorker(t, ds, "w1", nil)
	defer w1.stop()
	w2 := startWorker(t, ds, "w2", nil)
	defer w2.stop()
	join(t, r, w1)
	join(t, r, w2)

	ctx := context.Background()
	feed(t, r, tweets, 64)

	part.Set(hostOf(t, w2.srv.URL), fault.Link{DropRequests: true})
	clk.Advance(DefaultDownAfter + time.Second)
	r.HealthTick(ctx)

	m := r.Members()
	if len(m.Members) != 1 || m.Members[0].Name != "w1" {
		t.Fatalf("auto-failover should have removed w2: %+v", m)
	}
	if v := reg.Counter("stir_cluster_health_failovers_total", "worker", "w2", "result", "ok").Value(); v != 1 {
		t.Fatalf("failover counted %d times, want 1", v)
	}
	// No store: every one of w2's tweets came back out of the journal.
	if reg.Counter("stir_cluster_replayed_total", "worker", "w2").Value() == 0 {
		t.Fatal("journal-only failover replayed nothing")
	}
	assertClusterMatchesBatch(t, r, res)
	if got, want := w1.eng.Stats().Users, res.Analysis.Users; got != want {
		t.Fatalf("survivor owns %d users, batch has %d", got, want)
	}
	// join + join + crash removal.
	if e := r.Epoch(); e != 3 {
		t.Fatalf("epoch after failover = %d, want 3", e)
	}
}

// TestHealthFailoverLastWorkerGuard partitions the whole fleet: the first
// worker fails over (its journal re-routes to the second), the second hits
// the last-worker guard — an error, counted, with the member kept for
// retries — and when the partition heals, the survivor rejoins and replays
// everything, landing on the exact batch answer alone.
func TestHealthFailoverLastWorkerGuard(t *testing.T) {
	ds := testDataset(t, 150, 41)
	res, err := ds.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tweets := allTweets(ds)
	clk := NewManualClock(time.Unix(1700000000, 0))
	part := fault.NewPartition(41, obs.Discard)
	reg := obs.NewRegistry()
	r := testRouter(t, reg, func(o *Options) {
		o.HTTP = &http.Client{Transport: part.RoundTripper(nil)}
		o.Clock = clk
		o.ForwardAttempts = 2
		o.AutoFailover = true
	})
	w1 := startWorker(t, ds, "w1", nil)
	defer w1.stop()
	w2 := startWorker(t, ds, "w2", nil)
	defer w2.stop()
	join(t, r, w1)
	join(t, r, w2)
	feed(t, r, tweets, 64)

	host1, host2 := hostOf(t, w1.srv.URL), hostOf(t, w2.srv.URL)
	part.Set(host1, fault.Link{DropRequests: true})
	part.Set(host2, fault.Link{DropRequests: true})
	ctx := context.Background()
	clk.Advance(DefaultDownAfter + time.Second)
	r.HealthTick(ctx)

	// w1 (probed first) failed over: its journal re-routed into w2's journal
	// across the partition. w2's own failover then hit the last-worker guard.
	if v := reg.Counter("stir_cluster_health_failovers_total", "worker", "w1", "result", "ok").Value(); v != 1 {
		t.Fatalf("w1 failover: got %d, want 1", v)
	}
	if v := reg.Counter("stir_cluster_health_failovers_total", "worker", "w2", "result", "error").Value(); v != 1 {
		t.Fatalf("last-worker failover should count one error, got %d", v)
	}
	m := r.Members()
	if len(m.Members) != 1 || m.Members[0].Name != "w2" || m.Members[0].Health != "down" {
		t.Fatalf("guard should keep the last member, down, for retries: %+v", m)
	}

	// Heal: the probe succeeds, the survivor rejoins and replays both its
	// own journal and w1's re-routed one — nothing acked was lost.
	part.HealAll()
	clk.Advance(time.Second)
	r.HealthTick(ctx)
	if got := r.Members().Members[0]; got.Health != "alive" {
		t.Fatalf("survivor should heal, got %+v", got)
	}
	assertClusterMatchesBatch(t, r, res)
	if got, want := w2.eng.Stats().Users, res.Analysis.Users; got != want {
		t.Fatalf("survivor owns %d users, batch has %d", got, want)
	}
}

// countingTransport counts round trips headed at one host.
type countingTransport struct {
	host string
	n    atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host == c.host {
		c.n.Add(1)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestMarkDownDefersWithoutHTTP is the no-wasted-budget regression: once a
// worker is marked down, its forwards defer to the journal without a single
// HTTP attempt — no retry burn, nothing on the wire.
func TestMarkDownDefersWithoutHTTP(t *testing.T) {
	ds := testDataset(t, 200, 43)
	res, err := ds.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tweets := allTweets(ds)
	ct := &countingTransport{}
	reg := obs.NewRegistry()
	r := testRouter(t, reg, func(o *Options) {
		o.HTTP = &http.Client{Transport: ct}
	})
	w1 := startWorker(t, ds, "w1", nil)
	defer w1.stop()
	w2 := startWorker(t, ds, "w2", nil)
	defer w2.stop()
	join(t, r, w1)
	join(t, r, w2)
	ct.host = hostOf(t, w2.srv.URL)

	ctx := context.Background()
	half := len(tweets) / 2
	feed(t, r, tweets[:half], 64)

	r.MarkDown("w2")
	before := ct.n.Load()
	rep := r.IngestBatch(ctx, tweets[half:])
	if rep.Deferred == 0 || rep.Forwarded+rep.Deferred != len(tweets)-half {
		t.Fatalf("marked-down worker should defer its share: %+v", rep)
	}
	if after := ct.n.Load(); after != before {
		t.Fatalf("marked-down worker still got %d HTTP attempts", after-before)
	}
	if reg.Counter("stir_cluster_deferred_total", "worker", "w2").Value() == 0 {
		t.Fatal("deferral not counted")
	}

	// Rejoin replays the deferred share and the answer is exact.
	join(t, r, w2)
	assertClusterMatchesBatch(t, r, res)
}

// TestMembersEndpoint reads the admin view over HTTP and checks it carries
// the operator's triage fields.
func TestMembersEndpoint(t *testing.T) {
	ds := testDataset(t, 80, 47)
	r := testRouter(t, obs.NewRegistry(), nil)
	w1 := startWorker(t, ds, "w1", nil)
	defer w1.stop()
	join(t, r, w1)
	feed(t, r, allTweets(ds), 64)

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	var m MembersView
	getJSON(t, srv.URL+"/cluster/v1/members", http.StatusOK, &m)
	if m.Epoch != 1 || len(m.Members) != 1 {
		t.Fatalf("members view: %+v", m)
	}
	row := m.Members[0]
	if row.Name != "w1" || row.Health != "alive" || row.URL == "" {
		t.Fatalf("member row: %+v", row)
	}
	if len(row.Partitions) == 0 {
		t.Fatalf("sole member should own every partition: %+v", row)
	}
	if row.LastOK == "" {
		t.Fatal("member row missing last_ok")
	}
	if row.AckedSeq == 0 {
		t.Fatalf("acked cursor missing after a fed stream: %+v", row)
	}
}

// TestRunHealthStopsCleanly pins the production loop's shutdown: cancelling
// the context stops the ticker goroutine (the leak guard fails the test
// otherwise).
func TestRunHealthStopsCleanly(t *testing.T) {
	leaktest.Check(t)
	r := testRouter(t, obs.NewRegistry(), func(o *Options) {
		o.Heartbeat = time.Millisecond
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		r.RunHealth(ctx)
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("RunHealth did not stop after cancel")
	}
}

var _ io.Writer = (*lockedBuffer)(nil)
