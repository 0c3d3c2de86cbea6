package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"stir/internal/leaktest"
	"stir/internal/obs"
	"stir/internal/resilience/fault"
	"stir/internal/storage/vfs"
	"stir/internal/stream"
)

// TestDiskExhaustionChaosConverges is the resource-exhaustion capstone
// (DESIGN.md §16): one worker's disk fills mid-stream. Its checkpoints defer
// (counted, cursor pinned), its store degrades to read-only, the router
// learns it from a hello probe and turns suspect-for-writes — new tweets for
// that worker stay journaled while reads keep scattering across the full
// ring. Readiness goes down, liveness and metrics stay up. Then the external
// pressure lifts, the store recovers, the next probe heals the worker and
// replays the journal tail — and the merged cluster answer is byte-identical
// to the batch pipeline with zero acked-synced records lost and zero journal
// evictions.
func TestDiskExhaustionChaosConverges(t *testing.T) {
	leaktest.Check(t)
	seed := fault.SeedFromEnv(2026)
	ds := testDataset(t, 400, 13)
	ctx := context.Background()
	res, err := ds.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tweets := allTweets(ds)

	reg := obs.NewRegistry()
	r := testRouter(t, reg, func(o *Options) {
		o.ForwardBatch = 32
		o.Seed = seed
	})
	w1 := startWorker(t, ds, "w1", vfs.NewFault(vfs.FaultConfig{Seed: seed + 1}))
	defer w1.stop()
	// The victim's device holds plenty at first; an external tenant will
	// fill it mid-stream.
	const capacity = 1 << 20
	victimFS := vfs.NewFault(vfs.FaultConfig{Seed: seed + 2, DiskCapacity: capacity})
	victim := startWorker(t, ds, "w2", victimFS)
	defer victim.stop()
	join(t, r, w1)
	join(t, r, victim)

	// Phase 1: a healthy stream with a durable cut.
	cut := len(tweets) * 3 / 5
	feed(t, r, tweets[:cut], 48)
	if errs := r.CheckpointAll(ctx); len(errs) != 0 {
		t.Fatalf("healthy checkpoint errored: %+v", errs)
	}

	// The device fills. The next checkpoint hits ENOSPC, defers (cursor not
	// advanced), and flips the store read-only degraded.
	victimFS.Mem().AddExternalUsage(capacity)
	if errs := r.CheckpointAll(ctx); len(errs) == 0 {
		t.Fatal("checkpoint on a full disk reported success")
	}
	if got := victim.eng.Stats().CheckpointsDeferred; got == 0 {
		t.Fatal("full disk produced no checkpoint deferrals")
	}
	if !victim.eng.Degraded() {
		t.Fatal("victim engine must report disk degradation")
	}

	// The router's next probe learns the degradation from hello: the worker
	// turns degraded, suspect for writes only (its reads are fine).
	r.HealthTick(ctx)
	if got := reg.Counter("stir_cluster_degraded_total", "worker", "w2").Value(); got != 1 {
		t.Fatalf("stir_cluster_degraded_total{w2} = %v, want 1", got)
	}
	sawDegraded := false
	for _, m := range r.Members().Members {
		if m.Name == "w2" {
			sawDegraded = m.Health == HealthDegraded.String()
		}
	}
	if !sawDegraded {
		t.Fatal("members view does not show w2 degraded")
	}

	// The acceptance contract for the daemon surface: /readyz answers 503
	// (state degraded) while /healthz and /metrics keep answering 200 — the
	// same obs wiring daemon.WatchDegraded drives in the real processes.
	ready := &obs.Readiness{}
	ready.SetDegraded(victim.eng.Degraded())
	rz := httptest.NewServer(obs.ReadyzHandler("worker", ready))
	defer rz.Close()
	hz := httptest.NewServer(obs.HealthzHandler("worker"))
	defer hz.Close()
	mz := httptest.NewServer(obs.Handler(reg))
	defer mz.Close()
	wantStatus := func(url string, want int) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, want)
		}
	}
	wantStatus(rz.URL, http.StatusServiceUnavailable)
	wantStatus(hz.URL, http.StatusOK)
	wantStatus(mz.URL, http.StatusOK)

	// Phase 2: the stream keeps flowing. The victim's share defers into its
	// journal (no tweet lost), while scatter reads still cover both workers.
	deferredBefore := reg.Counter("stir_cluster_deferred_total", "worker", "w2").Value()
	mid := cut + (len(tweets)-cut)/2
	for fed := cut; fed < mid; {
		n := 48
		if n > mid-fed {
			n = mid - fed
		}
		rep := r.IngestBatch(ctx, tweets[fed:fed+n])
		if rep.Forwarded+rep.Deferred != n {
			t.Fatalf("lost tweets while degraded: %+v (batch of %d)", rep, n)
		}
		fed += n
	}
	if reg.Counter("stir_cluster_deferred_total", "worker", "w2").Value() == deferredBefore {
		t.Fatal("degradation deferred nothing — every tweet routed around w2?")
	}
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	var groups GroupsResult
	getJSON(t, srv.URL+"/v1/groups", http.StatusOK, &groups)
	if groups.Partial || len(groups.Errors) != 0 {
		t.Fatalf("degraded worker must keep serving reads, got partial: %+v", groups.Errors)
	}

	// The pressure lifts; the store recovers; the next probe heals the
	// worker and replays the journal tail past its durable cursor.
	victimFS.Mem().AddExternalUsage(-capacity)
	if err := victim.store.TryRecover(); err != nil {
		t.Fatalf("TryRecover after space freed: %v", err)
	}
	if victim.eng.Degraded() {
		t.Fatal("engine still degraded after store recovery")
	}
	r.HealthTick(ctx)
	if got := reg.Counter("stir_cluster_degraded_healed_total", "worker", "w2").Value(); got != 1 {
		t.Fatalf("stir_cluster_degraded_healed_total{w2} = %v, want 1", got)
	}
	if reg.Counter("stir_cluster_replayed_total", "worker", "w2").Value() == 0 {
		t.Fatal("heal replayed nothing — deferred tweets lost?")
	}
	ready.SetDegraded(victim.eng.Degraded())
	wantStatus(rz.URL, http.StatusOK)

	// Phase 3: the rest of the stream through the healed ring, then a clean
	// checkpoint — and byte-identical convergence with the batch pipeline.
	feed(t, r, tweets[mid:], 48)
	if errs := r.CheckpointAll(ctx); len(errs) != 0 {
		t.Fatalf("post-heal checkpoint errored: %+v", errs)
	}
	assertClusterMatchesBatch(t, r, res)
	var g2 GroupsResult
	getJSON(t, srv.URL+"/v1/groups", http.StatusOK, &g2)
	if g2.Partial || g2.Users != res.Analysis.Users || g2.Tweets != res.Analysis.Tweets {
		t.Fatalf("healed /v1/groups: %+v, batch users=%d tweets=%d",
			g2, res.Analysis.Users, res.Analysis.Tweets)
	}

	// Zero acked-synced loss: nothing was evicted from the journal, so every
	// deferred tweet reached the worker.
	if evicted := reg.Counter("stir_cluster_journal_evicted_total", "worker", "w2").Value(); evicted != 0 {
		t.Fatalf("journal evicted %d entries during the outage", evicted)
	}
}

// TestDegradedAutoFailoverOnlyWhenEvicting pins the failover policy for
// disk-degraded workers: as long as the journal absorbs the deferred writes,
// the router waits for the disk to heal — re-sharding would lose nothing but
// costs a handoff. Only once the journal starts evicting (deferred writes
// actually being lost) does -auto-failover give up on the worker.
func TestDegradedAutoFailoverOnlyWhenEvicting(t *testing.T) {
	leaktest.Check(t)
	seed := fault.SeedFromEnv(2026) + 101
	ds := testDataset(t, 120, 29)
	ctx := context.Background()
	tweets := allTweets(ds)

	reg := obs.NewRegistry()
	r := testRouter(t, reg, func(o *Options) {
		o.ForwardBatch = 16
		o.JournalDepth = 64 // tiny: sustained deferral must evict
		o.AutoFailover = true
		o.Seed = seed
	})
	w1 := startWorker(t, ds, "w1", nil)
	defer w1.stop()
	const capacity = 1 << 19
	victimFS := vfs.NewFault(vfs.FaultConfig{Seed: seed + 1, DiskCapacity: capacity})
	victim := startWorker(t, ds, "w2", victimFS)
	defer victim.stop()
	join(t, r, w1)
	join(t, r, victim)

	feed(t, r, tweets[:len(tweets)/2], 32)
	victimFS.Mem().AddExternalUsage(capacity)
	r.CheckpointAll(ctx) // defers; store degrades
	if !victim.eng.Degraded() {
		t.Fatal("victim engine must be degraded")
	}
	r.HealthTick(ctx)

	// While the journal holds everything, ticks must NOT fail the worker
	// over, no matter how many pass.
	for i := 0; i < 5; i++ {
		r.HealthTick(ctx)
	}
	if got := reg.Counter("stir_cluster_health_failovers_total", "worker", "w2", "result", "ok").Value(); got != 0 {
		t.Fatalf("failover fired with zero journal evictions (%v)", got)
	}

	// Overflow the tiny journal: deferred writes are now being lost, so the
	// next probe must fail the worker over to the survivors.
	half := tweets[len(tweets)/2:]
	for i := 0; i < 10; i++ {
		r.IngestBatch(ctx, half)
		time.Sleep(time.Millisecond)
	}
	if reg.Counter("stir_cluster_journal_evicted_total", "worker", "w2").Value() == 0 {
		t.Fatal("journal never evicted — depth too large for the test")
	}
	r.HealthTick(ctx)
	if got := reg.Counter("stir_cluster_health_failovers_total", "worker", "w2", "result", "ok").Value(); got == 0 {
		t.Fatal("failover did not fire once the journal was evicting")
	}
	names := map[string]bool{}
	for _, m := range r.Members().Members {
		names[m.Name] = true
	}
	if names["w2"] {
		t.Fatal("evicting degraded worker still in the ring after failover")
	}
}

// TestDegradedWorkerReadAfterSilence walks a disk-degraded worker through a
// network outage: degraded, then silent past SuspectAfter (suspect: no reads,
// no forwards), then answering again with its disk still full. The first
// probe that answers must bring it back as degraded, so reads include it
// again and /v1/groups is whole while the disk stays full. When the disk
// frees, the next probe heals it and the cluster converges on batch.
func TestDegradedWorkerReadAfterSilence(t *testing.T) {
	leaktest.Check(t)
	seed := fault.SeedFromEnv(2026) + 211
	ds := testDataset(t, 300, 31)
	ctx := context.Background()
	res, err := ds.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tweets := allTweets(ds)

	clk := NewManualClock(time.Unix(1700000000, 0))
	part := fault.NewPartition(seed, obs.Discard)
	reg := obs.NewRegistry()
	r := testRouter(t, reg, func(o *Options) {
		o.HTTP = &http.Client{Transport: part.RoundTripper(nil)}
		o.Clock = clk
		o.ForwardBatch = 32
		o.ForwardAttempts = 2
		o.Seed = seed
	})
	w1 := startWorker(t, ds, "w1", vfs.NewFault(vfs.FaultConfig{Seed: seed + 1}))
	defer w1.stop()
	const capacity = 1 << 20
	victimFS := vfs.NewFault(vfs.FaultConfig{Seed: seed + 2, DiskCapacity: capacity})
	victim := startWorker(t, ds, "w2", victimFS)
	defer victim.stop()
	join(t, r, w1)
	join(t, r, victim)
	host2 := hostOf(t, victim.srv.URL)

	health := func() string {
		t.Helper()
		for _, m := range r.Members().Members {
			if m.Name == "w2" {
				return m.Health
			}
		}
		t.Fatal("w2 missing from the members view")
		return ""
	}
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	wholeGroups := func(when string) {
		t.Helper()
		var g GroupsResult
		getJSON(t, srv.URL+"/v1/groups", http.StatusOK, &g)
		if g.Partial || len(g.Errors) != 0 {
			t.Fatalf("%s: /v1/groups partial: %+v", when, g.Errors)
		}
	}

	// Degrade w2's store: the disk fills, a checkpoint defers, the probe
	// learns it.
	cut := len(tweets) / 2
	feed(t, r, tweets[:cut], 48)
	r.CheckpointAll(ctx)
	victimFS.Mem().AddExternalUsage(capacity)
	r.CheckpointAll(ctx)
	if !victim.eng.Degraded() {
		t.Fatal("victim engine must report disk degradation")
	}
	r.HealthTick(ctx)
	if got := health(); got != "degraded" {
		t.Fatalf("disk-degraded worker: health %s, want degraded", got)
	}
	wholeGroups("degraded")

	// The link drops past SuspectAfter: w2 is suspect and reads skip it.
	part.Set(host2, fault.Link{DropRequests: true})
	clk.Advance(DefaultSuspectAfter + time.Second)
	r.HealthTick(ctx)
	if got := health(); got != "suspect" {
		t.Fatalf("silent degraded worker: health %s, want suspect", got)
	}
	rep := r.IngestBatch(ctx, tweets[cut:cut+48])
	if rep.Forwarded+rep.Deferred != 48 {
		t.Fatalf("lost tweets while w2 was silent: %+v", rep)
	}

	// The link heals, the disk stays full: the first answering probe brings
	// w2 back as degraded, readable again.
	part.Heal(host2)
	for i := 0; i < 3; i++ {
		clk.Advance(time.Second)
		r.HealthTick(ctx)
		if got := health(); got != "degraded" {
			t.Fatalf("tick %d after the link healed: health %s, want degraded", i+1, got)
		}
	}
	wholeGroups("degraded after silence")

	// The rest of the stream defers for w2; then the disk frees and the
	// next probe heals w2 and replays its journal.
	for fed := cut + 48; fed < len(tweets); {
		n := min(48, len(tweets)-fed)
		if rep := r.IngestBatch(ctx, tweets[fed:fed+n]); rep.Forwarded+rep.Deferred != n {
			t.Fatalf("lost tweets while w2 was degraded: %+v", rep)
		}
		fed += n
	}
	victimFS.Mem().AddExternalUsage(-capacity)
	if err := victim.store.TryRecover(); err != nil {
		t.Fatalf("TryRecover after space freed: %v", err)
	}
	clk.Advance(time.Second)
	r.HealthTick(ctx)
	if got := health(); got != "alive" {
		t.Fatalf("healed worker: health %s, want alive", got)
	}
	if errs := r.CheckpointAll(ctx); len(errs) != 0 {
		t.Fatalf("post-heal checkpoint errored: %+v", errs)
	}
	assertClusterMatchesBatch(t, r, res)
	wholeGroups("healed")
	if evicted := reg.Counter("stir_cluster_journal_evicted_total", "worker", "w2").Value(); evicted != 0 {
		t.Fatalf("journal evicted %d entries during the outage", evicted)
	}
}

// TestStalledWorkerRejoinsDegraded covers a disk-degraded worker whose
// forwards fail before any probe has seen the degradation: its store defers
// checkpoints and its tiny dirty window fills, so it answers forwards 503 and
// the failed forward turns it suspect. The next probe answers with the store
// still full; it must bring the worker back as degraded, readable, without
// replaying into a store that cannot take the tail. Once the disk frees and a
// checkpoint lands, the next probe replays the journal and the cluster
// converges on batch.
func TestStalledWorkerRejoinsDegraded(t *testing.T) {
	stalledWorkerHeals(t, true)
}

// TestStalledWorkerHealsWithoutCheckpoint is the same outage healed by the
// probe alone: no checkpoint lands between the disk freeing and the next
// probe, so the heal's own checkpoint must clear the worker's stall before
// the replay, and the worker is alive after that one probe.
func TestStalledWorkerHealsWithoutCheckpoint(t *testing.T) {
	stalledWorkerHeals(t, false)
}

func stalledWorkerHeals(t *testing.T, checkpointFirst bool) {
	leaktest.Check(t)
	seed := fault.SeedFromEnv(2026) + 307
	ds := testDataset(t, 300, 37)
	ctx := context.Background()
	res, err := ds.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tweets := allTweets(ds)

	clk := NewManualClock(time.Unix(1700000000, 0))
	reg := obs.NewRegistry()
	r := testRouter(t, reg, func(o *Options) {
		o.Clock = clk
		o.ForwardBatch = 32
		o.ForwardAttempts = 2
		o.Seed = seed
	})
	w1 := startWorker(t, ds, "w1", vfs.NewFault(vfs.FaultConfig{Seed: seed + 1}))
	defer w1.stop()
	const capacity = 1 << 20
	victimFS := vfs.NewFault(vfs.FaultConfig{Seed: seed + 2, DiskCapacity: capacity})
	victim := startWorkerWrapped(t, ds, "w2", victimFS, nil, func(c *stream.Config) {
		c.MaxDirtyUsers = 1 // one dirty user past a deferred checkpoint stalls ingest
	})
	defer victim.stop()
	join(t, r, w1)
	join(t, r, victim)

	health := func() string {
		t.Helper()
		for _, m := range r.Members().Members {
			if m.Name == "w2" {
				return m.Health
			}
		}
		t.Fatal("w2 missing from the members view")
		return ""
	}
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	wholeGroups := func(when string) {
		t.Helper()
		var g GroupsResult
		getJSON(t, srv.URL+"/v1/groups", http.StatusOK, &g)
		if g.Partial || len(g.Errors) != 0 {
			t.Fatalf("%s: /v1/groups partial: %+v", when, g.Errors)
		}
	}

	// The disk fills under w2: the checkpoint defers and arms the stall, and
	// the first user the stream dirties exhausts the window. No probe runs,
	// so the router forwards to w2 until a forward is refused.
	cut := len(tweets) / 3
	feed(t, r, tweets[:cut], 48)
	victimFS.Mem().AddExternalUsage(capacity)
	r.CheckpointAll(ctx)
	if !victim.eng.Degraded() {
		t.Fatal("victim engine must report disk degradation")
	}
	fed := cut
	for fed < len(tweets) && health() == "alive" {
		n := min(48, len(tweets)-fed)
		if rep := r.IngestBatch(ctx, tweets[fed:fed+n]); rep.Forwarded+rep.Deferred != n {
			t.Fatalf("lost tweets while w2 stalled: %+v", rep)
		}
		fed += n
	}
	if got := health(); got != "suspect" {
		t.Fatalf("stalled worker after a refused forward: health %s, want suspect", got)
	}

	// The next probe answers, the disk still full: w2 is degraded and read
	// again, and stays so on later ticks.
	for i := 0; i < 3; i++ {
		clk.Advance(time.Second)
		r.HealthTick(ctx)
		if got := health(); got != "degraded" {
			t.Fatalf("tick %d with the disk full: health %s, want degraded", i+1, got)
		}
	}
	wholeGroups("stalled, then probed")
	for fed < len(tweets) {
		n := min(48, len(tweets)-fed)
		if rep := r.IngestBatch(ctx, tweets[fed:fed+n]); rep.Forwarded+rep.Deferred != n {
			t.Fatalf("lost tweets while w2 was degraded: %+v", rep)
		}
		fed += n
	}

	// The disk frees, and the next probe heals w2 and replays its journal.
	// The heal checkpoints first, so it does not need the external
	// checkpoint that otherwise clears the stall.
	victimFS.Mem().AddExternalUsage(-capacity)
	if err := victim.store.TryRecover(); err != nil {
		t.Fatalf("TryRecover after space freed: %v", err)
	}
	if checkpointFirst {
		if errs := r.CheckpointAll(ctx); len(errs) != 0 {
			t.Fatalf("checkpoint after space freed errored: %+v", errs)
		}
	}
	clk.Advance(time.Second)
	r.HealthTick(ctx)
	if got := health(); got != "alive" {
		t.Fatalf("healed worker: health %s, want alive", got)
	}
	if errs := r.CheckpointAll(ctx); len(errs) != 0 {
		t.Fatalf("post-heal checkpoint errored: %+v", errs)
	}
	assertClusterMatchesBatch(t, r, res)
	wholeGroups("healed")
	if evicted := reg.Counter("stir_cluster_journal_evicted_total", "worker", "w2").Value(); evicted != 0 {
		t.Fatalf("journal evicted %d entries during the outage", evicted)
	}
}
