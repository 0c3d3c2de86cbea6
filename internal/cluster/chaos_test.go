package cluster

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"stir/internal/obs"
	"stir/internal/resilience/fault"
	"stir/internal/storage"
	"stir/internal/storage/vfs"
)

// TestClusterChaosKillWorkerConverges is the capstone: a worker is
// SIGKILL-equivalently destroyed mid-ingest — its listener vanishes, its
// in-memory state is discarded, and its checkpoint store's filesystem powers
// off at a seeded mutation boundary (so the last checkpoint write may be
// torn). The router marks it down and journals its share of the stream. A
// replacement process then reopens the store (salvaging whatever the torn
// write left), rejoins under the same name, and the router replays the
// journal tail past the store's durable cursor — the overlap with the
// checkpoint is absorbed by tweet-ID dedup. After the rest of the stream,
// the merged cluster groupings must be byte-identical to the batch
// pipeline, with every deferral and replay visible in the metrics.
func TestClusterChaosKillWorkerConverges(t *testing.T) {
	seed := fault.SeedFromEnv(2026)
	rnd := rand.New(rand.NewSource(seed))
	ds := testDataset(t, 500, 13)
	res, err := ds.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tweets := allTweets(ds)

	reg := obs.NewRegistry()
	r := testRouter(t, reg, func(o *Options) {
		o.ForwardBatch = 32
		o.ForwardAttempts = 2
		o.ScatterTimeout = 2 * time.Second
		o.Seed = seed
	})

	// Two durable bystanders and one victim. The victim's filesystem powers
	// off at a seeded boundary, so whichever checkpoint write is in flight
	// at that moment tears exactly as a yanked power cord would tear it.
	w1 := startWorker(t, ds, "w1", vfs.NewFault(vfs.FaultConfig{Seed: seed + 1}))
	defer w1.stop()
	w2 := startWorker(t, ds, "w2", vfs.NewFault(vfs.FaultConfig{Seed: seed + 2}))
	defer w2.stop()
	crashAt := 400 + rnd.Int63n(4000)
	victimFS := vfs.NewFault(vfs.FaultConfig{Seed: seed + 3, CrashAt: crashAt})
	victim := startWorker(t, ds, "w3", victimFS)
	join(t, r, w1)
	join(t, r, w2)
	join(t, r, victim)

	// Phase 1: stream the first ~60% in small batches, checkpointing as we
	// go. The victim's store may power off under one of these checkpoints;
	// a checkpoint error from it is exactly what a dying disk produces, so
	// it is tolerated — the journal keeps everything past the last durable
	// cut.
	ctx := context.Background()
	batch := 48
	killPoint := len(tweets)*3/5 + rnd.Intn(len(tweets)/10)
	fed := 0
	for fed < killPoint {
		n := batch
		if n > killPoint-fed {
			n = killPoint - fed
		}
		rep := r.IngestBatch(ctx, tweets[fed:fed+n])
		if rep.Forwarded+rep.Deferred != n {
			t.Fatalf("lost tweets mid-stream: %+v (batch of %d)", rep, n)
		}
		fed += n
		if rnd.Intn(4) == 0 {
			r.CheckpointAll(ctx) // victim errors here once its disk is gone
		}
	}

	// SIGKILL. No goodbye checkpoint, no export — the process is gone.
	victim.kill()
	r.MarkDown("w3")

	// Mid-outage: scatter-gather degrades instead of failing, blaming the
	// dead shard by name.
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	var groups GroupsResult
	getJSON(t, srv.URL+"/v1/groups", http.StatusOK, &groups)
	if !groups.Partial || len(groups.Errors) != 1 || groups.Errors[0].Worker != "w3" {
		t.Fatalf("mid-outage /v1/groups should be partial blaming w3: %+v", groups)
	}

	// Phase 2: the stream keeps flowing while the shard is dead. The
	// victim's tweets defer into its journal.
	mid := fed + (len(tweets)-fed)/2
	for fed < mid {
		n := batch
		if n > mid-fed {
			n = mid - fed
		}
		rep := r.IngestBatch(ctx, tweets[fed:fed+n])
		if rep.Forwarded+rep.Deferred != n {
			t.Fatalf("lost tweets during outage: %+v", rep)
		}
		fed += n
	}
	if reg.Counter("stir_cluster_deferred_total", "worker", "w3").Value() == 0 {
		t.Fatal("outage deferred nothing — the kill point missed every w3 tweet?")
	}

	// Replacement process: power the filesystem back on (torn tail and
	// all), reopen the store, and rejoin under the same name. The engine
	// resumes from the last durable checkpoint; the router replays the
	// journal past its cursor.
	victimFS.Restart()
	restarted := startWorker(t, ds, "w3", victimFS)
	defer restarted.stop()
	if err := r.AddWorker(ctx, "w3", restarted.srv.URL); err != nil {
		t.Fatalf("rejoin after crash: %v", err)
	}
	if reg.Counter("stir_cluster_handoffs_total", "reason", "rejoin").Value() != 1 {
		t.Fatal("rejoin not recorded in stir_cluster_handoffs_total")
	}
	if reg.Counter("stir_cluster_replayed_total", "worker", "w3").Value() == 0 {
		t.Fatal("rejoin replayed nothing — journal lost?")
	}

	// Phase 3: the rest of the stream through the healed ring.
	for fed < len(tweets) {
		n := batch
		if n > len(tweets)-fed {
			n = len(tweets) - fed
		}
		rep := r.IngestBatch(ctx, tweets[fed:fed+n])
		if rep.Forwarded != n {
			t.Fatalf("healed ring still dropping: %+v", rep)
		}
		fed += n
	}

	// Convergence: the merged cluster answer is byte-identical to batch.
	assertClusterMatchesBatch(t, r, res)
	var g2 GroupsResult
	getJSON(t, srv.URL+"/v1/groups", http.StatusOK, &g2)
	if g2.Partial || g2.Users != res.Analysis.Users || g2.Tweets != res.Analysis.Tweets {
		t.Fatalf("healed /v1/groups: %+v, batch users=%d tweets=%d",
			g2, res.Analysis.Users, res.Analysis.Tweets)
	}

	// Accounting: every deferral was replayed or is still journaled for a
	// down worker — and with the ring healed and drained, nothing may
	// remain unaccounted. The victim's checkpoint counters survived too.
	deferred := reg.Counter("stir_cluster_deferred_total", "worker", "w3").Value()
	replayed := reg.Counter("stir_cluster_replayed_total", "worker", "w3").Value()
	if deferred == 0 || replayed == 0 {
		t.Fatalf("accounting hole: deferred=%d replayed=%d", deferred, replayed)
	}
	if evicted := reg.Counter("stir_cluster_journal_evicted_total", "worker", "w3").Value(); evicted != 0 {
		t.Fatalf("journal evicted %d entries — depth too small for the test", evicted)
	}
}

// TestClusterCrashRecoveryFromCheckpointStore exercises the other recovery
// path: the dead worker never comes back, and the router redistributes its
// users straight out of its checkpoint store (shared-storage recovery),
// replaying the journal tail past the store's cursor through the shrunk
// ring.
func TestClusterCrashRecoveryFromCheckpointStore(t *testing.T) {
	seed := fault.SeedFromEnv(2026) + 7
	ds := testDataset(t, 400, 17)
	res, err := ds.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tweets := allTweets(ds)
	reg := obs.NewRegistry()
	r := testRouter(t, reg, func(o *Options) { o.Seed = seed })
	w1 := startWorker(t, ds, "w1", nil)
	defer w1.stop()
	victimFS := vfs.NewFault(vfs.FaultConfig{Seed: seed})
	victim := startWorker(t, ds, "w2", victimFS)
	join(t, r, w1)
	join(t, r, victim)

	ctx := context.Background()
	cut := len(tweets) * 2 / 3
	feed(t, r, tweets[:cut], 64)
	// A durable cut exists, then more tweets arrive that only the journal
	// and the victim's memory know about.
	r.CheckpointAll(ctx)
	feed(t, r, tweets[cut:], 64)
	victim.kill()
	r.MarkDown("w2")

	// The store outlived the process (shared disk): reopen and recover.
	store, err := storage.Open("ckpt", storage.Options{FS: victimFS, Metrics: obs.Discard})
	if err != nil {
		t.Fatalf("reopen dead worker's store: %v", err)
	}
	if err := r.RemoveCrashed(ctx, "w2", store); err != nil {
		t.Fatalf("RemoveCrashed: %v", err)
	}
	if got := reg.Counter("stir_cluster_handoffs_total", "reason", "crash").Value(); got == 0 {
		t.Fatal("crash recovery recorded no handoffs")
	}
	assertClusterMatchesBatch(t, r, res)
	if got, want := w1.eng.Stats().Users, res.Analysis.Users; got != want {
		t.Fatalf("survivor owns %d users, batch has %d", got, want)
	}
}

// TestClusterReplicatedIngest runs replicas=2: every tweet lands on two
// workers, one dies, and the answer stays exact with zero deferrals needed
// for correctness — the surviving replica has everything.
func TestClusterReplicatedIngest(t *testing.T) {
	ds := testDataset(t, 300, 23)
	res, err := ds.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r := testRouter(t, reg, func(o *Options) { o.Replicas = 2 })
	w1 := startWorker(t, ds, "w1", nil)
	defer w1.stop()
	w2 := startWorker(t, ds, "w2", nil)
	defer w2.stop()
	w3 := startWorker(t, ds, "w3", nil)
	join(t, r, w1)
	join(t, r, w2)
	join(t, r, w3)

	tweets := allTweets(ds)
	ctx := context.Background()
	for i := 0; i < len(tweets); i += 50 {
		end := i + 50
		if end > len(tweets) {
			end = len(tweets)
		}
		rep := r.IngestBatch(ctx, tweets[i:end])
		if rep.Unrouted > 0 || rep.Deferred > 0 {
			t.Fatalf("replicated ingest dropped: %+v", rep)
		}
	}
	assertClusterMatchesBatch(t, r, res)

	// Kill one worker: with two replicas per partition, the merged answer
	// over the survivors is still exact.
	w3.kill()
	r.MarkDown("w3")
	gs, errs := r.Groupings(ctx)
	if len(errs) != 1 || errs[0].Worker != "w3" {
		t.Fatalf("want exactly w3 reported down, got %+v", errs)
	}
	if got, want := mustJSON(t, gs), mustJSON(t, res.Groupings); string(got) != string(want) {
		t.Fatalf("replicated cluster lost users with one replica down: %d vs %d",
			len(gs), len(res.Groupings))
	}
}
