package cluster

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"stir/internal/core"
	"stir/internal/obs"
	"stir/internal/resilience/fault"
	"stir/internal/storage"
	"stir/internal/storage/vfs"
	"stir/internal/twitter"
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
	// The router's /v1/groups, merged from one owner's summary per
	// partition, is byte-identical to the batch analysis.
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	if got, want := getBody(t, srv.URL+"/v1/groups", http.StatusOK), routerGroupsBody(t, res.Analysis, 3, nil); string(got) != string(want) {
		t.Fatalf("replicated /v1/groups:\n got %s\nwant %s", got, want)
	}

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
	// Every partition keeps an answering owner, so /v1/groups is whole: not
	// partial, w3 listed as the one error. /v1/stats is partial: its sums
	// miss w3's own counters.
	want := routerGroupsBody(t, res.Analysis, 3, errs)
	if got := getBody(t, srv.URL+"/v1/groups", http.StatusOK); string(got) != string(want) {
		t.Fatalf("/v1/groups with one replica down:\n got %s\nwant %s", got, want)
	}
	var stats StatsResult
	getJSON(t, srv.URL+"/v1/stats", http.StatusOK, &stats)
	if !stats.Partial || stats.WorkersOK != 2 || len(stats.Errors) != 1 {
		t.Fatalf("/v1/stats with one replica down: %+v", stats)
	}
}

// TestClusterReplicatedRemoval removes one of three workers at replicas=2,
// once gracefully (Leave) and twice as a crash (RemoveCrashed from its
// checkpoint store), the second time with a journal so short that part of
// the tail past the checkpoint was evicted. Each time the cluster converges
// byte-identically to batch, and a survivor's users in partitions it owned
// before the removal come through it unchanged: only the new owners import,
// so the survivors' complete copies cover the journal's hole.
func TestClusterReplicatedRemoval(t *testing.T) {
	for _, tc := range []struct {
		name    string
		reason  string // the removal: "leave" or "crash"
		journal int    // Options.JournalDepth; 0 is the default
	}{{"leave", "leave", 0}, {"crash", "crash", 0}, {"crash-evicted", "crash", 64}} {
		t.Run(tc.name, func(t *testing.T) {
			seed := fault.SeedFromEnv(2026) + 53
			ds := testDataset(t, 300, 53)
			ctx := context.Background()
			res, err := ds.Analyze(ctx)
			if err != nil {
				t.Fatal(err)
			}
			tweets := allTweets(ds)
			reg := obs.NewRegistry()
			r := testRouter(t, reg, func(o *Options) {
				o.Replicas = 2
				o.Seed = seed
				o.JournalDepth = tc.journal
			})
			w1 := startWorker(t, ds, "w1", vfs.NewFault(vfs.FaultConfig{Seed: seed + 1}))
			defer w1.stop()
			w2 := startWorker(t, ds, "w2", vfs.NewFault(vfs.FaultConfig{Seed: seed + 2}))
			defer w2.stop()
			victimFS := vfs.NewFault(vfs.FaultConfig{Seed: seed})
			victim := startWorker(t, ds, "w3", victimFS)
			join(t, r, w1)
			join(t, r, w2)
			join(t, r, victim)

			// A durable cut, then a tail only the journal and the workers'
			// memory hold: the later half of every user's tweets (in order,
			// as per-user ID dedup requires), so grouped users change past
			// the checkpoint, and a short journal loses most of it. Every
			// tweet lands on two owners.
			byUser := make(map[twitter.UserID][]*twitter.Tweet)
			var users []twitter.UserID
			for _, tw := range tweets {
				if byUser[tw.UserID] == nil {
					users = append(users, tw.UserID)
				}
				byUser[tw.UserID] = append(byUser[tw.UserID], tw)
			}
			var pre, post []*twitter.Tweet
			for _, id := range users {
				ts := byUser[id]
				pre = append(pre, ts[:len(ts)/2]...)
				post = append(post, ts[len(ts)/2:]...)
			}
			stream := func(part []*twitter.Tweet) {
				for i := 0; i < len(part); i += 64 {
					batch := part[i:min(i+64, len(part))]
					if rep := r.IngestBatch(ctx, batch); rep.Forwarded != 2*len(batch) {
						t.Fatalf("replicated ingest: %+v (want %d forwarded)", rep, 2*len(batch))
					}
				}
			}
			stream(pre)
			if errs := r.CheckpointAll(ctx); len(errs) != 0 {
				t.Fatalf("checkpoint: %+v", errs)
			}
			evicted := reg.Counter("stir_cluster_journal_evicted_total", "worker", "w3")
			cut := evicted.Value()
			stream(post)
			if (tc.journal > 0) != (evicted.Value() > cut) {
				t.Fatalf("w3's journal evicted %d entries past the checkpoint at depth %d", evicted.Value()-cut, tc.journal)
			}

			// What each survivor holds of the partitions it already owns.
			ring := r.Ring()
			owned := func(w *testWorker) []byte {
				w.eng.Drain()
				mine := make(map[int]bool)
				for _, p := range ring.PartsOwnedBy(w.name, 2) {
					mine[p] = true
				}
				var gs []core.UserGrouping
				for _, g := range w.eng.Groupings() {
					if mine[PartitionOf(twitter.UserID(g.UserID), 32)] {
						gs = append(gs, g)
					}
				}
				return mustJSON(t, gs)
			}
			survivors := []*testWorker{w1, w2}
			before := make([][]byte, len(survivors))
			for i, w := range survivors {
				before[i] = owned(w)
			}

			if tc.reason == "crash" {
				victim.kill()
				r.MarkDown("w3")
				store, err := storage.Open("ckpt", storage.Options{FS: victimFS, Metrics: obs.Discard})
				if err != nil {
					t.Fatalf("reopen dead worker's store: %v", err)
				}
				defer store.Close()
				if err := r.RemoveCrashed(ctx, "w3", store); err != nil {
					t.Fatalf("RemoveCrashed: %v", err)
				}
			} else {
				if err := r.Leave(ctx, "w3"); err != nil {
					t.Fatalf("Leave: %v", err)
				}
				victim.stop()
			}
			if got := reg.Counter("stir_cluster_handoffs_total", "reason", tc.reason).Value(); got == 0 {
				t.Fatalf("%s recorded no handoffs", tc.reason)
			}
			for i, w := range survivors {
				if got := owned(w); !bytes.Equal(got, before[i]) {
					t.Fatalf("%s: %s's already-owned partitions changed across the removal", tc.name, w.name)
				}
			}
			assertClusterMatchesBatch(t, r, res)
		})
	}
}
