package cluster

import (
	"context"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"stir/internal/leaktest"
	"stir/internal/obs"
	"stir/internal/resilience/fault"
	"stir/internal/storage"
	"stir/internal/storage/vfs"
	"stir/internal/twitter"
)

// TestClusterPartitionChaosConverges is the self-healing capstone. One
// worker falls behind an asymmetric network partition that keeps DELIVERING
// its requests while eating the responses — the nastiest failure mode: the
// worker applies writes nobody can ack. The failure detector walks it
// Alive → Suspect (journal-defer) → Down, then fails it over automatically
// out of its checkpoint store (the shared-disk seam) plus journal replay. A
// zombie hop still holding the pre-failover epoch is fenced with 412 and
// never applied. The partition heals, a replacement process resumes from
// the store and rejoins — a fresh join that overwrites its partitions from
// the current owners and wipes the residue it no longer owns. After the
// rest of the stream, the merged answer is byte-identical to the batch
// pipeline: zero acked writes lost, zero stale-epoch writes applied, every
// transition counted. The whole schedule derives from STIR_FAULT_SEED and
// a manual clock — rerunning a failure replays it exactly.
func TestClusterPartitionChaosConverges(t *testing.T) {
	leaktest.Check(t)
	seed := fault.SeedFromEnv(2026) + 13
	rnd := rand.New(rand.NewSource(seed))
	ds := testDataset(t, 500, 23)
	res, err := ds.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tweets := allTweets(ds)

	clk := NewManualClock(time.Unix(1700000000, 0))
	reg := obs.NewRegistry()
	part := fault.NewPartition(seed, reg)
	victimFS := vfs.NewFault(vfs.FaultConfig{Seed: seed + 3})
	r := testRouter(t, reg, func(o *Options) {
		o.HTTP = &http.Client{Transport: part.RoundTripper(nil)}
		o.Clock = clk
		o.Seed = seed
		o.ForwardBatch = 32
		o.ForwardAttempts = 2
		o.AutoFailover = true
		// The shared-disk recovery seam: failover reopens the victim's
		// checkpoint store, so its durable users survive the removal even
		// though its journal was trimmed past them.
		o.Checkpoint = func(name string) (*storage.Store, error) {
			return storage.Open("ckpt", storage.Options{FS: victimFS, Metrics: obs.Discard})
		}
	})
	w1reg := obs.NewRegistry()
	w1 := startWorkerReg(t, ds, "w1", w1reg)
	defer w1.stop()
	w2 := startWorker(t, ds, "w2", nil)
	defer w2.stop()
	victim := startWorker(t, ds, "w3", victimFS)
	join(t, r, w1)
	join(t, r, w2)
	join(t, r, victim)
	host3 := hostOf(t, victim.srv.URL)

	// Phase 1: ~40% of the stream with periodic durable checkpoints, so the
	// victim's journal is trimmed — after this, only its store knows the
	// checkpointed tweets.
	ctx := context.Background()
	batch := 48
	cut := len(tweets)*2/5 + rnd.Intn(len(tweets)/10)
	fed := 0
	for fed < cut {
		n := batch
		if n > cut-fed {
			n = cut - fed
		}
		rep := r.IngestBatch(ctx, tweets[fed:fed+n])
		if rep.Forwarded+rep.Deferred != n {
			t.Fatalf("lost tweets mid-stream: %+v", rep)
		}
		fed += n
		if rnd.Intn(4) == 0 {
			r.CheckpointAll(ctx)
		}
	}
	// A durable cut exists before the trouble starts: everything the victim
	// aggregated so far is in its store, and its journal is trimmed past it.
	r.CheckpointAll(ctx)

	// The asymmetric partition drops: requests still reach w3, every
	// response dies on the way back. w3 keeps applying unacked writes — the
	// at-most-once ambiguity the journal + tweet-ID dedup must absorb.
	part.Set(host3, fault.Link{DropResponses: true})

	// Phase 2: stream through the partition. The first failed forward marks
	// w3 down; everything after defers to its journal.
	mid := fed + (len(tweets)-fed)/2
	for fed < mid {
		n := batch
		if n > mid-fed {
			n = mid - fed
		}
		rep := r.IngestBatch(ctx, tweets[fed:fed+n])
		if rep.Forwarded+rep.Deferred != n {
			t.Fatalf("lost tweets during the partition: %+v", rep)
		}
		fed += n
	}
	if reg.Counter("stir_cluster_deferred_total", "worker", "w3").Value() == 0 {
		t.Fatal("partition deferred nothing for w3")
	}

	// The detector escalates on pure clock time: Suspect first…
	clk.Advance(DefaultSuspectAfter + time.Second)
	r.HealthTick(ctx)
	if got := r.Members().Members[2]; got.Health != "suspect" {
		t.Fatalf("want w3 suspect, got %+v", got)
	}
	// …then Down. The zombie process dies with the partition (its unacked
	// tail lives in the journal), and auto-failover recovers the rest from
	// the shared checkpoint store.
	epochBefore := r.Epoch()
	victim.kill()
	clk.Advance(DefaultDownAfter)
	r.HealthTick(ctx)
	if v := reg.Counter("stir_cluster_health_failovers_total", "worker", "w3", "result", "ok").Value(); v != 1 {
		t.Fatalf("auto-failover counted %d times, want 1", v)
	}
	m := r.Members()
	if len(m.Members) != 2 || m.Epoch <= epochBefore {
		t.Fatalf("failover should shrink membership and bump the epoch: %+v (was %d)", m, epochBefore)
	}

	// A zombie hop from before the failover — an in-flight forward that sat
	// on the wire across the membership change — is fenced, counted, and
	// never applied.
	fake := *tweets[0]
	fake.ID = 1 << 60
	zombie := mustJSON(t, ingestRequest{Seq: 0, Tweets: []*twitter.Tweet{&fake}})
	if got := fenceDo(t, http.MethodPost, w1.srv.URL+"/cluster/v1/ingest", FormatSeq(epochBefore), zombie); got != http.StatusPreconditionFailed {
		t.Fatalf("stale-epoch zombie hop: status %d, want 412", got)
	}
	if v := w1reg.Counter("stir_cluster_fenced_total", "worker", "w1", "route", "ingest").Value(); v != 1 {
		t.Fatalf("zombie fence counted %d times, want 1", v)
	}

	// Phase 3: the stream keeps flowing through the shrunk, healthy ring.
	for fed < len(tweets) {
		n := batch
		if n > len(tweets)-fed {
			n = len(tweets) - fed
		}
		rep := r.IngestBatch(ctx, tweets[fed:fed+n])
		if rep.Forwarded != n {
			t.Fatalf("post-failover ring dropping: %+v", rep)
		}
		fed += n
	}

	// Heal: a replacement process resumes from the same store and rejoins.
	// It arrives carrying stale users, so the join overwrites everything it
	// now owns from the current owners and wipes the rest as residue.
	part.Heal(host3)
	victimFS.Restart()
	replacement := startWorker(t, ds, "w3", victimFS)
	defer replacement.stop()
	if err := r.AddWorker(ctx, "w3", replacement.srv.URL); err != nil {
		t.Fatalf("rejoin after heal: %v", err)
	}
	if reg.Counter("stir_cluster_handoffs_total", "reason", "wipe").Value() != 1 {
		t.Fatal("stale rejoiner's residue was not wiped")
	}
	r.CheckpointAll(ctx)

	// Convergence: byte-identical to batch. This is simultaneously the
	// zero-acked-write-loss proof and the zero-stale-write proof — a single
	// lost tweet or the fenced fabrication showing up would break it.
	assertClusterMatchesBatch(t, r, res)

	// And the books balance: the detector saw the whole arc.
	for _, want := range []struct {
		to string
		n  int64
	}{{"suspect", 1}, {"down", 1}} {
		if v := reg.Counter("stir_cluster_health_transitions_total", "worker", "w3", "to", want.to).Value(); v != want.n {
			t.Fatalf("transition to %s counted %v times, want %v", want.to, v, want.n)
		}
	}
	if reg.Counter("stir_cluster_journal_evicted_total", "worker", "w3").Value() != 0 {
		t.Fatal("journal evicted entries — depth too small for the schedule")
	}
}
