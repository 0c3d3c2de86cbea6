package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"

	"stir/internal/core"
	"stir/internal/obs"
	"stir/internal/storage"
	"stir/internal/storage/vfs"
	"stir/internal/twitter"
)

// Property: materialise-and-restore is lossless. For any seeded random
// workload — including snapshots cut mid-drain, while shard queues still
// hold undelivered tweets — rebuilding an engine from its checkpoint store
// and replaying the uncovered suffix reproduces the original groupings
// rank-for-rank and byte-for-byte, and a storage-level Snapshot/
// RestoreSnapshot of that store is equally faithful. This is the seam the
// cluster's shard handoff and crash recovery stand on.

func TestSnapshotRestorePropertyRandomWorkloads(t *testing.T) {
	const rounds = 6
	baseSeed := int64(20260808)
	for round := 0; round < rounds; round++ {
		round := round
		t.Run(fmt.Sprintf("seed=%d", baseSeed+int64(round)), func(t *testing.T) {
			seed := baseSeed + int64(round)
			rnd := rand.New(rand.NewSource(seed))
			ds := testDataset(t, 150+rnd.Intn(200), seed)
			tweets := allTweets(ds)
			rnd.Shuffle(len(tweets), func(i, j int) { tweets[i], tweets[j] = tweets[j], tweets[i] })

			fs := vfs.NewMem(seed)
			store, err := storage.Open("ckpt", storage.Options{FS: fs, Metrics: obs.Discard})
			if err != nil {
				t.Fatal(err)
			}
			eng := testEngine(t, ds, func(c *Config) { c.Store = store })

			// Random workload: interleave ingest bursts with checkpoints. The
			// cut point is random, and the final checkpoint races live
			// ingestion from another goroutine, so some runs snapshot while
			// shard queues are mid-drain.
			cut := 1 + rnd.Intn(len(tweets)-1)
			i := 0
			for i < cut {
				n := 1 + rnd.Intn(400)
				if n > cut-i {
					n = cut - i
				}
				for _, tw := range tweets[i : i+n] {
					eng.Ingest(tw)
				}
				i += n
				if rnd.Intn(3) == 0 {
					if err := eng.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// The racing tail: feed a slice of post-cut tweets concurrently
			// with the final checkpoint, so the checkpoint's drain barrier
			// cuts through a live queue.
			racing := tweets[cut:]
			if len(racing) > 500 {
				racing = racing[:500]
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, tw := range racing {
					eng.Ingest(tw)
				}
			}()
			if err := eng.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			eng.Drain()
			// A final checkpoint makes the store cover everything ingested;
			// the mid-drain one above already proved the barrier cut is safe.
			if err := eng.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			want := mustJSON(t, eng.Snapshot())
			eng.Close()
			store.Close()

			// Path 1: reopen the store and rebuild.
			store2, err := storage.Open("ckpt", storage.Options{FS: fs, Metrics: obs.Discard})
			if err != nil {
				t.Fatal(err)
			}
			re := testEngine(t, ds, func(c *Config) { c.Store = store2 })
			if got := mustJSON(t, re.Snapshot()); !bytes.Equal(got, want) {
				t.Fatal("checkpoint-restored engine diverges from the original")
			}
			re.Close()

			// Path 2: storage-level Snapshot -> RestoreSnapshot -> rebuild.
			var backup bytes.Buffer
			if _, err := store2.Snapshot(&backup); err != nil {
				t.Fatal(err)
			}
			store2.Close()
			fs2 := vfs.NewMem(seed + 1)
			if _, err := storage.RestoreSnapshot("restored", bytes.NewReader(backup.Bytes()),
				storage.Options{FS: fs2, Metrics: obs.Discard}); err != nil {
				t.Fatal(err)
			}
			store3, err := storage.Open("restored", storage.Options{FS: fs2, Metrics: obs.Discard})
			if err != nil {
				t.Fatal(err)
			}
			re2 := testEngine(t, ds, func(c *Config) { c.Store = store3 })
			defer re2.Close()
			if got := mustJSON(t, re2.Snapshot()); !bytes.Equal(got, want) {
				t.Fatal("snapshot-restored engine diverges from the original")
			}
			// Rank-identity: every user's matched rank and group survive.
			orig := re2.Groupings()
			for _, g := range orig {
				view, ok := re2.User(twitter.UserID(g.UserID))
				if !ok || view.Rank != g.MatchedRank || view.Group != g.Group.String() {
					t.Fatalf("user %d rank/group drift after restore: %+v vs %+v", g.UserID, view, g)
				}
			}
		})
	}
}

// Property: the summaries every /v1/groups answer reads stay the fold of the
// users the engine holds, whatever moved them in or out. Two engines share
// one dataset, each on its own checkpoint store; a random interleaving of
// ingest, handoffs (ExportUsers → ImportUsers → DropUsers), checkpoints,
// reloads from the store and partitioned reads (PartitionSummaries with a
// random partition count, which re-buckets the shards) runs over them.
// After Drain each engine's /v1/groups body is byte-identical to the JSON
// of core.Analyze(e.Groupings()), GroupCounts equals the summary's
// integers, each partition's summary is the analysis of exactly that
// partition's users and the partitions merge to Analysis(), for the count
// in use and again after a re-bucket to another. The union of both engines
// is the batch analysis.
func TestAnalysisMatchesGroupingsUnderHandoffAndRestore(t *testing.T) {
	for round := int64(0); round < 4; round++ {
		seed := 20261017 + round
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(seed))
			ds := testDataset(t, 150+rnd.Intn(150), seed)
			res, err := ds.Analyze(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			tweets := allTweets(ds)
			rnd.Shuffle(len(tweets), func(i, j int) { tweets[i], tweets[j] = tweets[j], tweets[i] })

			type node struct {
				fs    *vfs.Mem
				store *storage.Store
				eng   *Engine
			}
			open := func(n *node) {
				store, err := storage.Open("ckpt", storage.Options{FS: n.fs, Metrics: obs.Discard})
				if err != nil {
					t.Fatal(err)
				}
				n.store = store
				n.eng = testEngine(t, ds, func(c *Config) {
					c.Store = store
					c.Shards = 1 + rnd.Intn(4)
				})
			}
			nodes := [2]*node{{fs: vfs.NewMem(seed)}, {fs: vfs.NewMem(seed + 1)}}
			for _, n := range nodes {
				open(n)
			}
			defer func() {
				for _, n := range nodes {
					n.eng.Close()
					n.store.Close()
				}
			}()
			// owner[u] is the node that holds user u; a user starts on the
			// node its ID parity picks and moves with every handoff.
			owner := map[twitter.UserID]int{}
			ownerOf := func(id twitter.UserID) int {
				if o, ok := owner[id]; ok {
					return o
				}
				return int(id % 2)
			}

			for i := 0; i < len(tweets); {
				switch op := rnd.Intn(10); {
				case op < 6:
					end := min(len(tweets), i+1+rnd.Intn(300))
					for _, tw := range tweets[i:end] {
						nodes[ownerOf(tw.UserID)].eng.Ingest(tw)
					}
					i = end
				case op < 8:
					// Hand a slice of the user space from one node to the other.
					from := rnd.Intn(2)
					mod, rem := twitter.UserID(2+rnd.Intn(4)), twitter.UserID(rnd.Intn(2))
					sel := func(id twitter.UserID) bool { return ownerOf(id) == from && id%mod == rem }
					h, err := nodes[from].eng.ExportUsers(sel)
					if err != nil {
						t.Fatal(err)
					}
					if err := nodes[1-from].eng.ImportUsers(h); err != nil {
						t.Fatal(err)
					}
					moved := map[twitter.UserID]bool{}
					for _, tw := range tweets {
						if sel(tw.UserID) {
							moved[tw.UserID] = true
						}
					}
					nodes[from].eng.DropUsers(sel)
					for id := range moved {
						owner[id] = 1 - from
					}
				case op == 8:
					if err := nodes[rnd.Intn(2)].eng.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					nodes[rnd.Intn(2)].eng.PartitionSummaries(1 + rnd.Intn(40))
				default:
					// Reload: checkpoint, stop, rebuild from the store.
					n := nodes[rnd.Intn(2)]
					if err := n.eng.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					n.eng.Close()
					n.store.Close()
					open(n)
				}
			}

			var all []core.UserGrouping
			for k, n := range nodes {
				n.eng.Drain()
				gs := n.eng.Groupings()
				all = append(all, gs...)
				want := core.Analyze(gs)
				var buf bytes.Buffer
				if err := json.NewEncoder(&buf).Encode(want.Result()); err != nil {
					t.Fatal(err)
				}
				rec := httptest.NewRecorder()
				n.eng.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/groups", nil))
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), buf.Bytes()) {
					t.Fatalf("node %d /v1/groups (status %d):\n got %s\nwant %s", k, rec.Code, rec.Body.Bytes(), buf.Bytes())
				}
				users, tws := n.eng.GroupCounts()
				a := n.eng.Analysis()
				for g := range users {
					if users[g] != a.Groups[g].Users || tws[g] != a.Groups[g].Tweets ||
						users[g] != want.Groups[g].Users || tws[g] != want.Groups[g].Tweets {
						t.Fatalf("node %d group %v: GroupCounts %d/%d, summary %d/%d, groupings %d/%d", k, core.Group(g),
							users[g], tws[g], a.Groups[g].Users, a.Groups[g].Tweets, want.Groups[g].Users, want.Groups[g].Tweets)
					}
				}
			}
			for _, n := range nodes {
				gs := n.eng.Groupings()
				for _, parts := range []int{1 + rnd.Intn(40), 41 + rnd.Intn(40)} {
					assertPartitionSummaries(t, n.eng, gs, parts)
				}
			}
			sort.Slice(all, func(i, j int) bool { return all[i].UserID < all[j].UserID })
			if got, want := mustJSON(t, core.Analyze(all)), mustJSON(t, res.Analysis); !bytes.Equal(got, want) {
				t.Fatalf("union of both nodes diverges from batch:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// assertPartitionSummaries checks e.PartitionSummaries(n) against the
// drained engine's groupings gs: every partition's summary analyses to
// core.Analyze over exactly that partition's users, no non-empty partition
// is missing, and the summaries merge to e.Analysis(), bit for bit.
func assertPartitionSummaries(t *testing.T, e *Engine, gs []core.UserGrouping, n int) {
	t.Helper()
	byPart := map[int][]core.UserGrouping{}
	for _, g := range gs {
		p := PartitionOf(twitter.UserID(g.UserID), n)
		byPart[p] = append(byPart[p], g)
	}
	sums := e.PartitionSummaries(n)
	if len(sums) != len(byPart) {
		t.Fatalf("n=%d: %d partition summaries, %d partitions hold users", n, len(sums), len(byPart))
	}
	var merged core.Summary
	for p, s := range sums {
		if p < 0 || p >= n {
			t.Fatalf("n=%d: summary for partition %d", n, p)
		}
		if got, want := mustJSON(t, s.Analysis()), mustJSON(t, core.Analyze(byPart[p])); !bytes.Equal(got, want) {
			t.Fatalf("n=%d partition %d:\n got %s\nwant %s", n, p, got, want)
		}
		merged.Merge(s)
	}
	if got, want := mustJSON(t, merged.Analysis()), mustJSON(t, e.Analysis()); !bytes.Equal(got, want) {
		t.Fatalf("n=%d: merged partitions\n got %s\nwant %s", n, got, want)
	}
}
