package stream

import (
	"testing"

	"stir/internal/leaktest"
	"stir/internal/obs"
	"stir/internal/storage"
	"stir/internal/storage/vfs"
)

// Disk-pressure behaviour (DESIGN.md §16): a checkpoint that cannot commit
// on a full disk is deferred — counted, cursor not advanced, dirty set
// restored — ingest keeps running memory-only up to the dirty-user window,
// then sheds, and the whole pipeline heals once space returns.
func TestCheckpointDefersOnDiskFullAndHeals(t *testing.T) {
	leaktest.Check(t)
	reg := obs.NewRegistry()
	flt := vfs.NewFault(vfs.FaultConfig{Seed: 9})
	store, err := storage.Open("ckpt", storage.Options{FS: flt, Metrics: obs.Discard})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	eng, _ := plainEngine(t, func(c *Config) {
		c.Store = store
		c.Metrics = reg
		c.MaxDirtyUsers = 2 // tiny memory-only window so the test can exhaust it
		c.DropWhenFull = true
	})

	// Two users dirty — exactly the window — and a cursor to (not) advance.
	if !eng.Ingest(geoTweet(1, 10, 1)) || !eng.Ingest(geoTweet(2, 20, 1)) {
		t.Fatal("ingest refused on a healthy engine")
	}
	eng.Drain()
	if got := eng.DirtyUsers(); got != 2 {
		t.Fatalf("DirtyUsers = %d, want 2", got)
	}
	eng.SetCursor("pos-1")

	flt.Mem().SetCapacity(1) // device full: nothing more allocates
	if err := eng.Checkpoint(); !vfs.IsNoSpace(err) {
		t.Fatalf("checkpoint on full disk: err = %v, want ErrNoSpace", err)
	}
	if m, _ := reg.Snapshot().Get("stream_checkpoint_deferred_total"); m.Kind != obs.KindCounter || m.Value != 1 {
		t.Fatalf("stream_checkpoint_deferred_total = %+v, want a counter at 1", m)
	}
	if got := eng.Stats().CheckpointsDeferred; got != 1 {
		t.Fatalf("Stats().CheckpointsDeferred = %d, want 1", got)
	}
	if got := eng.DurableCursor(); got != "" {
		t.Fatalf("deferred checkpoint advanced the cursor to %q", got)
	}
	if got := eng.DirtyUsers(); got != 2 {
		t.Fatalf("deferred checkpoint must restore the dirty set, got %d", got)
	}
	if !eng.Degraded() {
		t.Fatal("engine must report the store's disk degradation")
	}

	// Window exhausted: the stalled gate sheds (DropWhenFull) and counts it.
	if !eng.CheckpointStalled() {
		t.Fatal("CheckpointStalled must arm once deferrals meet a full window")
	}
	if eng.Ingest(geoTweet(3, 30, 1)) {
		t.Fatal("ingest accepted past the dirty-user window on a full disk")
	}
	if got := reg.Counter("stream_ingest_backpressure_total").Value(); got < 1 {
		t.Fatalf("stream_ingest_backpressure_total = %v, want >= 1", got)
	}

	// A retry on the still-full disk is one more deferral, not a crash.
	if err := eng.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded on a full disk")
	}
	if got := eng.Stats().CheckpointsDeferred; got != 2 {
		t.Fatalf("CheckpointsDeferred = %d, want 2", got)
	}

	// Space returns: recover the store, and the next checkpoint lands,
	// advances the cursor and reopens the ingest gate.
	flt.Mem().SetCapacity(0)
	if err := store.TryRecover(); err != nil {
		t.Fatalf("TryRecover after space freed: %v", err)
	}
	if eng.Degraded() {
		t.Fatal("engine still degraded after store recovery")
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after heal: %v", err)
	}
	if eng.CheckpointStalled() {
		t.Fatal("stalled flag survived a successful checkpoint")
	}
	if got := eng.DurableCursor(); got != "pos-1" {
		t.Fatalf("DurableCursor = %q, want pos-1", got)
	}
	if got := eng.DirtyUsers(); got != 0 {
		t.Fatalf("DirtyUsers = %d after checkpoint, want 0", got)
	}
	if !eng.Ingest(geoTweet(4, 40, 1)) {
		t.Fatal("ingest refused after heal")
	}
	eng.Drain()
	if got := eng.Stats().DiskDegraded; got {
		t.Fatal("Stats().DiskDegraded true after heal")
	}
}

// TestStageSecondsOncePerRun checks that one Checkpoint and one Snapshot each
// add exactly one observation to stir_stage_seconds, and that the checkpoint
// also lands once in stream_checkpoint_seconds.
func TestStageSecondsOncePerRun(t *testing.T) {
	reg := obs.NewRegistry()
	store, err := storage.Open("ckpt", storage.Options{FS: vfs.NewMem(1), Metrics: obs.Discard})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	eng, _ := plainEngine(t, func(c *Config) {
		c.Store = store
		c.Metrics = reg
	})
	eng.Ingest(geoTweet(1, 10, 1))
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	eng.Snapshot()

	snap := reg.Snapshot()
	for _, stage := range []string{"stream_checkpoint", "stream_snapshot"} {
		if m, ok := snap.Get(obs.StageHistogram, "stage", stage); !ok || m.Count != 1 {
			t.Errorf("%s{stage=%q}: %d observations (ok=%v), want 1", obs.StageHistogram, stage, m.Count, ok)
		}
	}
	if m, ok := snap.Get("stream_checkpoint_seconds"); !ok || m.Count != 1 {
		t.Errorf("stream_checkpoint_seconds: %d observations (ok=%v), want 1", m.Count, ok)
	}
}

// TestAnalysisObservesSnapshotStage checks that the summary cut /v1/groups
// reads is timed once per call into the stream_snapshot stage, the stage
// the query path is measured by.
func TestAnalysisObservesSnapshotStage(t *testing.T) {
	reg := obs.NewRegistry()
	eng, _ := plainEngine(t, func(c *Config) { c.Metrics = reg })
	eng.Ingest(geoTweet(1, 10, 1))
	eng.Drain()
	for i := 0; i < 3; i++ {
		eng.Analysis()
	}
	if m, ok := reg.Snapshot().Get(obs.StageHistogram, "stage", "stream_snapshot"); !ok || m.Count != 3 {
		t.Fatalf("%s{stage=\"stream_snapshot\"}: %d observations (ok=%v), want 3", obs.StageHistogram, m.Count, ok)
	}
}
