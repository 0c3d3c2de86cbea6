package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"stir/internal/obs"
	"stir/internal/resilience/fault"
	"stir/internal/storage/vfs"
)

// Power-cut chaos suite: run a deterministic workload over the fault
// filesystem, crash it at EVERY mutation boundary (every write, sync,
// directory sync, create, rename, remove — including the ones inside
// segment rolls and compactions), reboot, reopen, and check the store
// against a durability model:
//
//   - an acknowledged-synced write is never lost: if no operation touched a
//     key since its last successful Sync/Compact, the key must read back
//     exactly;
//   - an unacknowledged operation may survive whole, or not at all — the
//     observed value must be one of the attempted outcomes or the last
//     acked state, never an invention;
//   - after reopen the log verifies clean (running Repair first when the
//     reboot's torn writes left bit-flipped ranges mid-segment);
//   - the reopened store accepts and serves new writes.

// crashOutcome is the observable state of one key: present with a value, or
// absent.
type crashOutcome struct {
	present bool
	val     string
}

// crashModel tracks, per key, the last acked-durable outcome and every
// outcome attempted since — the allowed post-crash states.
type crashModel struct {
	base     map[string]crashOutcome   // durable as of the last acked Sync/Compact
	applied  map[string]crashOutcome   // state if every attempted op survived
	pending  map[string][]crashOutcome // attempted since the last ack, oldest first
	universe map[string]bool
}

func newCrashModel() *crashModel {
	return &crashModel{
		base:     map[string]crashOutcome{},
		applied:  map[string]crashOutcome{},
		pending:  map[string][]crashOutcome{},
		universe: map[string]bool{},
	}
}

// attempt records an atomic group (single op or whole batch) about to be
// executed. It is called BEFORE the store call: a torn write may persist the
// record even though the call returns an error.
func (m *crashModel) attempt(group map[string]crashOutcome) {
	for k, o := range group {
		m.applied[k] = o
		m.pending[k] = append(m.pending[k], o)
		m.universe[k] = true
	}
}

// acked marks every attempted op durable: a Sync or Compact returned success.
func (m *crashModel) acked() {
	for k, o := range m.applied {
		m.base[k] = o
	}
	m.pending = map[string][]crashOutcome{}
}

// allows reports whether got is an acceptable post-crash state for key k.
func (m *crashModel) allows(k string, got crashOutcome) bool {
	base, ok := m.base[k]
	if !ok {
		base = crashOutcome{}
	}
	if got == base {
		return true
	}
	for _, o := range m.pending[k] {
		if got == o {
			return true
		}
	}
	return false
}

const (
	crashOps     = 1100 // store operations per workload run
	crashSegSize = 2048 // small segments force rolls mid-run
)

// runCrashWorkload drives a deterministic mixed workload (puts, deletes,
// batches, explicit syncs, compactions at fixed indices) against s, keeping
// the model in step. It stops at the first error.
func runCrashWorkload(s *Store, m *crashModel, seed int64) error {
	r := rand.New(rand.NewSource(seed))
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
	}
	val := func(i int) string {
		return fmt.Sprintf("v%d-%d%s", i, r.Intn(1000), strings.Repeat("x", r.Intn(24)))
	}
	for i := 1; i <= crashOps; i++ {
		if i%333 == 0 {
			// A successful compaction rewrites and fsyncs the whole live
			// state: everything attempted so far becomes durable.
			if err := s.Compact(); err != nil {
				return err
			}
			m.acked()
			continue
		}
		switch p := r.Intn(100); {
		case p < 55:
			k := keys[r.Intn(len(keys))]
			v := val(i)
			m.attempt(map[string]crashOutcome{k: {present: true, val: v}})
			if err := s.Put(k, []byte(v)); err != nil {
				return err
			}
		case p < 65:
			k := keys[r.Intn(len(keys))]
			m.attempt(map[string]crashOutcome{k: {}})
			if err := s.Delete(k); err != nil {
				return err
			}
		case p < 85:
			b := s.NewBatch()
			group := map[string]crashOutcome{}
			for j, n := 0, 2+r.Intn(4); j < n; j++ {
				k := keys[r.Intn(len(keys))]
				if r.Intn(5) == 0 {
					b.Delete(k)
					group[k] = crashOutcome{}
				} else {
					v := val(i)
					b.Put(k, []byte(v))
					group[k] = crashOutcome{present: true, val: v}
				}
			}
			m.attempt(group)
			if err := b.Commit(); err != nil {
				return err
			}
		default:
			if err := s.Sync(); err != nil {
				return err
			}
			m.acked()
		}
	}
	if err := s.Sync(); err != nil {
		return err
	}
	m.acked()
	return nil
}

// getOutcome reads key k as a crashOutcome.
func getOutcome(t *testing.T, s *Store, k string) crashOutcome {
	t.Helper()
	v, err := s.Get(k)
	if err == nil {
		return crashOutcome{present: true, val: string(v)}
	}
	if errors.Is(err, ErrKeyNotFound) {
		return crashOutcome{}
	}
	t.Fatalf("Get(%s): %v", k, err)
	return crashOutcome{}
}

// TestPowerCutAtEveryBoundary is the capstone: one fault-free pass counts
// the workload's mutation boundaries and pins the exact final state, then
// the workload is re-run once per boundary with the power cut scheduled
// there, rebooted, reopened and verified against the model.
func TestPowerCutAtEveryBoundary(t *testing.T) {
	seed := fault.SeedFromEnv(2026)
	const dir = "store"
	opts := func(fsys vfs.FS, reg *obs.Registry) Options {
		return Options{FS: fsys, MaxSegmentBytes: crashSegSize, Metrics: reg}
	}

	// Pass 1: no crash. Count boundaries, require the workload shape the
	// suite is advertised to cover, and pin the exact no-fault end state.
	flt := vfs.NewFault(vfs.FaultConfig{Seed: seed})
	reg := obs.NewRegistry()
	s, err := Open(dir, opts(flt, reg))
	if err != nil {
		t.Fatal(err)
	}
	model := newCrashModel()
	if err := runCrashWorkload(s, model, seed); err != nil {
		t.Fatalf("fault-free workload failed: %v", err)
	}
	if got := reg.Counter("storage_compactions_total").Value(); got < 3 {
		t.Fatalf("workload ran %d compactions, want >= 3", got)
	}
	for k := range model.universe {
		if got := getOutcome(t, s, k); got != model.applied[k] {
			t.Fatalf("fault-free end state: %s = %+v, want %+v", k, got, model.applied[k])
		}
	}
	total := flt.Boundaries() // before Close: its sync boundaries are not replayed
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if total < crashOps {
		t.Fatalf("only %d boundaries for %d ops — fault FS not counting?", total, crashOps)
	}
	t.Logf("seed %d: %d ops -> %d crash boundaries", seed, crashOps, total)

	// Pass 2: crash at every boundary.
	var crashedDuringOpen, repairs, salvagedTotal int
	for k := int64(1); k <= total; k++ {
		flt := vfs.NewFault(vfs.FaultConfig{Seed: seed, CrashAt: k})
		m := newCrashModel()
		s, err := Open(dir, opts(flt, obs.Discard))
		if err != nil {
			if !errors.Is(err, vfs.ErrPowerCut) {
				t.Fatalf("boundary %d: open: %v", k, err)
			}
			crashedDuringOpen++
		} else {
			werr := runCrashWorkload(s, m, seed)
			if werr == nil {
				t.Fatalf("boundary %d: workload finished without hitting the cut", k)
			}
			if !errors.Is(werr, vfs.ErrPowerCut) {
				t.Fatalf("boundary %d: workload died of the wrong error: %v", k, werr)
			}
		}

		// Reboot: torn writes land, volatile namespace changes roll back.
		flt.Restart()
		s2, err := Open(dir, opts(flt, obs.Discard))
		if err != nil {
			t.Fatalf("boundary %d: reopen after crash: %v", k, err)
		}
		rep := s2.ScrubReport()
		salvagedTotal += rep.Salvaged

		// Durability: every key must be in its allowed post-crash state.
		for key := range m.universe {
			if got := getOutcome(t, s2, key); !m.allows(key, got) {
				t.Fatalf("boundary %d: key %s = %+v, allowed base=%+v pending=%+v (open report %s)",
					k, key, got, m.base[key], m.pending[key], rep.String())
			}
		}
		// No phantom keys.
		for _, key := range s2.Keys() {
			if !m.universe[key] {
				t.Fatalf("boundary %d: phantom key %q after reopen", k, key)
			}
		}
		// The log must verify clean — after quarantining any bit-flipped
		// ranges the reboot's torn writes left mid-segment.
		if !rep.Clean() {
			rrep, err := s2.Repair()
			if err != nil {
				t.Fatalf("boundary %d: repair: %v", k, err)
			}
			if rrep.QuarantinedRanges == 0 {
				t.Fatalf("boundary %d: dirty report %s but repair quarantined nothing", k, rep.String())
			}
			repairs++
			for key := range m.universe {
				if got := getOutcome(t, s2, key); !m.allows(key, got) {
					t.Fatalf("boundary %d: key %s = %+v invalid after repair", k, key, got)
				}
			}
		}
		scan, err := s2.Scrub()
		if err != nil {
			t.Fatalf("boundary %d: scrub: %v", k, err)
		}
		if !scan.Clean() {
			t.Fatalf("boundary %d: log dirty after reopen+repair: %s", k, scan.String())
		}
		// The survivor is a working store.
		if err := s2.Put("post-crash-probe", []byte("alive")); err != nil {
			t.Fatalf("boundary %d: post-crash put: %v", k, err)
		}
		if err := s2.Sync(); err != nil {
			t.Fatalf("boundary %d: post-crash sync: %v", k, err)
		}
		if v, err := s2.Get("post-crash-probe"); err != nil || string(v) != "alive" {
			t.Fatalf("boundary %d: post-crash get: %q, %v", k, v, err)
		}
		if err := s2.Close(); err != nil {
			t.Fatalf("boundary %d: close: %v", k, err)
		}
	}
	t.Logf("crashed at %d boundaries (%d during open), %d records salvaged, %d repairs",
		total, crashedDuringOpen, salvagedTotal, repairs)
}

// TestPowerCutWithLyingFsync re-runs a slice of the workload with every
// sync silently dropped. Durability guarantees are off the table — the
// drive is lying — but reopen must still never fail and the log must still
// parse to a usable store.
func TestPowerCutWithLyingFsync(t *testing.T) {
	seed := fault.SeedFromEnv(2026)
	const dir = "store"
	for _, crashAt := range []int64{25, 100, 400} {
		flt := vfs.NewFault(vfs.FaultConfig{Seed: seed, CrashAt: crashAt, DropSyncRate: 1})
		m := newCrashModel()
		s, err := Open(dir, Options{FS: flt, MaxSegmentBytes: crashSegSize, Metrics: obs.Discard})
		if err == nil {
			if werr := runCrashWorkload(s, m, seed); werr != nil && !errors.Is(werr, vfs.ErrPowerCut) {
				t.Fatalf("crashAt %d: %v", crashAt, werr)
			}
		} else if !errors.Is(err, vfs.ErrPowerCut) {
			t.Fatal(err)
		}
		flt.Restart()
		s2, err := Open(dir, Options{FS: flt, MaxSegmentBytes: crashSegSize, Metrics: obs.Discard})
		if err != nil {
			t.Fatalf("crashAt %d: reopen with lying fsync: %v", crashAt, err)
		}
		if flt.DroppedSyncs() == 0 && crashAt > 25 {
			t.Fatalf("crashAt %d: no syncs dropped — rate not applied?", crashAt)
		}
		if err := s2.Put("probe", []byte("ok")); err != nil {
			t.Fatalf("crashAt %d: probe: %v", crashAt, err)
		}
		s2.Close()
	}
}
