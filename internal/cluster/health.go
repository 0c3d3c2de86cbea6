package cluster

import (
	"context"
	"sort"
	"sync"
	"time"

	"stir/internal/storage"
)

// Self-healing membership: the router probes every member's
// /cluster/v1/hello on a fixed heartbeat and drives one per-worker state —
// Alive, Degraded, Suspect, Down — off the probe results and the silence
// since the last successful probe. A failed forward enters Suspect at once.
// Suspect invokes the journal-defer path (the worker's share of the stream
// journals instead of burning forward retries, and reads skip it without a
// network call); Down optionally invokes the crash-recovery path
// automatically (RemoveCrashed — re-shard from the corpse's checkpoint store
// plus journal replay). A probe that succeeds against a Suspect/Down member
// triggers the rejoin path on its own: epoch bump, then journal replay past
// the worker's durable cursor and Alive, or Degraded with no replay while
// the hello reports a full store.
//
// Every timing decision flows through the Clock seam, so the unit tests
// drive transitions by advancing a ManualClock and calling HealthTick —
// no wall-time sleeps, everything seeded and deterministic.

// Failure-detector defaults.
const (
	DefaultHeartbeat    = 2 * time.Second
	DefaultSuspectAfter = 6 * time.Second
	DefaultDownAfter    = 30 * time.Second
)

// Clock is the failure detector's time source. Production uses the wall
// clock; tests inject a ManualClock and advance it explicitly.
type Clock interface {
	Now() time.Time
}

// wallClock is the production Clock.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// ManualClock is a Clock tests advance by hand, making every detector
// transition a pure function of (probe results, advances) — no sleeps.
type ManualClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewManualClock starts a manual clock at t0.
func NewManualClock(t0 time.Time) *ManualClock { return &ManualClock{t: t0} }

// Now implements Clock.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// HealthState is one worker's detector state.
type HealthState int32

// The worker states. Alive workers take forwards and reads; degraded ones
// (a disk-degraded checkpoint store) take reads while their forwards defer
// to the journal; suspect and down ones take neither. The values are the
// stir_cluster_health_state gauge's.
const (
	HealthAlive HealthState = iota
	HealthSuspect
	HealthDown
	HealthDegraded
)

// String names the state for logs, metrics labels and the members view.
func (s HealthState) String() string {
	switch s {
	case HealthAlive:
		return "alive"
	case HealthSuspect:
		return "suspect"
	case HealthDown:
		return "down"
	case HealthDegraded:
		return "degraded"
	default:
		return "unknown"
	}
}

// serving reports whether a worker in state s answers reads and handoffs.
func (s HealthState) serving() bool { return s == HealthAlive || s == HealthDegraded }

// health is one worker's detector record, embedded in workerRef and guarded
// by the ref's mu.
type health struct {
	state   HealthState
	lastOK  time.Time // last successful hello (or join or rejoin time)
	lastErr string    // most recent probe failure, "" after success
}

// state reads the worker's health state.
func (w *workerRef) state() HealthState {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.health.state
}

// RunHealth drives HealthTick on the configured heartbeat until ctx ends.
// Run it in a goroutine next to the router's server; it owns its ticker and
// leaks nothing after ctx cancels (pinned by the goroutine-leak guard).
func (r *Router) RunHealth(ctx context.Context) {
	t := time.NewTicker(r.opts.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.HealthTick(ctx)
		}
	}
}

// HealthTick runs one synchronous failure-detector pass: probe every member
// in name order, refresh contact times, and apply state transitions. It is
// the unit RunHealth loops on and the seam deterministic tests call
// directly. Safe to call concurrently with ingest and scatter.
func (r *Router) HealthTick(ctx context.Context) {
	now := r.opts.Clock.Now()
	r.mu.RLock()
	names := make([]string, 0, len(r.workers))
	for n := range r.workers {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	for _, name := range names {
		r.mu.RLock()
		w := r.workers[name]
		r.mu.RUnlock()
		if w == nil {
			continue // removed since the snapshot (failover, leave)
		}
		h, err := r.hello(ctx, w.baseURL())
		if err == nil {
			r.reg.Counter("stir_cluster_health_probes_total", "worker", name, "result", "ok").Inc()
			r.probeOK(ctx, w, h, now)
		} else {
			r.reg.Counter("stir_cluster_health_probes_total", "worker", name, "result", "fail").Inc()
			r.probeFailed(ctx, w, err, now)
		}
	}
}

// probeOK refreshes the contact time and moves the worker by its state and
// what the hello says about its checkpoint store:
//
//	alive, store full:        degraded (reads stay, forwards defer)
//	degraded, store full:     fail over if the journal is evicting
//	degraded, store healthy:  heal (checkpoint, replay the tail, alive)
//	suspect or down:          rejoin (replay, alive; or degraded, no replay)
func (r *Router) probeOK(ctx context.Context, w *workerRef, h helloResponse, now time.Time) {
	w.mu.Lock()
	w.health.lastOK = now
	w.health.lastErr = ""
	state := w.health.state
	w.mu.Unlock()
	switch state {
	case HealthAlive:
		if h.Degraded {
			r.setHealth(ctx, w, HealthDegraded)
		}
	case HealthDegraded:
		if h.Degraded {
			r.failoverIfEvicting(ctx, w)
		} else {
			r.healDegraded(ctx, w)
		}
	default:
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.workers[w.name] != w {
			return // replaced or removed while we probed
		}
		if err := r.rejoinLocked(ctx, w, w.baseURL(), h); err != nil {
			r.log.Warn(ctx, "auto-rejoin failed", "worker", w.name, "state", state.String(), "err", err)
		}
	}
}

// failoverIfEvicting fails a degraded worker over once its journal evicts
// while degraded: deferred writes are being lost, and re-sharding onto
// workers with disk headroom loses less than waiting. While the journal
// holds everything the router waits for the disk to heal.
func (r *Router) failoverIfEvicting(ctx context.Context, w *workerRef) {
	w.jMu.Lock()
	evicted := w.evicted
	evicting := evicted > w.evictSeen
	w.evictSeen = evicted
	w.jMu.Unlock()
	if evicting && r.opts.AutoFailover {
		r.log.Warn(ctx, "degraded worker's journal is evicting: auto-failover",
			"worker", w.name, "evicted", evicted)
		r.autoFailover(ctx, w.name)
	}
}

// healDegraded brings a disk-degraded worker whose store healed back to
// alive. It first asks the worker for a checkpoint: only a committed
// checkpoint clears a stalled engine's dirty window, and until then the
// worker refuses forwards. The journal is trimmed to the checkpoint's cursor
// and the tail past it replayed. The forward lock is held across the tail
// snapshot, the replay and the transition — concurrent ingests journal
// under the same lock, so no chunk can slip between the snapshot and the
// first live forward. A failed checkpoint or replay leaves the worker
// degraded; the next probe retries.
func (r *Router) healDegraded(ctx context.Context, w *workerRef) {
	w.fwdMu.Lock()
	defer w.fwdMu.Unlock()
	durable, err := r.checkpointWorker(ctx, w)
	if err != nil {
		r.log.Warn(ctx, "disk-heal checkpoint failed (worker stays write-deferred)",
			"worker", w.name, "err", err)
		return
	}
	replayed, err := r.replayTail(ctx, w, w.journalTail(durable))
	if err != nil {
		r.log.Warn(ctx, "disk-heal replay failed (worker stays write-deferred)",
			"worker", w.name, "replayed", replayed, "err", err)
		return
	}
	r.setHealth(ctx, w, HealthAlive)
	r.reg.Counter("stir_cluster_replayed_total", "worker", w.name).Add(int64(replayed))
}

// probeFailed records the failure and escalates to Suspect and then Down as
// the silence since the last successful probe or rejoin crosses the
// thresholds. A Down member with auto-failover enabled is removed through
// the crash-recovery path (retried on every tick until it succeeds or the
// worker answers again).
func (r *Router) probeFailed(ctx context.Context, w *workerRef, err error, now time.Time) {
	w.mu.Lock()
	w.health.lastErr = err.Error()
	silence := now.Sub(w.health.lastOK)
	w.mu.Unlock()
	switch {
	case silence >= r.opts.DownAfter:
		r.setHealth(ctx, w, HealthDown)
		if r.opts.AutoFailover {
			r.autoFailover(ctx, w.name)
		}
	case silence >= r.opts.SuspectAfter:
		r.setHealth(ctx, w, HealthSuspect)
	}
}

// setHealth moves w to state to and counts and logs the transition. Suspect
// is entered only from a serving state, so a late forward failure never
// demotes a Down worker. Entering degraded baselines the journal's eviction
// count (only entries lost while degraded argue for failover); leaving it
// for alive counts a heal. It never takes r.mu: a forward that fails during
// a removal's tail replay, which runs under r.mu, lands here.
func (r *Router) setHealth(ctx context.Context, w *workerRef, to HealthState) {
	w.mu.Lock()
	from := w.health.state
	if from == to || (to == HealthSuspect && !from.serving()) {
		w.mu.Unlock()
		return
	}
	w.health.state = to
	lastErr := w.health.lastErr
	w.mu.Unlock()
	switch {
	case to == HealthDegraded:
		r.reg.Counter("stir_cluster_degraded_total", "worker", w.name).Inc()
		w.jMu.Lock()
		w.evictSeen = w.evicted
		w.jMu.Unlock()
	case from == HealthDegraded && to == HealthAlive:
		r.reg.Counter("stir_cluster_degraded_healed_total", "worker", w.name).Inc()
	}
	r.reg.Counter("stir_cluster_health_transitions_total", "worker", w.name, "to", to.String()).Inc()
	r.log.Info(ctx, "worker health transition",
		"worker", w.name, "from", from.String(), "to", to.String(),
		"epoch", r.epoch.Load(), "last_err", lastErr)
}

// autoFailover runs the Down → RemoveCrashed path: recover the corpse's
// users from its checkpoint store when the Checkpoint seam can open one
// (shared-storage deployments), or from journal replay alone when it
// cannot. Failure leaves the worker Down and journaling; the next tick
// retries.
func (r *Router) autoFailover(ctx context.Context, name string) {
	var ckpt *storage.Store
	if r.opts.Checkpoint != nil {
		st, err := r.opts.Checkpoint(name)
		if err != nil {
			r.log.Warn(ctx, "auto-failover: checkpoint store unrecoverable, journal-only recovery",
				"worker", name, "err", err)
		} else {
			ckpt = st
		}
	}
	if ckpt != nil {
		defer ckpt.Close()
	}
	if err := r.RemoveCrashed(ctx, name, ckpt); err != nil {
		r.reg.Counter("stir_cluster_health_failovers_total", "worker", name, "result", "error").Inc()
		r.log.Warn(ctx, "auto-failover failed (will retry next tick)", "worker", name, "err", err)
		return
	}
	r.reg.Counter("stir_cluster_health_failovers_total", "worker", name, "result", "ok").Inc()
}

// membersSummaryLocked renders membership as "w1=alive w2=suspect …" for
// epoch log lines. Callers hold r.mu.
func (r *Router) membersSummaryLocked() string {
	names := r.ring.Workers()
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " "
		}
		w := r.workers[n]
		if w == nil {
			out += n + "=?"
			continue
		}
		out += n + "=" + w.state().String()
	}
	return out
}
