// Package stream is STIR's live-ingestion subsystem: it consumes the
// Streaming API (the access path of the paper's worldwide "Lady Gaga"
// dataset, §IV) and keeps the §III grouping analysis continuously up to
// date. Tweets fan out to user-hash-sharded workers, each fed by a bounded
// swap queue: producers append under one mutex and wake the worker only
// when the queue turns non-empty, and the worker takes the whole pending
// batch in one lock round trip. The worker still takes its shard's state
// lock per tweet, so queries and checkpoints wait behind one tweet, never
// behind a batch. Each shard holds its users' incremental grouping state,
// so one tweet costs O(k) for a user with k distinct districts (a find and
// a short move in a slice kept in batch order) instead of a full
// re-analysis. The engine reconnects through a resilience policy with
// exponential backoff, checkpoints shard state atomically through
// internal/storage for crash-safe resume, publishes stream_* metrics via
// internal/obs, and answers live queries (per-group statistics, per-user
// group/rank/reliability-weight) over a small HTTP API.
//
// Correctness anchor: after draining any tweet sequence, Snapshot() and the
// partition summaries Analysis() merges are byte-for-byte equal to batch
// core.Analyze over the same tweets — the differential tests enforce this,
// including across checkpoint/resume and shard handoff.
package stream

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stir/internal/core"
	"stir/internal/geo"
	"stir/internal/geocode"
	"stir/internal/obs"
	"stir/internal/obs/trace"
	"stir/internal/resilience"
	"stir/internal/storage"
	"stir/internal/twitter"
)

// Defaults applied by New when Config leaves the fields zero.
const (
	DefaultShards = 4
	DefaultBuffer = 1024
	// DefaultMaxDirtyUsers bounds how many users may hold un-checkpointed
	// state while checkpoints are deferred on a full disk before Ingest
	// applies backpressure (see Config.MaxDirtyUsers).
	DefaultMaxDirtyUsers = 100_000
)

// ProfileFunc resolves a user's profile district: ok=false means the profile
// is not well-defined (the user is permanently filtered out, like the batch
// funnel's attrition); an error is transient and the user is retried on
// their next tweet.
type ProfileFunc func(ctx context.Context, id twitter.UserID) (core.Place, bool, error)

// Config configures an Engine.
type Config struct {
	// Shards is the worker count; tweets route by user-ID hash so one user's
	// ordering is preserved (default 4).
	Shards int
	// Buffer bounds each shard's queue: at most Buffer messages (tweets
	// and Drain barriers) wait in it (default 1024). The batch a worker has
	// taken and is applying is outside the bound, so a shard holds up to
	// 2×Buffer accepted tweets.
	Buffer int
	// DropWhenFull sheds load instead of blocking when a shard's queue is
	// full; drops are counted per shard. Default false: Ingest blocks, which
	// backpressures the stream reader.
	DropWhenFull bool
	// DedupByTweetID skips tweets whose ID is not above the user's last
	// applied ID — safe only when delivery replays in nondecreasing global
	// ID order (e.g. a replayed firehose after reconnect). Default off.
	DedupByTweetID bool
	// Profiles resolves profile districts (required).
	Profiles ProfileFunc
	// Resolver reverse-geocodes tweet GPS points (required).
	Resolver geocode.Resolver
	// Seed seeds the default reconnect policy's backoff jitter (default 1).
	Seed int64
	// Store, when set, enables Checkpoint/resume: New loads any existing
	// "stream/" state from it.
	Store *storage.Store
	// CheckpointEvery makes Run checkpoint on this period (requires Store).
	CheckpointEvery time.Duration
	// MaxDirtyUsers bounds the memory-only window while checkpoints are
	// deferred on a full disk: once this many users carry un-checkpointed
	// state, Ingest sheds (DropWhenFull) or blocks until a checkpoint
	// lands. 0 means DefaultMaxDirtyUsers; only meaningful with Store.
	MaxDirtyUsers int
	// Reconnect overrides Run's connect retry policy (backoff on stream
	// refusals). Nil builds a default policy.
	Reconnect *resilience.Policy
	// Metrics receives the stream_* series (nil means obs.Default;
	// obs.Discard disables).
	Metrics *obs.Registry
	// Trace, when set, opens a distributed root span per cold-user profile
	// resolution (the twitterd → geocoded leg) and per checkpoint. The hot
	// per-tweet path stays untraced — at firehose rates a span per tweet
	// would be all overhead and no signal. Nil disables.
	Trace *trace.Tracer
}

// Source is one streaming connection attempt: deliver tweets to fn until the
// stream ends (nil) or breaks (error). fn returning false stops the stream.
// *twitter.Client composes via ClientSource.
type Source interface {
	Stream(ctx context.Context, fn func(*twitter.Tweet) bool) error
}

// shard owns a partition of the user space. The worker goroutine is the only
// tweet processor; mu serialises it against snapshots and checkpoints.
type shard struct {
	id int
	q  *queue

	mu       sync.Mutex
	users    map[twitter.UserID]*userState
	rejected map[twitter.UserID]bool
	dirty    map[twitter.UserID]bool // changed since last checkpoint

	// led counts this session's outcomes, guarded by mu; its Dropped stays
	// zero. Ingest writes ingested and drops from outside the worker, so
	// those are atomic.
	led      Ledger
	ingested atomic.Int64
	drops    atomic.Int64

	// parts[p] is the §IV fold over the shard's grouped users in hash
	// partition p of len(parts) (PartitionOf), kept current per tweet:
	// queries, GroupCounts and the group gauges merge the parts instead of
	// materialising the users. There is one part until a partitioned read
	// (PartitionSummaries) asks for more.
	parts []core.Summary
}

// ledger is the shard's session account, its drops included. Callers hold
// sh.mu.
func (sh *shard) ledger() Ledger {
	l := sh.led
	l.Dropped = sh.drops.Load()
	return l
}

// retally moves user id's term in the summary of the user's partition: old
// comes out (the zero term when the user had none), cur goes in (the zero
// term when the user is gone). Callers hold sh.mu.
func (sh *shard) retally(id twitter.UserID, old, cur core.UserTerm) {
	s := &sh.parts[PartitionOf(id, len(sh.parts))]
	s.Remove(old)
	s.Add(cur)
}

// repartition re-buckets the shard's users into n partition summaries. It
// costs O(users on the shard) when n changes and nothing otherwise. Callers
// hold sh.mu.
func (sh *shard) repartition(n int) {
	if len(sh.parts) == n {
		return
	}
	sh.parts = make([]core.Summary, n)
	for id, st := range sh.users {
		sh.retally(id, core.UserTerm{}, st.term())
	}
}

// Engine is the live ingestion engine. All methods are safe for concurrent
// use; Close stops the workers (Ingest afterwards refuses).
type Engine struct {
	cfg    Config
	reg    *obs.Registry
	shards []*shard

	ctx    context.Context // bounds resolver/profile calls; dies at Close
	cancel context.CancelFunc
	done   chan struct{}
	wg     sync.WaitGroup
	closed sync.Once

	ckptMu sync.Mutex

	// cursor is an opaque source position a feeder (the cluster router)
	// stamps after handing the engine a batch; it rides the checkpoint so a
	// resumed engine can tell its feeder where to replay from.
	curMu         sync.Mutex
	cursor        string
	durableCursor string

	// Connection-level counters (Run).
	reconnects  atomic.Int64
	disconnects atomic.Int64
	connectFail atomic.Int64
	checkpoints atomic.Int64

	// Disk-pressure state: ckptStalled is set while checkpoints are being
	// deferred on ErrNoSpace/ErrReadOnly and cleared by the next one that
	// commits; deferrals counts the skips ("checkpoint skipped, cursor not
	// advanced" — the replay window a crash right now would cost).
	ckptStalled atomic.Bool
	deferrals   atomic.Int64

	// The outcomes restored from a checkpoint, folded into Stats and the
	// next checkpoint.
	restored Ledger

	mProfileRejected *obs.Counter
	mBackpressure    *obs.Counter
	mSnapshotStage   *obs.Histogram
	mCheckpointStage *obs.Histogram
}

// New builds an engine, loads any checkpoint present in cfg.Store, registers
// its gauges and starts the shard workers.
func New(cfg Config) (*Engine, error) {
	if cfg.Profiles == nil || cfg.Resolver == nil {
		return nil, errors.New("stream: Config.Profiles and Config.Resolver are required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = DefaultBuffer
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	reg := obs.Or(cfg.Metrics)
	e := &Engine{
		cfg:  cfg,
		reg:  reg,
		done: make(chan struct{}),
		// Push counters with no Stats field behind them, resolved once so
		// the per-tweet path makes no registry call.
		mProfileRejected: reg.Counter("stream_profile_rejected_total"),
		mBackpressure:    reg.Counter("stream_ingest_backpressure_total"),
		// One stir_stage_seconds observation per Snapshot and Checkpoint.
		mSnapshotStage:   reg.Histogram(obs.StageHistogram, obs.DefBuckets, "stage", "stream_snapshot"),
		mCheckpointStage: reg.Histogram(obs.StageHistogram, obs.DefBuckets, "stage", "stream_checkpoint"),
	}
	e.ctx, e.cancel = context.WithCancel(context.Background())
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		e.shards[i] = &shard{
			id:       i,
			q:        newQueue(cfg.Buffer),
			users:    make(map[twitter.UserID]*userState),
			rejected: make(map[twitter.UserID]bool),
			dirty:    make(map[twitter.UserID]bool),
			parts:    make([]core.Summary, 1),
		}
	}
	if cfg.Store != nil {
		if err := e.loadCheckpoint(); err != nil {
			return nil, err
		}
	}
	e.registerGauges()
	for _, sh := range e.shards {
		e.wg.Add(1)
		go e.worker(sh)
	}
	return e, nil
}

// ledgerSeries are the stream_*_total series read from the shards'
// ledgers: this session's tweets, checkpoint-restored totals excluded.
var ledgerSeries = []struct {
	name    string
	outcome func(Ledger) int64
}{
	{"stream_processed_total", func(l Ledger) int64 { return l.Processed }},
	{"stream_nongeo_total", func(l Ledger) int64 { return l.NonGeo }},
	{"stream_geocode_failures_total", func(l Ledger) int64 { return l.GeocodeFailures }},
	{"stream_profile_errors_total", func(l Ledger) int64 { return l.ProfileErrors }},
	{"stream_resolve_errors_total", func(l Ledger) int64 { return l.ResolveErrors }},
	{"stream_duplicates_total", func(l Ledger) int64 { return l.Duplicates }},
}

// registerGauges publishes pull-mode views of live state, of the shards'
// ledgers and of the connection and checkpoint counts behind Stats.
func (e *Engine) registerGauges() {
	for _, c := range []struct {
		name string
		n    *atomic.Int64
	}{
		{"stream_reconnects_total", &e.reconnects},
		{"stream_disconnects_total", &e.disconnects},
		{"stream_connect_failures_total", &e.connectFail},
		{"stream_checkpoints_total", &e.checkpoints},
		{"stream_checkpoint_deferred_total", &e.deferrals},
	} {
		n := c.n
		e.reg.CounterFunc(c.name, func() float64 { return float64(n.Load()) })
	}
	for _, ls := range ledgerSeries {
		outcome := ls.outcome
		e.reg.CounterFunc(ls.name, func() float64 {
			var l Ledger
			for _, sh := range e.shards {
				sh.mu.Lock()
				l.Add(sh.led)
				sh.mu.Unlock()
			}
			return float64(outcome(l))
		})
	}
	e.reg.GaugeFunc("stream_users", func() float64 {
		n := 0
		for _, sh := range e.shards {
			sh.mu.Lock()
			n += len(sh.users)
			sh.mu.Unlock()
		}
		return float64(n)
	})
	for _, g := range core.Groups() {
		g := g
		e.reg.GaugeFunc("stream_group_users", func() float64 {
			users, _ := e.GroupCounts()
			return float64(users[g])
		}, "group", g.String())
	}
	for _, sh := range e.shards {
		sh := sh
		lbl := strconv.Itoa(sh.id)
		e.reg.GaugeFunc("stream_queue_depth", func() float64 {
			return float64(sh.q.len())
		}, "shard", lbl)
		e.reg.CounterFunc("stream_ingested_total", func() float64 {
			return float64(sh.ingested.Load())
		}, "shard", lbl)
		e.reg.CounterFunc("stream_dropped_total", func() float64 {
			return float64(sh.drops.Load())
		}, "shard", lbl)
	}
}

// PartitionOf routes a user to one of n hash partitions: a mixed hash, so
// sequential IDs spread evenly. The engine's shards, its partition
// summaries and the cluster's partitions all route by it.
func PartitionOf(id twitter.UserID, n int) int {
	return int(splitmix64(uint64(id)) % uint64(n))
}

// shardOf routes a user to their shard.
func (e *Engine) shardOf(id twitter.UserID) *shard {
	return e.shards[PartitionOf(id, len(e.shards))]
}

// Ingest queues one tweet for processing and reports whether it was
// accepted. With DropWhenFull it never blocks: a full shard queue counts a
// drop. Otherwise it blocks — the backpressure that slows the stream
// reader down to processing speed — failing only when the engine closes.
// After Close it refuses every tweet.
func (e *Engine) Ingest(t *twitter.Tweet) bool {
	sh := e.shardOf(t.UserID)
	if e.CheckpointStalled() {
		// Checkpoints are deferred on a full disk and the memory-only
		// window is exhausted: shed (DropWhenFull) or hold the reader back
		// until a checkpoint lands and shrinks the dirty set.
		e.mBackpressure.Inc()
		if e.cfg.DropWhenFull {
			sh.drops.Add(1)
			return false
		}
		for e.CheckpointStalled() {
			select {
			case <-e.done:
				return false
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	switch sh.q.push(shardMsg{tweet: t}, !e.cfg.DropWhenFull) {
	case pushed:
		sh.ingested.Add(1)
		return true
	case pushFull:
		sh.drops.Add(1)
	}
	return false
}

// SetCursor records an opaque source position (e.g. the cluster router's
// forward sequence) covering every tweet ingested before the call. It is
// persisted with the next checkpoint, so after a crash the feeder replays
// from DurableCursor and DedupByTweetID makes the overlap idempotent.
func (e *Engine) SetCursor(c string) {
	e.curMu.Lock()
	e.cursor = c
	e.curMu.Unlock()
}

// Cursor returns the latest position stamped with SetCursor (volatile: it
// may be ahead of what any checkpoint holds).
func (e *Engine) Cursor() string {
	e.curMu.Lock()
	defer e.curMu.Unlock()
	return e.cursor
}

// DurableCursor returns the source position covered by the last committed
// checkpoint — the safe replay point after a crash. Empty means "replay
// everything".
func (e *Engine) DurableCursor() string {
	e.curMu.Lock()
	defer e.curMu.Unlock()
	return e.durableCursor
}

// Ingested reports how many tweets this session accepted into shard queues
// (checkpoint-restored totals are not included). Traffic drivers replaying
// into a best-effort firehose use it for flow control: the sample stream
// sheds when the subscriber lags, so a replay that outruns this counter is
// losing tweets upstream of the engine.
func (e *Engine) Ingested() int64 {
	var n int64
	for _, sh := range e.shards {
		n += sh.ingested.Load()
	}
	return n
}

// DirtyUsers counts users whose state changed since the last committed
// checkpoint — the replay window a crash right now would cost, and the
// quantity the MaxDirtyUsers backpressure window bounds.
func (e *Engine) DirtyUsers() int {
	n := 0
	for _, sh := range e.shards {
		sh.mu.Lock()
		n += len(sh.dirty)
		sh.mu.Unlock()
	}
	return n
}

// CheckpointStalled reports that checkpoints are being deferred on a full
// disk AND the dirty-user window is exhausted — the point where ingest must
// stop accepting writes it cannot make durable. A cluster worker refuses
// ingest (503) on this signal so the router defers to its journal.
func (e *Engine) CheckpointStalled() bool {
	if !e.ckptStalled.Load() {
		return false
	}
	max := e.cfg.MaxDirtyUsers
	if max <= 0 {
		max = DefaultMaxDirtyUsers
	}
	return e.DirtyUsers() >= max
}

// Degraded reports whether the checkpoint store is in read-only
// disk-degraded mode (always false without a store). Workers report it on
// hello; daemons flip readiness on it.
func (e *Engine) Degraded() bool {
	return e.cfg.Store != nil && e.cfg.Store.Degraded()
}

// noteDeferred accounts one skipped checkpoint: the cursor did not advance,
// and the stalled flag arms the dirty-user backpressure window.
func (e *Engine) noteDeferred() {
	e.ckptStalled.Store(true)
	e.deferrals.Add(1)
}

// worker applies its shard's queue in batches, in queue order, until the
// engine closes and every accepted message is applied.
func (e *Engine) worker(sh *shard) {
	defer e.wg.Done()
	batch := make([]shardMsg, 0, sh.q.limit)
	for {
		var ok bool
		if batch, ok = sh.q.take(batch); !ok {
			return
		}
		for _, m := range batch {
			if m.barrier != nil {
				close(m.barrier)
				continue
			}
			e.process(sh, m.tweet)
		}
	}
}

// process applies one tweet to its shard's state, mirroring the batch
// pipeline's per-user path: profile refinement gate, then tweet geocoding,
// then the incremental grouping update.
func (e *Engine) process(sh *shard, t *twitter.Tweet) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !t.HasGeo() {
		sh.led.NonGeo++
		return
	}
	if sh.rejected[t.UserID] {
		sh.led.RejectedTweets++
		return
	}
	st := sh.users[t.UserID]
	if st == nil {
		// Cold user: the profile leg fans out over HTTP (twitterd user lookup,
		// geocoded reverse for GPS-in-profile), so it gets a distributed root
		// span — the trace the acceptance run reassembles across daemons.
		pctx, sp := e.cfg.Trace.Root(e.ctx, "stream.profile")
		if sp != nil {
			sp.AnnotateInt("user", int64(t.UserID))
			sp.AnnotateInt("shard", int64(sh.id))
		}
		place, ok, err := e.cfg.Profiles(pctx, t.UserID)
		if err != nil {
			// Transient: leave the user unknown so their next tweet retries.
			sh.led.ProfileErrors++
			if sp != nil {
				sp.Annotate("outcome", "error")
				sp.Annotate("error", err.Error())
				sp.End()
			}
			return
		}
		if !ok {
			sh.rejected[t.UserID] = true
			sh.led.RejectedTweets++
			sh.dirty[t.UserID] = true
			e.mProfileRejected.Inc()
			sp.Annotate("outcome", "rejected")
			sp.End()
			return
		}
		sp.Annotate("outcome", "admitted")
		sp.End()
		st = newUserState(int64(t.UserID), place)
		sh.users[t.UserID] = st
	}
	if e.cfg.DedupByTweetID && int64(t.ID) <= st.lastID {
		sh.led.Duplicates++
		return
	}
	loc, err := e.cfg.Resolver.Reverse(e.ctx, geo.Point{Lat: t.Geo.Lat, Lon: t.Geo.Lon})
	if err != nil {
		if errors.Is(err, geocode.ErrNoMatch) {
			sh.led.GeocodeFailures++
		} else {
			sh.led.ResolveErrors++
		}
		return
	}
	old := st.term()
	st.observe(core.Place{State: loc.State, County: loc.County})
	st.lastID = int64(t.ID)
	sh.retally(t.UserID, old, st.term())
	sh.led.Processed++
	sh.dirty[t.UserID] = true
}

// Drain blocks until every tweet enqueued before the call has been
// processed: a barrier rides each shard's FIFO queue. A closed queue
// refuses the barrier and Drain does not wait on that shard: Close itself
// waits for every accepted tweet.
func (e *Engine) Drain() {
	barriers := make([]chan struct{}, 0, len(e.shards))
	for _, sh := range e.shards {
		b := make(chan struct{})
		if sh.q.push(shardMsg{barrier: b}, true) == pushed {
			barriers = append(barriers, b)
		}
	}
	for _, b := range barriers {
		<-b
	}
}

// Close refuses further tweets, lets the workers apply every tweet already
// accepted, stops them and releases the engine's context. The in-memory
// state stays readable (Snapshot, User).
func (e *Engine) Close() {
	e.closed.Do(func() {
		close(e.done)
		for _, sh := range e.shards {
			sh.q.close()
		}
		e.wg.Wait()
		e.cancel()
	})
}

// errEmptyStream marks a connection that ended without delivering anything —
// treated as a refusal so backoff engages.
var errEmptyStream = errors.New("stream: connection ended before delivering any tweet")

// Run consumes src until ctx dies, reconnecting forever: a connection that
// delivered tweets and then dropped reconnects immediately with fresh
// backoff, while consecutive refusals back off exponentially and eventually
// exhaust the policy (Run then returns the error).
// Returns nil when ctx is cancelled. With Store and CheckpointEvery set,
// state checkpoints on that period.
func (e *Engine) Run(ctx context.Context, src Source) error {
	pol := e.cfg.Reconnect
	if pol == nil {
		pol = &resilience.Policy{
			Name:        "stream_connect",
			MaxAttempts: 8,
			BaseDelay:   100 * time.Millisecond,
			MaxDelay:    10 * time.Second,
			Seed:        e.cfg.Seed,
			Metrics:     e.reg,
		}
	}
	if e.cfg.Store != nil && e.cfg.CheckpointEvery > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			t := time.NewTicker(e.cfg.CheckpointEvery)
			defer t.Stop()
			// Deferral backoff: a disk-full checkpoint failure skips the
			// next `backoff` ticks (doubling, capped) instead of hammering
			// a device that cannot accept writes. Each skipped attempt is
			// counted; the cursor holds still until one commits.
			skip, backoff := 0, 1
			for {
				select {
				case <-t.C:
					if skip > 0 {
						skip--
						continue
					}
					if e.cfg.Store.Degraded() {
						// A degraded store rejects every write; compaction
						// is the only way back, so try to reclaim space
						// before attempting the checkpoint.
						if err := e.cfg.Store.TryRecover(); err != nil {
							e.noteDeferred()
							skip = backoff
							if backoff < 8 {
								backoff *= 2
							}
							continue
						}
					}
					if err := e.Checkpoint(); err != nil {
						if isDiskFull(err) {
							// Checkpoint counted the deferral; here only
							// the pacing backs off.
							skip = backoff
							if backoff < 8 {
								backoff *= 2
							}
						} else {
							e.reg.Counter("stream_checkpoint_errors_total").Inc()
						}
						continue
					}
					backoff = 1
				case <-stop:
					return
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	for {
		if ctx.Err() != nil {
			return nil
		}
		err := pol.Do(ctx, func(ctx context.Context) error {
			delivered := false
			serr := src.Stream(ctx, func(t *twitter.Tweet) bool {
				delivered = true
				e.Ingest(t)
				return true
			})
			if ctx.Err() != nil {
				return nil
			}
			if delivered {
				// The connection worked; a drop after traffic reconnects
				// with fresh backoff rather than consuming attempts.
				e.disconnects.Add(1)
				return nil
			}
			if serr == nil {
				serr = resilience.MarkTransient(errEmptyStream)
			}
			e.connectFail.Add(1)
			return serr
		})
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("stream: connect: %w", err)
		}
		if ctx.Err() != nil {
			return nil
		}
		e.reconnects.Add(1)
	}
}

// ClientSource adapts *twitter.Client to Source.
type ClientSource struct {
	Client *twitter.Client
	// Track optionally filters the sample stream by substring.
	Track string
}

// Stream implements Source.
func (s *ClientSource) Stream(ctx context.Context, fn func(*twitter.Tweet) bool) error {
	return s.Client.Stream(ctx, s.Track, fn)
}

// Ledger is the engine's account of tweets, the stream side of the batch
// funnel. Once the engine drains, every tweet offered to Ingest is counted
// in exactly one outcome: Dropped (shed before a shard queue), or accepted
// and then Processed, NonGeo, GeocodeFailures, ProfileErrors,
// ResolveErrors, Duplicates or RejectedTweets (tweets of users profile
// refinement rejected, the rejecting tweet included). Shards, checkpoints,
// Stats and the cluster router's sums all keep this one type.
type Ledger struct {
	Processed       int64 `json:"processed"`
	NonGeo          int64 `json:"non_geo"`
	GeocodeFailures int64 `json:"geocode_failures"`
	ProfileErrors   int64 `json:"profile_errors"`
	ResolveErrors   int64 `json:"resolve_errors"`
	Duplicates      int64 `json:"duplicates"`
	RejectedTweets  int64 `json:"rejected_tweets"`
	Dropped         int64 `json:"dropped"`
}

// Add adds o's counts to l.
func (l *Ledger) Add(o Ledger) {
	l.Processed += o.Processed
	l.NonGeo += o.NonGeo
	l.GeocodeFailures += o.GeocodeFailures
	l.ProfileErrors += o.ProfileErrors
	l.ResolveErrors += o.ResolveErrors
	l.Duplicates += o.Duplicates
	l.RejectedTweets += o.RejectedTweets
	l.Dropped += o.Dropped
}

// Stats is the engine's funnel and connection accounting. The Ledger
// carries the totals restored from a checkpoint, rejected tweets included;
// Ingested and PerShardDropped start from zero at New. So on an engine that
// restored nothing, once drained, Ingested = Σ Ledger outcomes − Dropped.
type Stats struct {
	Shards        int   `json:"shards"`
	Users         int   `json:"users"`
	RejectedUsers int   `json:"rejected_users"`
	Ingested      int64 `json:"ingested"`
	Ledger
	PerShardDropped []int64 `json:"per_shard_dropped"`
	Reconnects      int64   `json:"reconnects"`
	Disconnects     int64   `json:"disconnects"`
	ConnectFailures int64   `json:"connect_failures"`
	Checkpoints     int64   `json:"checkpoints"`

	// Disk-pressure accounting: checkpoints skipped on a full disk (cursor
	// not advanced), the users a crash would replay, and whether the
	// checkpoint store is currently read-only degraded.
	CheckpointsDeferred int64 `json:"checkpoints_deferred"`
	DirtyUsers          int   `json:"dirty_users"`
	DiskDegraded        bool  `json:"disk_degraded"`
}

// Stats returns current counters, including totals restored from a
// checkpoint.
func (e *Engine) Stats() Stats {
	s := Stats{
		Shards:          len(e.shards),
		Ledger:          e.restored,
		PerShardDropped: make([]int64, len(e.shards)),
		Reconnects:      e.reconnects.Load(),
		Disconnects:     e.disconnects.Load(),
		ConnectFailures: e.connectFail.Load(),
		Checkpoints:     e.checkpoints.Load(),

		CheckpointsDeferred: e.deferrals.Load(),
		DirtyUsers:          e.DirtyUsers(),
		DiskDegraded:        e.Degraded(),
	}
	for i, sh := range e.shards {
		sh.mu.Lock()
		s.Users += len(sh.users)
		s.RejectedUsers += len(sh.rejected)
		l := sh.ledger()
		sh.mu.Unlock()
		s.Ingested += sh.ingested.Load()
		s.Add(l)
		s.PerShardDropped[i] = l.Dropped
	}
	return s
}
