package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stir/internal/core"
	"stir/internal/logx"
	"stir/internal/obs"
	"stir/internal/obs/trace"
	"stir/internal/overload"
	"stir/internal/resilience"
	"stir/internal/storage"
	"stir/internal/stream"
	"stir/internal/twitter"
)

// Router defaults.
const (
	DefaultReplicas       = 1
	DefaultJournalDepth   = 1 << 16
	DefaultForwardBatch   = 256
	DefaultMaxFanout      = 8
	DefaultHandoffTimeout = 30 * time.Second
	DefaultScatterTimeout = 5 * time.Second
)

// forwardCopyBuffer sizes the buffer a default-client connection writes
// request bodies through: a forward frame of DefaultForwardBatch tweets at
// the longest encoding (three 10-byte varints, the nanoseconds and the
// text length, MaxTweetLen runes of up to 4 bytes, and the geotag) goes
// out in one write.
const forwardCopyBuffer = DefaultForwardBatch * (3*binary.MaxVarintLen64 + 5 + 2 + 4*twitter.MaxTweetLen + 17)

// bodyConn is a default-client connection that copies request bodies
// through a buffer of its own. net/http flushes a request's headers before
// a body it does not know to be in memory, as a forward's sentBody, and
// then hands the body to the connection's ReadFrom, where a TCPConn's
// generic path allocates a fresh io.Copy buffer for every body. Only the
// connection's one writer goroutine calls ReadFrom.
type bodyConn struct {
	net.Conn
	buf []byte
}

func (c *bodyConn) ReadFrom(r io.Reader) (int64, error) {
	if c.buf == nil {
		c.buf = make([]byte, forwardCopyBuffer)
	}
	return io.CopyBuffer(struct{ io.Writer }{c.Conn}, r, c.buf)
}

// defaultClient is the router's outbound client when Options.HTTP is nil:
// http.DefaultTransport's settings over bodyConn connections.
func defaultClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	dial := tr.DialContext
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := dial(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return &bodyConn{Conn: c}, nil
	}
	return &http.Client{Transport: tr}
}

// Options configures a Router.
type Options struct {
	// Partitions is the hash-space granularity (default DefaultPartitions).
	// It must match across the cluster's lifetime — it is baked into every
	// handoff filter.
	Partitions int
	// Replicas is each partition's owner-set size: every tweet forwards to
	// this many workers, and /v1/groups tolerates Replicas-1 of them being
	// down without going partial (default 1). /v1/stats sums per-worker
	// counters, so it goes partial whenever a worker does not answer.
	Replicas int
	// JournalDepth caps the per-worker replay journal; overflowing entries
	// are evicted oldest-first and counted — an evicted entry can no longer
	// be replayed, so exact convergence is at risk (default 65536).
	JournalDepth int
	// ForwardBatch caps tweets per forward POST (default 256).
	ForwardBatch int
	// ForwardAttempts bounds retries of one idempotent forward (default 3).
	ForwardAttempts int
	// HandoffTimeout bounds one handoff leg: export, import or drop
	// (default 30s).
	HandoffTimeout time.Duration
	// ScatterTimeout bounds one worker's scatter-gather answer (default 5s).
	ScatterTimeout time.Duration
	// MaxFanout bounds concurrent outbound calls (default 8).
	MaxFanout int
	// Seed fixes the retry-jitter streams (default 1).
	Seed int64
	// HTTP overrides the outbound client (default: no global timeout;
	// per-call contexts bound every request; connections write bodies
	// through a buffer of their own, see bodyConn).
	HTTP *http.Client
	// Metrics receives the stir_cluster_* series (nil means obs.Default).
	Metrics *obs.Registry
	// Tracer opens root spans for handoffs and replays. Nil disables.
	Tracer *trace.Tracer
	// Log receives membership and handoff events (nil builds a discard-free
	// stderr logger under "stir-router").
	Log *logx.Logger

	// Heartbeat is the failure detector's probe interval for RunHealth
	// (default 2s).
	Heartbeat time.Duration
	// SuspectAfter is the probe silence after which a worker turns Suspect
	// and its forwards defer to the journal (default 6s).
	SuspectAfter time.Duration
	// DownAfter is the probe silence after which a worker turns Down —
	// the auto-failover threshold (default 30s).
	DownAfter time.Duration
	// AutoFailover removes a Down worker through the crash-recovery path
	// (checkpoint-store restore via Checkpoint when available, journal
	// replay always) without operator intervention. Off by default: enable
	// it with replicas > 1 or shared checkpoint storage, where failover
	// cannot lose durable state.
	AutoFailover bool
	// Checkpoint opens a dead worker's checkpoint store for auto-failover
	// recovery (the shared-storage seam). Nil means journal-only recovery.
	Checkpoint func(name string) (*storage.Store, error)
	// Clock is the failure detector's time source (nil means wall clock).
	// Tests inject a ManualClock so transitions are deterministic.
	Clock Clock
}

func (o Options) withDefaults() Options {
	if o.Partitions <= 0 {
		o.Partitions = DefaultPartitions
	}
	if o.Replicas <= 0 {
		o.Replicas = DefaultReplicas
	}
	if o.JournalDepth <= 0 {
		o.JournalDepth = DefaultJournalDepth
	}
	if o.ForwardBatch <= 0 {
		o.ForwardBatch = DefaultForwardBatch
	}
	if o.ForwardAttempts <= 0 {
		o.ForwardAttempts = 3
	}
	if o.HandoffTimeout <= 0 {
		o.HandoffTimeout = DefaultHandoffTimeout
	}
	if o.ScatterTimeout <= 0 {
		o.ScatterTimeout = DefaultScatterTimeout
	}
	if o.MaxFanout <= 0 {
		o.MaxFanout = DefaultMaxFanout
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.HTTP == nil {
		o.HTTP = defaultClient()
	}
	if o.Log == nil {
		o.Log = logx.New(nil, "stir-router")
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = DefaultHeartbeat
	}
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = DefaultSuspectAfter
	}
	if o.DownAfter <= 0 {
		o.DownAfter = DefaultDownAfter
	}
	if o.Clock == nil {
		o.Clock = wallClock{}
	}
	return o
}

// jentry is one journaled forward: a tweet and the per-worker sequence it
// was (or will be) delivered under.
type jentry struct {
	seq   int64
	tweet *twitter.Tweet
}

// workerRef is the router's view of one worker.
type workerRef struct {
	name string

	// mu guards url and health; fwdMu serialises forwards so per-worker
	// sequence order holds; jMu guards the journal. Lock order:
	// fwdMu > jMu and fwdMu > mu.
	mu  sync.Mutex
	url string
	// health is the worker's one state (forwards go only to Alive, reads
	// to Alive and Degraded) and the failure detector's record.
	health health
	fwdMu  sync.Mutex
	frame  []byte // forward frame buffer, reused under fwdMu

	// The forward path's per-worker series, resolved once.
	mForwarded, mForwardErrors, mDeferred, mEvicted *obs.Counter

	jMu        sync.Mutex
	journal    []jentry // a window on jbuf (journalAppend)
	jbuf       []jentry
	durableSeq int64 // highest seq covered by the worker's last checkpoint
	ackedSeq   int64 // highest seq the worker acknowledged applying
	evicted    int64 // journal entries lost to overflow
	evictSeen  int64 // eviction watermark at the previous degraded probe
}

func (w *workerRef) baseURL() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.url
}

// journalAppend journals one tweet under the next per-worker slot, evicting
// the oldest entry when the depth cap is hit. The journal is a window on
// jbuf that evictions and trims move forward. When the window reaches the
// array's end it moves back to the front if that frees at least half its
// length, or else to an array twice its length: a journal held at its depth
// appends without allocating.
func (w *workerRef) journalAppend(e jentry, depth int) {
	w.jMu.Lock()
	if len(w.journal) >= depth {
		w.journal[0] = jentry{}
		w.journal = w.journal[1:]
		w.evicted++
		w.mEvicted.Inc()
	}
	if n := len(w.journal); n == cap(w.journal) {
		if cap(w.jbuf)-n <= n/2 {
			w.jbuf = make([]jentry, 2*n+64)
		}
		w.journal = w.jbuf[:copy(w.jbuf, w.journal)]
		clear(w.jbuf[len(w.journal):])
	}
	w.journal = append(w.journal, e)
	w.jMu.Unlock()
}

// journalTrim drops entries a durable checkpoint covers.
func (w *workerRef) journalTrim(durableSeq int64) {
	w.jMu.Lock()
	if durableSeq > w.durableSeq {
		w.durableSeq = durableSeq
		i := 0
		for i < len(w.journal) && w.journal[i].seq <= durableSeq {
			i++
		}
		clear(w.journal[:i])
		w.journal = w.journal[i:]
	}
	w.jMu.Unlock()
}

// journalTail copies the entries after seq, in order.
func (w *workerRef) journalTail(seq int64) []jentry {
	w.jMu.Lock()
	defer w.jMu.Unlock()
	var out []jentry
	for _, e := range w.journal {
		if e.seq > seq {
			out = append(out, e)
		}
	}
	return out
}

func (w *workerRef) journalDepth() int {
	w.jMu.Lock()
	defer w.jMu.Unlock()
	return len(w.journal)
}

// WorkerError is one worker's failure inside a partial result.
type WorkerError = core.WorkerError

// Router consistent-hashes users across stream workers, forwards ingest with
// retries to the workers it holds alive, journals forwards for crash
// replay, and scatter-gathers the /v1 query API with partial-result
// degradation. All methods are safe for concurrent use.
type Router struct {
	opts   Options
	reg    *obs.Registry
	tracer *trace.Tracer
	log    *logx.Logger
	sem    chan struct{}
	seq    atomic.Int64

	// epoch is the membership generation: bumped on every ring change
	// (join, rejoin, leave, crash removal) and stamped on every outbound
	// hop so workers can fence writes from a router holding a stale view.
	epoch atomic.Int64

	// mu guards membership and the ring. Handoffs (join/leave/crash
	// recovery) hold it for the whole migration, pausing ingest and scatter
	// so per-user delivery order survives the ownership change.
	mu      sync.RWMutex
	workers map[string]*workerRef
	ring    *Ring

	// fwd retries one forward. A forward that still fails turns its worker
	// suspect, and nothing forwards to it again until a probe rejoins it.
	fwd *resilience.Policy

	mHandoff func(reason string) *obs.Counter
}

// NewRouter builds an empty router; workers join via AddWorker.
func New(opts Options) *Router {
	opts = opts.withDefaults()
	reg := obs.Or(opts.Metrics)
	r := &Router{
		opts:    opts,
		reg:     reg,
		tracer:  opts.Tracer,
		log:     opts.Log,
		sem:     make(chan struct{}, opts.MaxFanout),
		workers: make(map[string]*workerRef),
		ring:    NewRing(opts.Partitions, nil),
		fwd: &resilience.Policy{
			Name:        "cluster_forward",
			MaxAttempts: opts.ForwardAttempts,
			BaseDelay:   25 * time.Millisecond,
			MaxDelay:    time.Second,
			Seed:        opts.Seed,
			Metrics:     reg,
		},
	}
	r.mHandoff = func(reason string) *obs.Counter {
		return reg.Counter("stir_cluster_handoffs_total", "reason", reason)
	}
	reg.GaugeFunc("stir_cluster_partitions", func() float64 { return float64(opts.Partitions) })
	reg.GaugeFunc("stir_cluster_workers", func() float64 {
		r.mu.RLock()
		defer r.mu.RUnlock()
		return float64(len(r.workers))
	})
	reg.GaugeFunc("stir_cluster_workers_up", func() float64 {
		r.mu.RLock()
		defer r.mu.RUnlock()
		n := 0
		for _, w := range r.workers {
			if w.state().serving() {
				n++
			}
		}
		return float64(n)
	})
	reg.GaugeFunc("stir_cluster_epoch", func() float64 {
		return float64(r.epoch.Load())
	})
	return r
}

// Epoch returns the current membership generation.
func (r *Router) Epoch() int64 { return r.epoch.Load() }

// bumpEpochLocked advances the membership generation after a ring change.
// Callers hold r.mu, so the new epoch is visible before any forward routed
// by the new ring leaves the router.
func (r *Router) bumpEpochLocked(ctx context.Context, reason string) int64 {
	e := r.epoch.Add(1)
	r.log.Info(ctx, "cluster epoch bumped", "epoch", e, "reason", reason,
		"members", r.membersSummaryLocked())
	return e
}

// adoptEpoch raises the router's epoch to at least e — a restarted router
// learns the pre-crash generation from the first worker hello instead of
// restarting at zero (which every worker would fence).
func (r *Router) adoptEpoch(e int64) {
	for {
		cur := r.epoch.Load()
		if e <= cur || r.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Ring returns the current ring (immutable snapshot).
func (r *Router) Ring() *Ring {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring
}

// newWorkerRef builds the per-worker forwarding machinery.
func (r *Router) newWorkerRef(name, url string) *workerRef {
	w := &workerRef{name: name, url: url,
		mForwarded:     r.reg.Counter("stir_cluster_forwarded_total", "worker", name),
		mForwardErrors: r.reg.Counter("stir_cluster_forward_errors_total", "worker", name),
		mDeferred:      r.reg.Counter("stir_cluster_deferred_total", "worker", name),
		mEvicted:       r.reg.Counter("stir_cluster_journal_evicted_total", "worker", name),
	}
	w.health.lastOK = r.opts.Clock.Now()
	return w
}

// registerWorkerGauges publishes pull-mode views for one worker name. The
// closures resolve the ref through the map on every read, so a replacement
// worker under the same name keeps the series accurate.
func (r *Router) registerWorkerGauges(name string) {
	lookup := func() *workerRef {
		r.mu.RLock()
		defer r.mu.RUnlock()
		return r.workers[name]
	}
	r.reg.GaugeFunc("stir_cluster_shard_queue_depth", func() float64 {
		if w := lookup(); w != nil {
			return float64(w.journalDepth())
		}
		return 0
	}, "worker", name)
	r.reg.GaugeFunc("stir_cluster_health_state", func() float64 {
		if w := lookup(); w != nil {
			return float64(w.state())
		}
		return -1
	}, "worker", name)
}

// do performs one traced, deadline-stamped request and hands a 2xx reply
// to read (when non-nil). A non-nil body goes out with content type ctype,
// and do returns only once the transport has released it, so the caller
// may reuse the buffer. Non-2xx maps onto resilience.ResponseError so the
// retry policy classifies 5xx/sheds transient and honours Retry-After.
func (r *Router) do(ctx context.Context, method, url, ctype string, body []byte, read func(*http.Response) error) error {
	var rd io.Reader
	var sent *sentBody
	if body != nil {
		sent = newSentBody(body)
		rd = sent
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return resilience.MarkPermanent(err)
	}
	if sent != nil {
		defer sent.wait()
		req.ContentLength = int64(len(body))
		req.Header.Set("Content-Type", ctype)
	}
	overload.SetDeadlineHeader(req)
	trace.Inject(req)
	req.Header.Set(EpochHeader, strconv.FormatInt(r.epoch.Load(), 10))
	resp, err := r.opts.HTTP.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return resilience.ResponseError(resp)
	}
	if read == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		return nil
	}
	if err := read(resp); err != nil {
		return fmt.Errorf("cluster: decode %s: %w", url, err)
	}
	return nil
}

// doJSON is do with a JSON body and the JSON reply decoded into out (when
// non-nil).
func (r *Router) doJSON(ctx context.Context, method, url string, body []byte, out any) error {
	var read func(*http.Response) error
	if out != nil {
		read = func(resp *http.Response) error { return json.NewDecoder(resp.Body).Decode(out) }
	}
	return r.do(ctx, method, url, "application/json", body, read)
}

// IngestReport accounts one IngestBatch call.
type IngestReport struct {
	// Forwarded tweets were acknowledged by a live owner.
	Forwarded int `json:"forwarded"`
	// Deferred tweets are journaled for a down worker and will be replayed
	// when it (or its replacement) rejoins.
	Deferred int `json:"deferred"`
	// Unrouted tweets had no owner at all (empty ring).
	Unrouted int           `json:"unrouted"`
	Errors   []WorkerError `json:"errors,omitempty"`
}

// IngestBatch routes tweets to their owners and forwards them. Forwards are
// idempotent (workers dedup by tweet ID), so transient failures retry
// against the same replica; a worker that stays unreachable turns suspect,
// its tweets stay journaled, and they replay at rejoin.
func (r *Router) IngestBatch(ctx context.Context, tweets []*twitter.Tweet) IngestReport {
	r.mu.RLock()
	ring := r.ring
	workers := make(map[string]*workerRef, len(r.workers))
	for n, w := range r.workers {
		workers[n] = w
	}
	r.mu.RUnlock()
	return r.ingestRouted(ctx, ring, workers, tweets)
}

// ingestRouted is IngestBatch against an explicit membership snapshot, so
// handoffs can replay while holding the membership lock.
func (r *Router) ingestRouted(ctx context.Context, ring *Ring, workers map[string]*workerRef, tweets []*twitter.Tweet) IngestReport {
	var rep IngestReport
	if ring.Len() == 0 {
		rep.Unrouted = len(tweets)
		return rep
	}
	byOwner := make(map[string][]*twitter.Tweet)
	for _, t := range tweets {
		if t == nil {
			continue
		}
		part := PartitionOf(t.UserID, r.opts.Partitions)
		owners := ring.Owners(part, r.opts.Replicas)
		if len(owners) == 0 {
			rep.Unrouted++
			continue
		}
		for _, o := range owners {
			byOwner[o] = append(byOwner[o], t)
		}
	}
	names := make([]string, 0, len(byOwner))
	for n := range byOwner {
		names = append(names, n)
	}
	sort.Strings(names)
	var (
		wg   sync.WaitGroup
		rmu  sync.Mutex
		reps = make([]IngestReport, len(names))
	)
	for i, name := range names {
		w := workers[name]
		if w == nil {
			rmu.Lock()
			rep.Unrouted += len(byOwner[name])
			rmu.Unlock()
			continue
		}
		wg.Add(1)
		go func(i int, w *workerRef, batch []*twitter.Tweet) {
			defer wg.Done()
			r.sem <- struct{}{}
			defer func() { <-r.sem }()
			reps[i] = r.forwardAll(ctx, w, batch)
		}(i, w, byOwner[name])
	}
	wg.Wait()
	for _, sub := range reps {
		rep.Forwarded += sub.Forwarded
		rep.Deferred += sub.Deferred
		rep.Errors = append(rep.Errors, sub.Errors...)
	}
	return rep
}

// forwardAll journals and delivers one worker's share of a batch, in
// ForwardBatch-sized chunks. The per-worker forward lock serialises delivery
// so sequence order (and per-user tweet order) holds.
func (r *Router) forwardAll(ctx context.Context, w *workerRef, tweets []*twitter.Tweet) IngestReport {
	var rep IngestReport
	w.fwdMu.Lock()
	defer w.fwdMu.Unlock()
	for len(tweets) > 0 {
		n := r.opts.ForwardBatch
		if n > len(tweets) {
			n = len(tweets)
		}
		chunk := tweets[:n]
		tweets = tweets[n:]
		var lastSeq int64
		for _, t := range chunk {
			seq := r.seq.Add(1)
			w.journalAppend(jentry{seq: seq, tweet: t}, r.opts.JournalDepth)
			lastSeq = seq
		}
		if w.state() != HealthAlive {
			// Suspect or down, or disk-degraded (its store cannot make new
			// state durable): the chunk stays journaled and replays when the
			// worker rejoins or its store heals.
			rep.Deferred += len(chunk)
			w.mDeferred.Add(int64(len(chunk)))
			continue
		}
		if err := r.forwardChunk(ctx, w, lastSeq, chunk); err != nil {
			// The chunk (and the rest of the batch) stays journaled; the
			// worker is suspect until a probe rejoins it and replays.
			rep.Deferred += len(chunk)
			w.mDeferred.Add(int64(len(chunk)))
			rep.Errors = append(rep.Errors, WorkerError{Worker: w.name, Error: err.Error()})
			w.mForwardErrors.Inc()
			r.log.Warn(ctx, "forward failed, worker suspect", "worker", w.name, "err", err)
			r.setHealth(ctx, w, HealthSuspect)
			continue
		}
		rep.Forwarded += len(chunk)
		w.mForwarded.Add(int64(len(chunk)))
	}
	return rep
}

// forwardChunk delivers one seq-stamped chunk as a forward frame, with
// retries, and trims the journal to the worker's durable cursor from the
// ack frame. Callers hold w.fwdMu, which guards the reused frame buffer.
func (r *Router) forwardChunk(ctx context.Context, w *workerRef, seq int64, tweets []*twitter.Tweet) error {
	w.frame = appendForward(w.frame[:0], seq, tweets)
	url := w.baseURL() + "/cluster/v1/ingest"
	var ack ingestAck
	err := r.fwd.Do(ctx, func(ctx context.Context) error {
		cctx, cancel := context.WithTimeout(ctx, r.opts.ScatterTimeout)
		defer cancel()
		return r.do(cctx, http.MethodPost, url, frameContentType, w.frame, func(resp *http.Response) error {
			return withBody(resp.Body, resp.ContentLength, func(b []byte) (err error) {
				ack, err = readAck(b)
				return err
			})
		})
	})
	if err != nil {
		return err
	}
	w.jMu.Lock()
	if seq > w.ackedSeq {
		w.ackedSeq = seq
	}
	w.jMu.Unlock()
	w.journalTrim(ack.DurableSeq)
	return nil
}

// hello performs the join handshake.
func (r *Router) hello(ctx context.Context, url string) (helloResponse, error) {
	var h helloResponse
	cctx, cancel := context.WithTimeout(ctx, r.opts.ScatterTimeout)
	defer cancel()
	err := r.doJSON(cctx, http.MethodGet, url+"/cluster/v1/hello", nil, &h)
	return h, err
}

// AddWorker joins a worker (or a replacement for a crashed one — same name,
// possibly a new address). A fresh name triggers shard handoff from the
// current owners; a known name is a rejoin: the journal tail past the
// worker's durable checkpoint cursor is replayed, and DedupByTweetID on the
// worker makes the overlap with its checkpoint idempotent.
func (r *Router) AddWorker(ctx context.Context, name, url string) error {
	if name == "" || url == "" {
		return fmt.Errorf("cluster: join needs a name and a url")
	}
	h, err := r.hello(ctx, url)
	if err != nil {
		return fmt.Errorf("cluster: join %s: hello: %w", name, err)
	}
	if h.Name != "" && h.Name != name {
		return fmt.Errorf("cluster: join %s: worker at %s says it is %q", name, url, h.Name)
	}
	ctx, span := r.rootSpan(ctx, "cluster.join")
	defer span.End()
	if span != nil {
		span.Annotate("worker", name)
	}
	// A restarted router begins at epoch 0 while the surviving workers
	// remember the pre-crash generation: adopt the higher one so the fleet
	// does not fence the new router's first forwards.
	r.adoptEpoch(h.Epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok := r.workers[name]; ok {
		return r.rejoinLocked(ctx, w, url, h)
	}
	return r.joinLocked(ctx, name, url, h)
}

// rejoinLocked brings a known worker back: replay the journal tail past its
// durable cursor and turn it alive. A worker whose hello reports a
// disk-degraded store turns degraded without the replay: its store cannot
// make the tail durable, and once its dirty window fills it would refuse the
// replay and stay unreadable. The tail stays journaled (the journal trims
// only to the durable cursor) and healDegraded replays it when the store
// heals.
func (r *Router) rejoinLocked(ctx context.Context, w *workerRef, url string, h helloResponse) error {
	w.mu.Lock()
	w.url = url
	w.mu.Unlock()
	// A replacement process restarts from its last durable checkpoint: its
	// acked-but-not-checkpointed suffix died with it. Reset the router's ack
	// watermark so accounting reflects the replay.
	w.jMu.Lock()
	w.ackedSeq = h.DurableSeq
	w.jMu.Unlock()
	// New generation before the replay, so the replayed chunks carry the
	// post-rejoin epoch and immediately advance the worker's fence watermark
	// past anything a partitioned zombie hop could still be holding.
	r.bumpEpochLocked(ctx, "rejoin")
	// Snapshot the tail and replay under the forward lock: concurrent
	// ingests journal under the same lock, so no chunk can slip between the
	// snapshot and the moment the worker takes forwards again.
	w.fwdMu.Lock()
	defer w.fwdMu.Unlock()
	to, replayed := HealthDegraded, 0
	if !h.Degraded {
		var err error
		if replayed, err = r.replayTail(ctx, w, w.journalTail(h.DurableSeq)); err != nil {
			return fmt.Errorf("cluster: rejoin %s: replay: %w", w.name, err)
		}
		to = HealthAlive
	}
	w.mu.Lock()
	w.health.lastOK = r.opts.Clock.Now()
	w.health.lastErr = ""
	w.mu.Unlock()
	r.setHealth(ctx, w, to)
	r.mHandoff("rejoin").Inc()
	r.reg.Counter("stir_cluster_replayed_total", "worker", w.name).Add(int64(replayed))
	r.log.Printf("worker %s rejoined at %s: replayed %d journaled tweets past durable seq %d",
		w.name, url, replayed, h.DurableSeq)
	return nil
}

// replayTail re-delivers journaled entries to one worker in sequence order.
// The caller holds the worker's forward lock so live traffic queues behind
// the replay, preserving per-user order.
func (r *Router) replayTail(ctx context.Context, w *workerRef, tail []jentry) (int, error) {
	replayed := 0
	for len(tail) > 0 {
		n := r.opts.ForwardBatch
		if n > len(tail) {
			n = len(tail)
		}
		chunk := tail[:n]
		tail = tail[n:]
		tweets := make([]*twitter.Tweet, len(chunk))
		for i, e := range chunk {
			tweets[i] = e.tweet
		}
		if err := r.forwardChunk(ctx, w, chunk[len(chunk)-1].seq, tweets); err != nil {
			return replayed, err
		}
		replayed += len(chunk)
	}
	return replayed, nil
}

// joinLocked admits a brand-new worker: add it to the ring and migrate the
// partitions it now owns from their previous owners (export → import →
// checkpoint → drop), pausing ingest for the duration so per-user order
// survives the ownership flip.
func (r *Router) joinLocked(ctx context.Context, name, url string, h helloResponse) error {
	oldRing := r.ring
	newRing := oldRing.With(name)
	w := r.newWorkerRef(name, url)

	// Partitions whose owner set gains the new worker, grouped by the old
	// primary (the exporter). An empty old ring has nothing to migrate.
	bySource := make(map[string][]int)
	losers := make(map[string][]int) // old owners no longer in the set
	if oldRing.Len() > 0 {
		for p := 0; p < r.opts.Partitions; p++ {
			oldOwners := oldRing.Owners(p, r.opts.Replicas)
			newOwners := newRing.Owners(p, r.opts.Replicas)
			if !slices.Contains(newOwners, name) {
				continue
			}
			bySource[oldOwners[0]] = append(bySource[oldOwners[0]], p)
			for _, o := range oldOwners {
				if !slices.Contains(newOwners, o) {
					losers[o] = append(losers[o], p)
				}
			}
		}
	}
	moved := 0
	for source, parts := range bySource {
		src := r.workers[source]
		if src == nil || !src.state().serving() {
			return fmt.Errorf("cluster: join %s: source %s is down, cannot hand off %d partitions", name, source, len(parts))
		}
		if err := r.migrate(ctx, src, w, parts); err != nil {
			return fmt.Errorf("cluster: join %s: %w", name, err)
		}
		moved += len(parts)
	}
	// Old owners that fell out of the replicaset release their copies.
	for loser, parts := range losers {
		lw := r.workers[loser]
		if lw == nil || !lw.state().serving() {
			continue
		}
		if err := r.dropParts(ctx, lw, parts); err != nil {
			r.log.Warn(ctx, "drop after join failed", "worker", loser, "err", err)
		}
	}
	r.workers[name] = w
	r.ring = newRing
	// A joiner arriving with users is a survivor of a router restart (the
	// import-overwrites above already refreshed everything it still owns) —
	// clear whatever it holds outside its ownership under the new ring, so
	// partitions that moved away during its previous life don't linger as
	// stale scatter shards.
	if h.Users > 0 {
		owned := make(map[int]bool)
		for _, p := range newRing.PartsOwnedBy(name, r.opts.Replicas) {
			owned[p] = true
		}
		var residue []int
		for p := 0; p < r.opts.Partitions; p++ {
			if !owned[p] {
				residue = append(residue, p)
			}
		}
		if len(residue) > 0 {
			if err := r.dropParts(ctx, w, residue); err != nil {
				r.log.Warn(ctx, "residue drop after join failed", "worker", name, "err", err)
			} else {
				r.mHandoff("wipe").Inc()
			}
		}
	}
	r.bumpEpochLocked(ctx, "join")
	r.registerWorkerGauges(name)
	for i := 0; i < moved; i++ {
		r.mHandoff("join").Inc()
	}
	r.log.Printf("worker %s joined at %s: %d partitions migrated", name, url, moved)
	return nil
}

// Leave gracefully removes a worker: one export of the partitions it owns
// hands its users to their new owners, and the journal past its durable
// cursor replays through the shrunk ring. A leaver that is not serving
// exports nothing; its journal alone replays. Ingest pauses for the
// duration.
func (r *Router) Leave(ctx context.Context, name string) error {
	ctx, span := r.rootSpan(ctx, "cluster.leave")
	defer span.End()
	if span != nil {
		span.Annotate("worker", name)
	}
	return r.remove(ctx, "leave", name, func(w *workerRef, parts []int) (stream.Handoff, int64, int, error) {
		var h stream.Handoff
		moved := 0
		if w.state().serving() {
			hctx, cancel := context.WithTimeout(ctx, r.opts.HandoffTimeout)
			defer cancel()
			if err := r.doJSON(hctx, http.MethodGet, w.baseURL()+exportQuery(r.opts.Partitions, parts), nil, &h); err != nil {
				return h, 0, 0, fmt.Errorf("export: %w", err)
			}
			moved = len(parts)
		}
		w.jMu.Lock()
		defer w.jMu.Unlock()
		return h, w.durableSeq, moved, nil
	})
}

// RemoveCrashed removes a dead worker whose process is gone for good,
// restoring its users from its last checkpoint store (opened by the caller —
// the shared-storage recovery path) into their new owners and replaying the
// journal tail past the checkpoint's cursor. Pass a nil store when the
// checkpoint is unrecoverable: only the journal replays, and everything the
// dead worker had checkpointed is lost (counted, not hidden).
func (r *Router) RemoveCrashed(ctx context.Context, name string, ckpt *storage.Store) error {
	ctx, span := r.rootSpan(ctx, "cluster.recover")
	defer span.End()
	if span != nil {
		span.Annotate("worker", name)
	}
	return r.remove(ctx, "crash", name, func(_ *workerRef, parts []int) (stream.Handoff, int64, int, error) {
		if ckpt == nil {
			return stream.Handoff{}, 0, len(parts), nil
		}
		h, cursor, err := stream.ReadCheckpointHandoff(ckpt)
		if err != nil {
			return h, 0, 0, fmt.Errorf("read checkpoint: %w", err)
		}
		return h, ParseSeq(cursor), len(parts), nil
	})
}

// remove is the one removal path under Leave and RemoveCrashed, which differ
// only in handoff: it yields the departing worker's users (of the partitions
// it owns), the journal cursor they cover, and how many partitions count as
// handed off (a leaver that is not serving exports none). Under the
// membership lock, remove imports those users into the gainers only — owners
// that did not hold the partition before; a surviving owner's own copy is at
// least as new — then swaps the ring, bumps the epoch, and replays the
// journal past the cursor through the shrunk ring, where worker-side
// tweet-ID dedup absorbs the overlap with the handoff.
func (r *Router) remove(ctx context.Context, reason, name string, handoff func(w *workerRef, parts []int) (stream.Handoff, int64, int, error)) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[name]
	if !ok {
		return fmt.Errorf("cluster: %s: unknown worker %q", reason, name)
	}
	oldRing, newRing := r.ring, r.ring.Without(name)
	if newRing.Len() == 0 {
		return fmt.Errorf("cluster: %s: %s is the last worker", reason, name)
	}
	parts := oldRing.PartsOwnedBy(name, r.opts.Replicas)
	h, cursor, moved, err := handoff(w, parts)
	if err != nil {
		return fmt.Errorf("cluster: %s %s: %w", reason, name, err)
	}
	byGainer, err := r.splitHandoff(h, oldRing, newRing)
	if err != nil {
		return fmt.Errorf("cluster: %s %s: %w", reason, name, err)
	}
	for gainer, gh := range byGainer {
		gw := r.workers[gainer]
		if gw == nil || !gw.state().serving() {
			return fmt.Errorf("cluster: %s %s: new owner %s is down", reason, name, gainer)
		}
		if err := r.importInto(ctx, gw, gh); err != nil {
			return fmt.Errorf("cluster: %s %s: import into %s: %w", reason, name, gainer, err)
		}
	}
	tail := w.journalTail(cursor)
	delete(r.workers, name)
	r.ring = newRing
	// Bump before the tail replays: the re-routed tweets carry the new
	// generation, and the removed worker's address — should a zombie process
	// still answer there — can never pass the fence again.
	r.bumpEpochLocked(ctx, reason)
	replayed := 0
	if len(tail) > 0 {
		tweets := make([]*twitter.Tweet, len(tail))
		for i, e := range tail {
			tweets[i] = e.tweet
		}
		workers := make(map[string]*workerRef, len(r.workers))
		for n, ref := range r.workers {
			workers[n] = ref
		}
		replayed = r.ingestRouted(ctx, newRing, workers, tweets).Forwarded
		r.reg.Counter("stir_cluster_replayed_total", "worker", name).Add(int64(replayed))
	}
	r.mHandoff(reason).Add(int64(moved))
	r.log.Printf("worker %s removed (%s): %d partitions reassigned, %d users handed off, %d journaled tweets replayed",
		name, reason, len(parts), h.Len(), replayed)
	return nil
}

// MarkDown turns a worker suspect without removing it; its tweets journal
// until it rejoins (the failure detector's next successful probe, or an
// explicit AddWorker). A failed forward does the same.
func (r *Router) MarkDown(name string) {
	r.mu.RLock()
	w := r.workers[name]
	r.mu.RUnlock()
	if w != nil {
		r.setHealth(context.Background(), w, HealthSuspect)
	}
}

// splitHandoff assigns a removal's handoff payload to the gainers: for each
// user, the owners of its partition under newRing that did not own it under
// oldRing.
func (r *Router) splitHandoff(h stream.Handoff, oldRing, newRing *Ring) (map[string]stream.Handoff, error) {
	gainers := func(id int64) []string {
		part := PartitionOf(twitter.UserID(id), r.opts.Partitions)
		old := oldRing.Owners(part, r.opts.Replicas)
		var out []string
		for _, o := range newRing.Owners(part, r.opts.Replicas) {
			if !slices.Contains(old, o) {
				out = append(out, o)
			}
		}
		return out
	}
	out := make(map[string]stream.Handoff)
	for _, raw := range h.Users {
		var peek struct {
			ID int64 `json:"id"`
		}
		if err := json.Unmarshal(raw, &peek); err != nil {
			return nil, fmt.Errorf("split handoff: %w", err)
		}
		for _, o := range gainers(peek.ID) {
			oh := out[o]
			oh.Users = append(oh.Users, raw)
			out[o] = oh
		}
	}
	for _, id := range h.Rejected {
		for _, o := range gainers(id) {
			oh := out[o]
			oh.Rejected = append(oh.Rejected, id)
			out[o] = oh
		}
	}
	return out, nil
}

// migrate moves one partition set from src to dst: export, import, durable
// checkpoint on the importer, then drop on the source.
func (r *Router) migrate(ctx context.Context, src, dst *workerRef, parts []int) error {
	hctx, cancel := context.WithTimeout(ctx, r.opts.HandoffTimeout)
	defer cancel()
	var h stream.Handoff
	if err := r.doJSON(hctx, http.MethodGet, src.baseURL()+exportQuery(r.opts.Partitions, parts), nil, &h); err != nil {
		return fmt.Errorf("export from %s: %w", src.name, err)
	}
	if err := r.importInto(ctx, dst, h); err != nil {
		return fmt.Errorf("import into %s: %w", dst.name, err)
	}
	if err := r.dropParts(ctx, src, parts); err != nil {
		return fmt.Errorf("drop on %s: %w", src.name, err)
	}
	return nil
}

// importInto installs a handoff payload on dst and checkpoints it so the
// migrated users survive a crash of their new owner.
func (r *Router) importInto(ctx context.Context, dst *workerRef, h stream.Handoff) error {
	if h.Len() == 0 {
		return nil
	}
	body, err := json.Marshal(h)
	if err != nil {
		return err
	}
	hctx, cancel := context.WithTimeout(ctx, r.opts.HandoffTimeout)
	defer cancel()
	if err := r.doJSON(hctx, http.MethodPost, dst.baseURL()+"/cluster/v1/import", body, nil); err != nil {
		return err
	}
	// Best-effort durability: a store-less worker (tests, ephemeral demos)
	// still accepts the handoff.
	cctx, cancel2 := context.WithTimeout(ctx, r.opts.HandoffTimeout)
	defer cancel2()
	if err := r.doJSON(cctx, http.MethodPost, dst.baseURL()+"/cluster/v1/checkpoint", nil, nil); err != nil {
		r.log.Warn(ctx, "post-import checkpoint failed", "worker", dst.name, "err", err)
	}
	return nil
}

func (r *Router) dropParts(ctx context.Context, w *workerRef, parts []int) error {
	hctx, cancel := context.WithTimeout(ctx, r.opts.HandoffTimeout)
	defer cancel()
	return r.doJSON(hctx, http.MethodPost, w.baseURL()+dropQuery(r.opts.Partitions, parts), nil, nil)
}

func exportQuery(partitions int, parts []int) string {
	return "/cluster/v1/export?partitions=" + strconv.Itoa(partitions) + "&parts=" + joinParts(parts)
}

func dropQuery(partitions int, parts []int) string {
	return "/cluster/v1/drop?partitions=" + strconv.Itoa(partitions) + "&parts=" + joinParts(parts)
}

func joinParts(parts []int) string {
	var b bytes.Buffer
	for i, p := range parts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(p))
	}
	return b.String()
}

// CheckpointAll asks every live worker for a durable checkpoint and trims
// the journals to the returned cursors. Each worker's HandoffTimeout covers
// its wait for a fan-out slot, as in gather.
func (r *Router) CheckpointAll(ctx context.Context) []WorkerError {
	_, workers := r.membership()
	var (
		wg   sync.WaitGroup
		emu  sync.Mutex
		errs []WorkerError
	)
	for _, w := range workers {
		if !w.state().serving() {
			continue
		}
		wg.Add(1)
		go func(w *workerRef) {
			defer wg.Done()
			if _, err := r.checkpointWorker(ctx, w); err != nil {
				emu.Lock()
				errs = append(errs, WorkerError{Worker: w.name, Error: err.Error()})
				emu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	sort.Slice(errs, func(i, j int) bool { return errs[i].Worker < errs[j].Worker })
	return errs
}

// checkpointWorker asks w for a durable checkpoint and trims its journal to
// the acknowledged cursor, which it returns.
func (r *Router) checkpointWorker(ctx context.Context, w *workerRef) (int64, error) {
	var ack struct {
		DurableSeq int64 `json:"durable_seq"`
	}
	ctx, cancel := context.WithTimeout(ctx, r.opts.HandoffTimeout)
	defer cancel()
	if err := r.acquire(ctx); err != nil {
		return 0, err
	}
	err := r.doJSON(ctx, http.MethodPost, w.baseURL()+"/cluster/v1/checkpoint", nil, &ack)
	<-r.sem
	if err != nil {
		return 0, err
	}
	w.journalTrim(ack.DurableSeq)
	return ack.DurableSeq, nil
}

// rootSpan opens a traced root when a tracer is configured.
func (r *Router) rootSpan(ctx context.Context, name string) (context.Context, *trace.Span) {
	if r.tracer == nil {
		return ctx, nil
	}
	return r.tracer.Root(ctx, name)
}
