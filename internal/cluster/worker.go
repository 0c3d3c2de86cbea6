package cluster

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"stir/internal/core"
	"stir/internal/obs"
	"stir/internal/obs/trace"
	"stir/internal/stream"
	"stir/internal/twitter"
)

// EpochHeader carries the router's membership generation on every cluster
// hop. Workers keep a high-water mark of the epochs they have seen and
// reject anything older with 412: a router (or a replayed in-flight hop)
// holding a pre-failover view of the ring cannot apply stale writes or serve
// stale scatter shards. A missing header passes — rolling upgrades and bare
// curl keep working.
const EpochHeader = "X-Stir-Epoch"

// Worker is the cluster-facing surface of one stream worker: the existing
// engine plus the handoff and forward-ingest endpoints the router drives.
//
//	POST /cluster/v1/ingest      apply a forward frame (seq-stamped batch)
//	POST /cluster/v1/checkpoint  force a durable checkpoint, return its cursor
//	GET  /cluster/v1/hello       identity + durable cursor (join handshake)
//	GET  /cluster/v1/summaries   ?partitions=N — summaries frame: the §IV
//	                             summary per non-empty partition (the
//	                             router's /v1/groups)
//	GET  /cluster/v1/groupings   full per-user groupings (export, oracles)
//	GET  /cluster/v1/export      serialise the users of a partition set
//	POST /cluster/v1/import      install a handoff payload
//	POST /cluster/v1/drop        release the users of a partition set
//
// The /v1 query API (groups, users, stats) stays mounted alongside, so one
// worker address serves both per-worker queries and cluster plumbing.
type Worker struct {
	name string
	eng  *stream.Engine
	reg  *obs.Registry

	mu      sync.Mutex
	lastSeq int64 // highest applied forward sequence

	// epoch is the fence watermark: the highest membership generation any
	// router has presented. Monotonic (CAS-advanced), never reset.
	epoch atomic.Int64
}

// NewWorker wraps an engine for cluster duty. The engine should run with
// DedupByTweetID on — journal replay after a crash depends on it.
func NewWorker(name string, eng *stream.Engine, reg *obs.Registry) *Worker {
	return &Worker{name: name, eng: eng, reg: obs.Or(reg), lastSeq: ParseSeq(eng.Cursor())}
}

// Engine returns the wrapped engine.
func (w *Worker) Engine() *stream.Engine { return w.eng }

// Name returns the worker's cluster name.
func (w *Worker) Name() string { return w.name }

// Epoch returns the fence watermark — the highest membership generation this
// worker has seen.
func (w *Worker) Epoch() int64 { return w.epoch.Load() }

// advanceEpoch raises the watermark to at least e.
func (w *Worker) advanceEpoch(e int64) {
	for {
		cur := w.epoch.Load()
		if e <= cur || w.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// fence enforces the epoch watermark on one request. It returns false after
// writing a 412 when the request carries a generation older than the
// watermark; otherwise it advances the watermark and lets the request
// through. 412 maps onto resilience.ClassPermanent on the router, so a
// zombie's forwards die immediately instead of burning retries.
func (w *Worker) fence(rw http.ResponseWriter, r *http.Request, route string) bool {
	raw := r.Header.Get(EpochHeader)
	if raw == "" {
		return true
	}
	e, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		jsonReply(rw, http.StatusBadRequest, httpError{Error: "bad " + EpochHeader + ": " + raw})
		return false
	}
	if cur := w.epoch.Load(); e < cur {
		w.reg.Counter("stir_cluster_fenced_total", "worker", w.name, "route", route).Inc()
		if sp := trace.FromContext(r.Context()); sp != nil {
			sp.Annotate("fenced", "stale epoch "+raw)
		}
		jsonReply(rw, http.StatusPreconditionFailed, httpError{
			Error: "stale epoch " + raw + " (watermark " + strconv.FormatInt(cur, 10) + ")",
		})
		return false
	}
	w.advanceEpoch(e)
	return true
}

// ParseSeq decodes a forward-sequence cursor; empty or malformed means 0
// ("replay everything").
func ParseSeq(s string) int64 {
	if s == "" {
		return 0
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// FormatSeq encodes a forward sequence as an engine cursor.
func FormatSeq(n int64) string { return strconv.FormatInt(n, 10) }

// ingestAck acknowledges an applied forward (an ack frame). Seq is the
// highest sequence the worker has applied; DurableSeq the highest one a
// committed checkpoint covers — the router trims its journal to it.
type ingestAck struct {
	Accepted   int
	Seq        int64
	DurableSeq int64
}

// helloResponse is the join handshake: who the worker is and where its
// durable state ends.
type helloResponse struct {
	Name       string `json:"name"`
	DurableSeq int64  `json:"durable_seq"`
	Users      int    `json:"users"`
	// Epoch is the worker's fence watermark; a freshly restarted router
	// adopts the highest one it hears so its own forwards pass the fences.
	Epoch int64 `json:"epoch"`
	// Degraded reports a disk-degraded checkpoint store: the worker keeps
	// serving reads, but the router should defer its forwards to the journal
	// until the store heals.
	Degraded bool `json:"degraded,omitempty"`
}

// Handler returns the worker's full HTTP surface: cluster endpoints plus the
// engine's /v1 query API.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/v1/ingest", w.fenced("ingest", w.handleIngest))
	mux.HandleFunc("/cluster/v1/checkpoint", w.fenced("checkpoint", w.handleCheckpoint))
	mux.HandleFunc("/cluster/v1/hello", w.handleHello)
	mux.HandleFunc("/cluster/v1/summaries", w.fenced("summaries", w.handleSummaries))
	mux.HandleFunc("/cluster/v1/groupings", w.fenced("groupings", w.handleGroupings))
	mux.HandleFunc("/cluster/v1/export", w.fenced("export", w.handleExport))
	mux.HandleFunc("/cluster/v1/import", w.fenced("import", w.handleImport))
	mux.HandleFunc("/cluster/v1/drop", w.fenced("drop", w.handleDrop))
	mux.Handle("/v1/", w.fenced("query", w.eng.Handler().ServeHTTP))
	return mux
}

// fenced wraps a handler with the epoch check. Hello stays unfenced: it is
// the probe and handshake route, and a partitioned worker must keep
// answering it so the detector can heal the membership.
func (w *Worker) fenced(route string, next http.HandlerFunc) http.HandlerFunc {
	return func(rw http.ResponseWriter, r *http.Request) {
		if !w.fence(rw, r, route) {
			return
		}
		next(rw, r)
	}
}

func (w *Worker) handleIngest(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		jsonReply(rw, http.StatusMethodNotAllowed, httpError{Error: "POST only"})
		return
	}
	if w.eng.CheckpointStalled() {
		// The memory-only dirty window is exhausted while checkpoints defer
		// on a full disk: accepting more would grow un-checkpointable state
		// without bound. 503 keeps the batch in the router's journal; it
		// replays when the store heals. (This is the backstop — the router
		// normally stops forwarding as soon as a probe reports degraded.)
		w.reg.Counter("stir_cluster_ingest_shed_total", "worker", w.name).Inc()
		jsonReply(rw, http.StatusServiceUnavailable, httpError{
			Error: "disk degraded: checkpoint dirty window exhausted",
		})
		return
	}
	var seq int64
	var tweets []twitter.Tweet
	err := withBody(r.Body, r.ContentLength, func(b []byte) (err error) {
		seq, tweets, err = readForward(b)
		return err
	})
	if err != nil {
		jsonReply(rw, http.StatusBadRequest, httpError{Error: "bad batch: " + err.Error()})
		return
	}
	accepted, refused := 0, 0
	for i := range tweets {
		if w.eng.Ingest(&tweets[i]) {
			accepted++
		} else {
			refused++
		}
	}
	if refused > 0 {
		// The engine is closing; the router must not treat this batch as
		// applied or its journal trim would lose the refused tweets.
		jsonReply(rw, http.StatusServiceUnavailable, httpError{Error: "engine closed mid-batch"})
		return
	}
	w.mu.Lock()
	if seq > w.lastSeq {
		w.lastSeq = seq
		w.eng.SetCursor(FormatSeq(seq))
	}
	seq = w.lastSeq
	w.mu.Unlock()
	frameReply(rw, appendAck(nil, ingestAck{
		Accepted:   accepted,
		Seq:        seq,
		DurableSeq: ParseSeq(w.eng.DurableCursor()),
	}))
}

func (w *Worker) handleCheckpoint(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		jsonReply(rw, http.StatusMethodNotAllowed, httpError{Error: "POST only"})
		return
	}
	if err := w.eng.Checkpoint(); err != nil {
		jsonReply(rw, http.StatusInternalServerError, httpError{Error: err.Error()})
		return
	}
	jsonReply(rw, http.StatusOK, map[string]int64{"durable_seq": ParseSeq(w.eng.DurableCursor())})
}

func (w *Worker) handleHello(rw http.ResponseWriter, r *http.Request) {
	// Hello advances the watermark (the router teaches new generations on
	// the probe path) but never fences — see fenced.
	if raw := r.Header.Get(EpochHeader); raw != "" {
		if e, err := strconv.ParseInt(raw, 10, 64); err == nil {
			w.advanceEpoch(e)
		}
	}
	jsonReply(rw, http.StatusOK, helloResponse{
		Name:       w.name,
		DurableSeq: ParseSeq(w.eng.DurableCursor()),
		Users:      w.eng.Stats().Users,
		Epoch:      w.epoch.Load(),
		Degraded:   w.eng.Degraded(),
	})
}

// maxSummaryPartitions bounds ?partitions= on the summaries route: every
// engine shard keeps that many summaries once asked.
const maxSummaryPartitions = 1 << 16

// handleSummaries serves the engine's non-empty partition summaries as a
// summaries frame. Like groupings it drains first, so a read through the
// router sees every write the router acknowledged.
func (w *Worker) handleSummaries(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		jsonReply(rw, http.StatusMethodNotAllowed, httpError{Error: "GET only"})
		return
	}
	n, err := strconv.Atoi(r.URL.Query().Get("partitions"))
	if err != nil || n <= 0 || n > maxSummaryPartitions {
		jsonReply(rw, http.StatusBadRequest, httpError{Error: "want ?partitions=N with 0 < N <= " + strconv.Itoa(maxSummaryPartitions)})
		return
	}
	w.eng.Drain()
	sums := make([]*core.Summary, n)
	for p, s := range w.eng.PartitionSummaries(n) {
		sums[p] = s
	}
	buf := framePool.Get().(*[]byte)
	*buf = appendSummaries((*buf)[:0], sums)
	frameReply(rw, *buf)
	framePool.Put(buf)
}

func (w *Worker) handleGroupings(rw http.ResponseWriter, r *http.Request) {
	w.eng.Drain()
	jsonReply(rw, http.StatusOK, w.eng.Groupings())
}

// partSet parses the partitions/parts query params shared by export and drop.
func partSet(r *http.Request) (partitions int, parts map[int]bool, err error) {
	partitions, err = strconv.Atoi(r.URL.Query().Get("partitions"))
	if err != nil || partitions <= 0 {
		return 0, nil, errBadParts
	}
	parts = make(map[int]bool)
	for _, s := range strings.Split(r.URL.Query().Get("parts"), ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		p, perr := strconv.Atoi(s)
		if perr != nil || p < 0 || p >= partitions {
			return 0, nil, errBadParts
		}
		parts[p] = true
	}
	if len(parts) == 0 {
		return 0, nil, errBadParts
	}
	return partitions, parts, nil
}

var errBadParts = &badPartsError{}

type badPartsError struct{}

func (*badPartsError) Error() string {
	return "want ?partitions=N&parts=i,j,... with 0 <= part < N"
}

func (w *Worker) handleExport(rw http.ResponseWriter, r *http.Request) {
	partitions, parts, err := partSet(r)
	if err != nil {
		jsonReply(rw, http.StatusBadRequest, httpError{Error: err.Error()})
		return
	}
	h, err := w.eng.ExportUsers(func(id twitter.UserID) bool {
		return parts[PartitionOf(id, partitions)]
	})
	if err != nil {
		jsonReply(rw, http.StatusInternalServerError, httpError{Error: err.Error()})
		return
	}
	jsonReply(rw, http.StatusOK, h)
}

func (w *Worker) handleImport(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		jsonReply(rw, http.StatusMethodNotAllowed, httpError{Error: "POST only"})
		return
	}
	var h stream.Handoff
	if err := json.NewDecoder(r.Body).Decode(&h); err != nil {
		jsonReply(rw, http.StatusBadRequest, httpError{Error: "bad handoff: " + err.Error()})
		return
	}
	if err := w.eng.ImportUsers(h); err != nil {
		jsonReply(rw, http.StatusInternalServerError, httpError{Error: err.Error()})
		return
	}
	jsonReply(rw, http.StatusOK, map[string]int{"imported": h.Len()})
}

func (w *Worker) handleDrop(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		jsonReply(rw, http.StatusMethodNotAllowed, httpError{Error: "POST only"})
		return
	}
	partitions, parts, err := partSet(r)
	if err != nil {
		jsonReply(rw, http.StatusBadRequest, httpError{Error: err.Error()})
		return
	}
	users, rejected := w.eng.DropUsers(func(id twitter.UserID) bool {
		return parts[PartitionOf(id, partitions)]
	})
	jsonReply(rw, http.StatusOK, map[string]int{"users": users, "rejected": rejected})
}

// frameReply answers 200 with a frame.
func frameReply(rw http.ResponseWriter, frame []byte) {
	rw.Header().Set("Content-Type", frameContentType)
	rw.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	rw.WriteHeader(http.StatusOK)
	_, _ = rw.Write(frame) // a failed write is the router's read error
}

type httpError struct {
	Error string `json:"error"`
}

func jsonReply(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
