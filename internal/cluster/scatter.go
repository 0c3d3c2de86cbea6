package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"stir/internal/core"
	"stir/internal/obs"
	"stir/internal/resilience"
	"stir/internal/stream"
	"stir/internal/twitter"
)

// Scatter-gather: the router answers the same /v1 query API a single worker
// serves, by fanning the question out to every worker and merging. A worker
// that is down or times out degrades the answer instead of failing it — the
// response carries partial=true plus one WorkerError per missing shard, and
// the HTTP status stays 200 as long as at least one shard answered.

// GroupsResult is the cluster-wide /v1/groups answer.
type GroupsResult struct {
	Users               int             `json:"users"`
	Tweets              int             `json:"tweets"`
	Groups              []GroupStatView `json:"groups"`
	OverallAvgDistricts float64         `json:"overall_avg_districts"`
	OverallMatchShare   float64         `json:"overall_match_share"`
	Workers             int             `json:"workers"`
	WorkersOK           int             `json:"workers_ok"`
	Partial             bool            `json:"partial"`
	Errors              []WorkerError   `json:"errors,omitempty"`
}

// GroupStatView is the per-group row, the same one a worker serves.
type GroupStatView = core.GroupRow

// StatsResult is the cluster-wide /v1/stats answer: worker counters summed,
// plus the router's own routing counters.
type StatsResult struct {
	Workers   int           `json:"workers"`
	WorkersOK int           `json:"workers_ok"`
	Partial   bool          `json:"partial"`
	Errors    []WorkerError `json:"errors,omitempty"`

	Users           int   `json:"users"`
	RejectedUsers   int   `json:"rejected_users"`
	Ingested        int64 `json:"ingested"`
	Processed       int64 `json:"processed"`
	NonGeo          int64 `json:"non_geo"`
	GeocodeFailures int64 `json:"geocode_failures"`
	ProfileErrors   int64 `json:"profile_errors"`
	ResolveErrors   int64 `json:"resolve_errors"`
	Duplicates      int64 `json:"duplicates"`
	Dropped         int64 `json:"dropped"`
	Checkpoints     int64 `json:"checkpoints"`

	RouterSeq int64 `json:"router_seq"`
}

// gather fans one request out to every worker (up or not — a down worker
// yields an error entry without a network call) under the fan-out semaphore
// and the per-worker scatter timeout.
func gather[T any](r *Router, ctx context.Context, path string) (map[string]T, []WorkerError) {
	r.mu.RLock()
	workers := make([]*workerRef, 0, len(r.workers))
	for _, w := range r.workers {
		workers = append(workers, w)
	}
	r.mu.RUnlock()
	sort.Slice(workers, func(i, j int) bool { return workers[i].name < workers[j].name })
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		out  = make(map[string]T, len(workers))
		errs []WorkerError
	)
	for _, w := range workers {
		if !w.isUp() {
			// Under mu: goroutines spawned for earlier workers may already be
			// appending their own errors.
			mu.Lock()
			errs = append(errs, WorkerError{Worker: w.name, Error: "down (awaiting rejoin)"})
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(w *workerRef) {
			defer wg.Done()
			r.sem <- struct{}{}
			defer func() { <-r.sem }()
			cctx, cancel := context.WithTimeout(ctx, r.opts.ScatterTimeout)
			defer cancel()
			var v T
			if err := r.doJSON(cctx, http.MethodGet, w.baseURL()+path, nil, &v); err != nil {
				mu.Lock()
				errs = append(errs, WorkerError{Worker: w.name, Error: err.Error()})
				mu.Unlock()
				r.reg.Counter("stir_cluster_scatter_errors_total", "worker", w.name).Inc()
				return
			}
			mu.Lock()
			out[w.name] = v
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	sort.Slice(errs, func(i, j int) bool { return errs[i].Worker < errs[j].Worker })
	return out, errs
}

// Groupings gathers and merges every worker's per-user groupings. With
// replicas > 1 a user appears on several workers; the copy with the most
// tweets wins (on a drained cluster the replicas are identical, so the merge
// is exact). The slice is sorted by user ID — the batch pipeline's order.
func (r *Router) Groupings(ctx context.Context) ([]core.UserGrouping, []WorkerError) {
	perWorker, errs := gather[[]core.UserGrouping](r, ctx, "/cluster/v1/groupings")
	names := make([]string, 0, len(perWorker))
	for n := range perWorker {
		names = append(names, n)
	}
	sort.Strings(names)
	byUser := make(map[int64]core.UserGrouping)
	for _, n := range names {
		for _, g := range perWorker[n] {
			if have, ok := byUser[g.UserID]; !ok || g.TotalTweets > have.TotalTweets {
				byUser[g.UserID] = g
			}
		}
	}
	out := make([]core.UserGrouping, 0, len(byUser))
	for _, g := range byUser {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UserID < out[j].UserID })
	return out, errs
}

// Groups computes the cluster-wide §IV analysis from the merged groupings.
func (r *Router) Groups(ctx context.Context) (GroupsResult, int) {
	gs, errs := r.Groupings(ctx)
	r.mu.RLock()
	total := len(r.workers)
	r.mu.RUnlock()
	a := core.Analyze(gs)
	res := GroupsResult{
		Users:               a.Users,
		Tweets:              a.Tweets,
		Groups:              a.Rows(),
		OverallAvgDistricts: a.OverallAvgDistricts,
		OverallMatchShare:   a.OverallMatchShare,
		Workers:             total,
		WorkersOK:           total - len(errs),
		Partial:             len(errs) > 0,
		Errors:              errs,
	}
	status := http.StatusOK
	if total > 0 && res.WorkersOK == 0 {
		status = http.StatusServiceUnavailable
	}
	return res, status
}

// Stats sums every worker's ingestion counters.
func (r *Router) Stats(ctx context.Context) (StatsResult, int) {
	perWorker, errs := gather[stream.Stats](r, ctx, "/v1/stats")
	r.mu.RLock()
	total := len(r.workers)
	r.mu.RUnlock()
	res := StatsResult{
		Workers:   total,
		WorkersOK: total - len(errs),
		Partial:   len(errs) > 0,
		Errors:    errs,
		RouterSeq: r.seq.Load(),
	}
	for _, s := range perWorker {
		res.Users += s.Users
		res.RejectedUsers += s.RejectedUsers
		res.Ingested += s.Ingested
		res.Processed += s.Processed
		res.NonGeo += s.NonGeo
		res.GeocodeFailures += s.GeocodeFailures
		res.ProfileErrors += s.ProfileErrors
		res.ResolveErrors += s.ResolveErrors
		res.Duplicates += s.Duplicates
		res.Dropped += s.Dropped
		res.Checkpoints += s.Checkpoints
	}
	status := http.StatusOK
	if total > 0 && res.WorkersOK == 0 {
		status = http.StatusServiceUnavailable
	}
	return res, status
}

// User answers /v1/users/{id} by asking the owning replicas in primary-first
// order; the first definite answer (found or not-found) wins, and only when
// every owner errors does the lookup fail.
func (r *Router) User(ctx context.Context, id twitter.UserID) (stream.UserView, int, []WorkerError) {
	r.mu.RLock()
	ring := r.ring
	workers := make(map[string]*workerRef, len(r.workers))
	for n, w := range r.workers {
		workers[n] = w
	}
	r.mu.RUnlock()
	part := PartitionOf(id, r.opts.Partitions)
	owners := ring.Owners(part, r.opts.Replicas)
	if len(owners) == 0 {
		return stream.UserView{}, http.StatusServiceUnavailable,
			[]WorkerError{{Worker: "", Error: "no workers in the ring"}}
	}
	var errs []WorkerError
	for _, o := range owners {
		w := workers[o]
		if w == nil || !w.isUp() {
			errs = append(errs, WorkerError{Worker: o, Error: "down (awaiting rejoin)"})
			continue
		}
		cctx, cancel := context.WithTimeout(ctx, r.opts.ScatterTimeout)
		var view stream.UserView
		err := r.doJSON(cctx, http.MethodGet, w.baseURL()+"/v1/users/"+strconv.FormatInt(int64(id), 10), nil, &view)
		cancel()
		if err == nil {
			return view, http.StatusOK, nil
		}
		if se, ok := errStatus(err); ok && se == http.StatusNotFound {
			return stream.UserView{}, http.StatusNotFound, nil
		}
		errs = append(errs, WorkerError{Worker: o, Error: err.Error()})
	}
	return stream.UserView{}, http.StatusServiceUnavailable, errs
}

// errStatus unwraps a resilience.StatusError-shaped failure.
func errStatus(err error) (int, bool) {
	var se *resilience.StatusError
	if errors.As(err, &se) {
		return se.Status, true
	}
	return 0, false
}

// RingView is the admin view of membership.
type RingView struct {
	Partitions int              `json:"partitions"`
	Replicas   int              `json:"replicas"`
	Workers    []RingWorkerView `json:"workers"`
}

// RingWorkerView is one worker's row in the admin view.
type RingWorkerView struct {
	Name         string `json:"name"`
	URL          string `json:"url"`
	Up           bool   `json:"up"`
	Degraded     bool   `json:"degraded,omitempty"`
	Partitions   int    `json:"partitions"`
	JournalDepth int    `json:"journal_depth"`
	DurableSeq   int64  `json:"durable_seq"`
	AckedSeq     int64  `json:"acked_seq"`
	Evicted      int64  `json:"journal_evicted"`
}

// RingState reports current membership, ownership spread and journal state.
func (r *Router) RingState() RingView {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v := RingView{Partitions: r.opts.Partitions, Replicas: r.opts.Replicas}
	for _, name := range r.ring.Workers() {
		w := r.workers[name]
		if w == nil {
			continue
		}
		w.mu.Lock()
		url, up, degraded := w.url, w.up, w.degraded
		w.mu.Unlock()
		w.jMu.Lock()
		depth, durable, acked, evicted := len(w.journal), w.durableSeq, w.ackedSeq, w.evicted
		w.jMu.Unlock()
		v.Workers = append(v.Workers, RingWorkerView{
			Name:         name,
			URL:          url,
			Up:           up,
			Degraded:     degraded,
			Partitions:   len(r.ring.PartsOwnedBy(name, r.opts.Replicas)),
			JournalDepth: depth,
			DurableSeq:   durable,
			AckedSeq:     acked,
			Evicted:      evicted,
		})
	}
	return v
}

// Handler returns the router's HTTP surface:
//
//	POST /v1/ingest              route a batch of tweets to their shards
//	GET  /v1/groups              cluster-wide §IV statistics (partial-tolerant)
//	GET  /v1/stats               summed worker counters (partial-tolerant)
//	GET  /v1/users/{id}          single-user lookup via the owning replicas
//	GET  /cluster/v1/ring        membership + journal state
//	GET  /cluster/v1/members     failure-detector state, epoch, cursors
//	POST /cluster/v1/join        ?name=&url= — join or rejoin a worker
//	POST /cluster/v1/leave       ?name= — graceful departure with handoff
//	POST /cluster/v1/checkpoint  checkpoint every worker, trim journals
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ingest", r.handleIngest)
	mux.HandleFunc("/v1/groups", r.scatterHandler("/v1/groups", func(ctx context.Context) (any, int) {
		res, status := r.Groups(ctx)
		return res, status
	}))
	mux.HandleFunc("/v1/stats", r.scatterHandler("/v1/stats", func(ctx context.Context) (any, int) {
		res, status := r.Stats(ctx)
		return res, status
	}))
	mux.HandleFunc("/v1/users/", r.handleUser)
	mux.HandleFunc("/cluster/v1/ring", func(w http.ResponseWriter, req *http.Request) {
		jsonReply(w, http.StatusOK, r.RingState())
	})
	mux.HandleFunc("/cluster/v1/members", func(w http.ResponseWriter, req *http.Request) {
		jsonReply(w, http.StatusOK, r.Members())
	})
	mux.HandleFunc("/cluster/v1/join", r.handleJoin)
	mux.HandleFunc("/cluster/v1/leave", r.handleLeave)
	mux.HandleFunc("/cluster/v1/checkpoint", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			jsonReply(w, http.StatusMethodNotAllowed, httpError{Error: "POST only"})
			return
		}
		errs := r.CheckpointAll(req.Context())
		jsonReply(w, http.StatusOK, map[string]any{"errors": errs})
	})
	return obs.InstrumentHandler(r.reg, "router", routerRoute, mux)
}

func routerRoute(req *http.Request) string {
	if strings.HasPrefix(req.URL.Path, "/v1/users/") {
		return "/v1/users/{id}"
	}
	return req.URL.Path
}

// scatterHandler wraps one fan-out route with the scatter latency histogram
// (exemplar-linked to the request's trace).
func (r *Router) scatterHandler(route string, fn func(context.Context) (any, int)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			jsonReply(w, http.StatusMethodNotAllowed, httpError{Error: "GET only"})
			return
		}
		start := time.Now()
		res, status := fn(req.Context())
		r.reg.Histogram("stir_cluster_scatter_seconds", obs.DefBuckets, "route", route).
			ObserveWithExemplar(time.Since(start).Seconds(), obs.ExemplarFromContext(req.Context()), start)
		jsonReply(w, status, res)
	}
}

func (r *Router) handleIngest(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		jsonReply(w, http.StatusMethodNotAllowed, httpError{Error: "POST only"})
		return
	}
	var tweets []*twitter.Tweet
	if err := decodeJSON(req, &tweets); err != nil {
		jsonReply(w, http.StatusBadRequest, httpError{Error: "bad batch: " + err.Error()})
		return
	}
	rep := r.IngestBatch(req.Context(), tweets)
	status := http.StatusOK
	if rep.Unrouted > 0 && rep.Forwarded == 0 && rep.Deferred == 0 {
		status = http.StatusServiceUnavailable
	}
	jsonReply(w, status, rep)
}

func (r *Router) handleUser(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		jsonReply(w, http.StatusMethodNotAllowed, httpError{Error: "GET only"})
		return
	}
	idStr := strings.TrimPrefix(req.URL.Path, "/v1/users/")
	id, err := strconv.ParseInt(idStr, 10, 64)
	if err != nil || idStr == "" {
		jsonReply(w, http.StatusBadRequest, httpError{Error: "invalid user id"})
		return
	}
	start := time.Now()
	view, status, errs := r.User(req.Context(), twitter.UserID(id))
	r.reg.Histogram("stir_cluster_scatter_seconds", obs.DefBuckets, "route", "/v1/users/{id}").
		ObserveWithExemplar(time.Since(start).Seconds(), obs.ExemplarFromContext(req.Context()), start)
	switch status {
	case http.StatusOK:
		jsonReply(w, http.StatusOK, view)
	case http.StatusNotFound:
		jsonReply(w, http.StatusNotFound, httpError{Error: "unknown user"})
	default:
		jsonReply(w, status, map[string]any{"error": "all owners unreachable", "errors": errs})
	}
}

func (r *Router) handleJoin(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		jsonReply(w, http.StatusMethodNotAllowed, httpError{Error: "POST only"})
		return
	}
	name := req.URL.Query().Get("name")
	url := req.URL.Query().Get("url")
	if err := r.AddWorker(req.Context(), name, url); err != nil {
		jsonReply(w, http.StatusBadGateway, httpError{Error: err.Error()})
		return
	}
	jsonReply(w, http.StatusOK, map[string]string{"joined": name})
}

func (r *Router) handleLeave(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		jsonReply(w, http.StatusMethodNotAllowed, httpError{Error: "POST only"})
		return
	}
	name := req.URL.Query().Get("name")
	if err := r.Leave(req.Context(), name); err != nil {
		jsonReply(w, http.StatusBadGateway, httpError{Error: err.Error()})
		return
	}
	jsonReply(w, http.StatusOK, map[string]string{"left": name})
}

func decodeJSON(req *http.Request, v any) error {
	return json.NewDecoder(req.Body).Decode(v)
}
