package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// GroupsResult is the cluster-wide /v1/groups answer: the envelope a single
// worker serves, with the router's worker accounting filled in.
type GroupsResult = core.GroupsResult

// GroupStatView is the per-group row, the same one a worker serves.
type GroupStatView = core.GroupRow

// StatsResult is the cluster-wide /v1/stats answer: worker counters summed,
// plus the router's own routing counters.
type StatsResult struct {
	Workers   int           `json:"workers"`
	WorkersOK int           `json:"workers_ok"`
	Partial   bool          `json:"partial"`
	Errors    []WorkerError `json:"errors,omitempty"`

	Users         int   `json:"users"`
	RejectedUsers int   `json:"rejected_users"`
	Ingested      int64 `json:"ingested"`
	stream.Ledger
	Checkpoints int64 `json:"checkpoints"`

	RouterSeq int64 `json:"router_seq"`
}

// membership snapshots the ring and the workers, sorted by name, under one
// read lock, so a query reads one membership.
func (r *Router) membership() (*Ring, []*workerRef) {
	r.mu.RLock()
	ring := r.ring
	workers := make([]*workerRef, 0, len(r.workers))
	for _, w := range r.workers {
		workers = append(workers, w)
	}
	r.mu.RUnlock()
	sort.Slice(workers, func(i, j int) bool { return workers[i].name < workers[j].name })
	return ring, workers
}

// acquire takes a fan-out slot, or gives up when ctx ends first. The caller
// releases a slot it got with <-r.sem.
func (r *Router) acquire(ctx context.Context) error {
	select {
	case r.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("cluster: waiting for a fan-out slot: %w", ctx.Err())
	}
}

// gather fans one request out to workers (serving or not — a suspect or
// down worker yields an error entry without a network call) under the
// fan-out semaphore, and decodes each reply with read. Each worker's ScatterTimeout starts before
// it waits for a slot, so a query never outlasts it behind calls stuck on
// some other worker; a wait that times out is that worker's error.
func gather[T any](r *Router, ctx context.Context, workers []*workerRef, path string, read func(*http.Response) (T, error)) (map[string]T, []WorkerError) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		out  = make(map[string]T, len(workers))
		errs []WorkerError
	)
	for _, w := range workers {
		if !w.state().serving() {
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
			cctx, cancel := context.WithTimeout(ctx, r.opts.ScatterTimeout)
			defer cancel()
			var v T
			err := r.acquire(cctx)
			if err == nil {
				err = r.do(cctx, http.MethodGet, w.baseURL()+path, "", nil, func(resp *http.Response) (err error) {
					v, err = read(resp)
					return err
				})
				<-r.sem
			}
			if err != nil {
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

// readJSON decodes a JSON reply.
func readJSON[T any](resp *http.Response) (T, error) {
	var v T
	err := json.NewDecoder(resp.Body).Decode(&v)
	return v, err
}

// readSummariesReply decodes a summaries frame for the router's partition
// count.
func (r *Router) readSummariesReply(resp *http.Response) (sums []*core.Summary, err error) {
	err = withBody(resp.Body, resp.ContentLength, func(b []byte) error {
		sums, err = readSummaries(b, r.opts.Partitions)
		return err
	})
	return sums, err
}

// Groupings gathers and merges every worker's per-user groupings: the full
// cluster state in the batch pipeline's shape, for export and differential
// checks (queries read Groups). With replicas > 1 a user appears on several
// workers; the copy with the most tweets wins (on a drained cluster the
// replicas are identical, so the merge is exact). The slice is sorted by
// user ID — the batch pipeline's order.
func (r *Router) Groupings(ctx context.Context) ([]core.UserGrouping, []WorkerError) {
	_, workers := r.membership()
	perWorker, errs := gather(r, ctx, workers, "/cluster/v1/groupings", readJSON[[]core.UserGrouping])
	byUser := make(map[int64]core.UserGrouping)
	for _, w := range workers {
		for _, g := range perWorker[w.name] {
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

// Groups answers /v1/groups from the workers' partition summaries
// (/cluster/v1/summaries) in O(partitions × groups), whatever the user
// count. Each partition contributes one summary: that of the answering
// member of its owner set (Ring.Owners, primary first) holding the most
// tweets, the earlier owner on a tie. On a drained cluster a partition's
// replicas hold the same users, so the answer is exact. A copy of a
// partition on a worker outside its owner set, as a failed handoff drop
// leaves behind, is never read. The answer is partial only when some
// partition has no answering owner; a worker that failed to answer is
// listed in errors either way.
func (r *Router) Groups(ctx context.Context) (GroupsResult, int) {
	ring, workers := r.membership()
	perWorker, errs := gather(r, ctx, workers,
		"/cluster/v1/summaries?partitions="+strconv.Itoa(r.opts.Partitions), r.readSummariesReply)
	var sum core.Summary
	partial := false
	for p := 0; p < r.opts.Partitions; p++ {
		var best *core.Summary // nil when the owners that answered hold no user of p
		most := -1             // -1 until some owner of p answers
		for _, o := range ring.Owners(p, r.opts.Replicas) {
			if sums, ok := perWorker[o]; ok {
				if t := tweetsIn(sums[p]); t > most {
					best, most = sums[p], t
				}
			}
		}
		partial = partial || most < 0
		if best != nil {
			sum.Merge(best)
		}
	}
	res := sum.Analysis().Result()
	res.Workers = len(workers)
	res.WorkersOK = len(workers) - len(errs)
	res.Partial = partial
	res.Errors = errs
	status := http.StatusOK
	if res.Workers > 0 && res.WorkersOK == 0 {
		status = http.StatusServiceUnavailable
	}
	return res, status
}

// tweetsIn is a summary's tweet total; a nil summary holds none.
func tweetsIn(s *core.Summary) int {
	if s == nil {
		return 0
	}
	_, tweets := s.Counts()
	n := 0
	for _, t := range tweets {
		n += t
	}
	return n
}

// Stats sums every worker's ingestion counters.
func (r *Router) Stats(ctx context.Context) (StatsResult, int) {
	_, workers := r.membership()
	perWorker, errs := gather(r, ctx, workers, "/v1/stats", readJSON[stream.Stats])
	total := len(workers)
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
		res.Add(s.Ledger)
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
		if w == nil || !w.state().serving() {
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

// Handler returns the router's HTTP surface:
//
//	POST /v1/ingest              route a batch of tweets to their shards
//	GET  /v1/groups              cluster-wide §IV statistics (partial-tolerant)
//	GET  /v1/stats               summed worker counters (partial-tolerant)
//	GET  /v1/users/{id}          single-user lookup via the owning replicas
//	GET  /cluster/v1/members     membership: health, cursors, journals, partitions
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
