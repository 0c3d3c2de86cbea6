package twitter

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"stir/internal/obs"
	"stir/internal/ratelimit"
)

// APIServer exposes a Service over HTTP with the Twitter API v1 surface the
// paper's collection used:
//
//	GET /1/users/show.json?user_id=N
//	GET /1/followers/ids.json?user_id=N&cursor=C
//	GET /1/statuses/user_timeline.json?user_id=N&max_id=M&count=K
//	GET /1/search.json?q=TERM&since_id=S&count=K&geo_only=1
//	GET /1/statuses/sample.json            (streaming, newline-delimited JSON)
//
// Rate limits apply per endpoint class, reported via X-RateLimit-* headers
// and a 429 status when exhausted, which is the behaviour the client SDK and
// crawler are written against.
type APIServer struct {
	svc     *Service
	mux     *http.ServeMux
	handler http.Handler

	restLimit   *ratelimit.Limiter
	searchLimit *ratelimit.Limiter
	clientLimit *ratelimit.KeyedLimiter

	// followersPageSize is how many IDs one followers/ids page returns.
	followersPageSize int
}

// ServerOptions configures an APIServer.
type ServerOptions struct {
	// RESTLimit is the fixed-window budget for REST endpoints
	// (users/show, followers/ids, user_timeline). Zero disables limiting.
	RESTLimit int
	// SearchLimit is the budget for the search endpoint. Zero disables.
	SearchLimit int
	// PerClientLimit is a per-caller budget layered under the shared ones,
	// keyed by bearer token (falling back to remote IP), so one hot crawler
	// cannot drain the budget every other client shares. Zero disables.
	PerClientLimit int
	// Window is the rate-limit window (default 15 minutes, the v1.1 value).
	Window time.Duration
	// FollowersPageSize overrides the followers/ids page size (default 5000,
	// the real endpoint's page size).
	FollowersPageSize int
	// Metrics receives the server's request/latency/rejection series (nil
	// means obs.Default; obs.Discard disables).
	Metrics *obs.Registry
}

// NewAPIServer wraps svc in an HTTP API.
func NewAPIServer(svc *Service, opts ServerOptions) *APIServer {
	if opts.Window <= 0 {
		opts.Window = 15 * time.Minute
	}
	if opts.FollowersPageSize <= 0 {
		opts.FollowersPageSize = 5000
	}
	s := &APIServer{
		svc:               svc,
		mux:               http.NewServeMux(),
		restLimit:         ratelimit.New(opts.RESTLimit, opts.Window),
		searchLimit:       ratelimit.New(opts.SearchLimit, opts.Window),
		clientLimit:       ratelimit.NewKeyed(opts.PerClientLimit, opts.Window),
		followersPageSize: opts.FollowersPageSize,
	}
	s.mux.HandleFunc("/1/users/show.json", s.limited(s.restLimit, s.handleUserShow))
	s.mux.HandleFunc("/1/users/lookup.json", s.limited(s.restLimit, s.handleUserLookup))
	s.mux.HandleFunc("/1/followers/ids.json", s.limited(s.restLimit, s.handleFollowerIDs))
	s.mux.HandleFunc("/1/statuses/user_timeline.json", s.limited(s.restLimit, s.handleTimeline))
	s.mux.HandleFunc("/1/search.json", s.limited(s.searchLimit, s.handleSearch))
	s.mux.HandleFunc("/1/statuses/sample.json", s.handleSample)
	reg := obs.Or(opts.Metrics)
	shed := svc.shed
	reg.GaugeFunc("stir_twitter_stream_shed_total", func() float64 { return float64(shed.Load()) })
	s.handler = obs.InstrumentHandler(reg, "twitterd", s.route, s.mux)
	return s
}

// route keeps the middleware's route label bounded to registered patterns.
func (s *APIServer) route(r *http.Request) string {
	if _, pattern := s.mux.Handler(r); pattern != "" {
		return pattern
	}
	return "unmatched"
}

// ServeHTTP implements http.Handler.
func (s *APIServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// apiError is the wire shape of an error response.
type apiError struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *APIServer) limited(rl *ratelimit.Limiter, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Per-client budget first: a hot client is rejected on its own
		// account and never consumes a shared token.
		cst, ok := s.clientLimit.Allow(ratelimit.ClientKey(r))
		if !ok {
			cst.SetHeaders(w.Header())
			w.Header().Set("Retry-After", strconv.Itoa(cst.RetryAfterSeconds(time.Now())))
			writeJSON(w, http.StatusTooManyRequests, apiError{Error: "Client rate limit exceeded", Code: 88})
			return
		}
		st, ok := rl.Allow()
		st.SetHeaders(w.Header())
		if cst.Limit > 0 {
			// Advertise the tighter per-client budget when both are enabled.
			cst.SetHeaders(w.Header())
		}
		if !ok {
			w.Header().Set("Retry-After", strconv.Itoa(st.RetryAfterSeconds(time.Now())))
			writeJSON(w, http.StatusTooManyRequests, apiError{Error: "Rate limit exceeded", Code: 88})
			return
		}
		h(w, r)
	}
}

func parseID(r *http.Request, name string) (int64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing %s", name)
	}
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || id <= 0 {
		return 0, fmt.Errorf("invalid %s", name)
	}
	return id, nil
}

func parseOptInt(r *http.Request, name string, def int64) int64 {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return def
	}
	return v
}

func (s *APIServer) handleUserShow(w http.ResponseWriter, r *http.Request) {
	id, err := parseID(r, "user_id")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error(), Code: 44})
		return
	}
	u, err := s.svc.User(UserID(id))
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error(), Code: 34})
		return
	}
	writeJSON(w, http.StatusOK, u)
}

// handleUserLookup serves the batch users/lookup endpoint: up to 100
// comma-separated user_ids per call, one rate-limit token for the lot —
// the economical way to hydrate a crawl frontier. Unknown IDs are silently
// omitted, matching the real endpoint.
func (s *APIServer) handleUserLookup(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("user_id")
	if raw == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "missing user_id", Code: 44})
		return
	}
	parts := strings.Split(raw, ",")
	if len(parts) > 100 {
		parts = parts[:100]
	}
	users := make([]*User, 0, len(parts))
	for _, p := range parts {
		id, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil || id <= 0 {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "invalid user_id list", Code: 44})
			return
		}
		if u, err := s.svc.User(UserID(id)); err == nil {
			users = append(users, u)
		}
	}
	writeJSON(w, http.StatusOK, users)
}

// followerIDsResponse mirrors the v1 cursored followers/ids payload.
type followerIDsResponse struct {
	IDs        []UserID `json:"ids"`
	NextCursor int64    `json:"next_cursor"`
}

func (s *APIServer) handleFollowerIDs(w http.ResponseWriter, r *http.Request) {
	id, err := parseID(r, "user_id")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error(), Code: 44})
		return
	}
	cursor := parseOptInt(r, "cursor", 0)
	if cursor < 0 {
		cursor = 0
	}
	all, err := s.svc.Followers(UserID(id))
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error(), Code: 34})
		return
	}
	start := int(cursor)
	if start > len(all) {
		start = len(all)
	}
	end := start + s.followersPageSize
	if end > len(all) {
		end = len(all)
	}
	resp := followerIDsResponse{IDs: all[start:end]}
	if end < len(all) {
		resp.NextCursor = int64(end)
	}
	writeJSON(w, http.StatusOK, resp)
}

// timelineResponse mirrors a user_timeline page.
type timelineResponse struct {
	Tweets    []*Tweet `json:"tweets"`
	NextMaxID TweetID  `json:"next_max_id"`
}

func (s *APIServer) handleTimeline(w http.ResponseWriter, r *http.Request) {
	id, err := parseID(r, "user_id")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error(), Code: 44})
		return
	}
	maxID := parseOptInt(r, "max_id", 0)
	count := int(parseOptInt(r, "count", 0))
	page, err := s.svc.UserTimeline(UserID(id), TweetID(maxID), count)
	if err != nil {
		if errors.Is(err, ErrUserNotFound) {
			writeJSON(w, http.StatusNotFound, apiError{Error: err.Error(), Code: 34})
			return
		}
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error(), Code: 131})
		return
	}
	writeJSON(w, http.StatusOK, timelineResponse{Tweets: page.Tweets, NextMaxID: page.NextMaxID})
}

// searchResponse mirrors a search page.
type searchResponse struct {
	Tweets []*Tweet `json:"tweets"`
}

func (s *APIServer) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := SearchQuery{
		Text:    r.URL.Query().Get("q"),
		SinceID: TweetID(parseOptInt(r, "since_id", 0)),
		Count:   int(parseOptInt(r, "count", 0)),
		OnlyGeo: r.URL.Query().Get("geo_only") == "1",
	}
	writeJSON(w, http.StatusOK, searchResponse{Tweets: s.svc.Search(q)})
}

// handleSample streams newline-delimited tweet JSON until the client hangs
// up, matching the statuses/sample streaming endpoint. The optional "track"
// parameter filters by substring, approximating statuses/filter.
//
// Each wake-up writes and flushes once: the tweet that arrived and every
// tweet already queued behind it, up to streamFlushBudget bytes, encoded
// into one buffer the connection reuses. An idle stream therefore still
// sends each tweet the moment it arrives, while a backlog goes out in
// batches instead of one chunk and one write per tweet.
func (s *APIServer) handleSample(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: "streaming unsupported", Code: 130})
		return
	}
	needle := strings.ToLower(r.URL.Query().Get("track"))
	ch, cancel := s.svc.OpenStream(1024)
	defer cancel()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	var buf []byte
	for {
		select {
		case <-r.Context().Done():
			return
		case t, open := <-ch:
			if !open {
				return
			}
			var err error
			buf, open, err = appendQueued(buf[:0], t, ch, needle)
			if len(buf) > 0 {
				if _, werr := w.Write(buf); werr != nil {
					return
				}
				flusher.Flush()
			}
			if !open || err != nil {
				return
			}
		}
	}
}

// streamFlushBudget bounds the bytes handleSample encodes from a backlog
// before it flushes: enough for a few hundred tweets per write, little
// enough that the first of them is not held back long.
const streamFlushBudget = 64 << 10

// appendQueued appends t, then each tweet already queued on ch, to dst as
// stream lines, leaving out those whose text does not contain needle (a
// lower-cased track filter; empty keeps all). It stops once dst holds
// streamFlushBudget bytes or the queue is empty, and reports whether ch is
// still open. A tweet that does not encode stops it with the encoder's
// error; the lines before it stay in dst.
func appendQueued(dst []byte, t *Tweet, ch <-chan *Tweet, needle string) ([]byte, bool, error) {
	for {
		if containsLower(t.Text, needle) {
			b, err := AppendTweetJSON(dst, t)
			if err != nil {
				return dst, true, err
			}
			dst = append(b, '\n')
		}
		if len(dst) >= streamFlushBudget {
			return dst, true, nil
		}
		select {
		case next, open := <-ch:
			if !open {
				return dst, false, nil
			}
			t = next
		default:
			return dst, true, nil
		}
	}
}

// containsFold reports whether s contains substr case-insensitively. Folding
// is Unicode-aware via strings.ToLower (the previous hand-rolled version
// compared byte-wise and only folded ASCII, so a track filter like "Seoul"
// matched but any non-Latin query depended on exact bytes); caseless scripts
// such as Hangul pass through ToLower untouched, so Korean district names
// match exactly, and it is the same fold Service.Search applies.
func containsFold(s, substr string) bool {
	return containsLower(s, strings.ToLower(substr))
}

// containsLower is containsFold with substr already lower-cased, so a
// stream or a search lowers its filter once rather than once per tweet.
func containsLower(s, lower string) bool {
	return lower == "" || strings.Contains(strings.ToLower(s), lower)
}
