package geocode

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"stir/internal/admin"
	"stir/internal/geo"
	"stir/internal/obs"
	"stir/internal/ratelimit"
)

// Server answers reverse-geocoding queries over HTTP:
//
//	GET /v1/reverse?lat=37.517&lon=126.866
//
// responding with a ResultSet XML document. Each point costs one gazetteer
// walk; request counts, latencies and throttle rejections are published on
// the configured metrics registry.
type Server struct {
	gaz     *admin.Gazetteer
	limiter *ratelimit.Limiter
	slackKm float64
	mux     *http.ServeMux
	handler http.Handler
}

// ServerOptions configures a Server.
type ServerOptions struct {
	// Limit is the fixed-window request budget (0 disables limiting).
	Limit int
	// Window is the limit window (default one hour, like metered geo APIs).
	Window time.Duration
	// SlackKm is how far outside every district extent a point may fall and
	// still resolve to the nearest district (default 10 km; negative
	// disables nearest-match fallback).
	SlackKm float64
	// Metrics receives the server's request series (nil means
	// obs.Default; obs.Discard disables).
	Metrics *obs.Registry
}

// NewServer builds a reverse-geocoding server over the gazetteer.
func NewServer(gaz *admin.Gazetteer, opts ServerOptions) *Server {
	if opts.Window <= 0 {
		opts.Window = time.Hour
	}
	if opts.SlackKm == 0 {
		opts.SlackKm = 10
	}
	s := &Server{
		gaz:     gaz,
		limiter: ratelimit.New(opts.Limit, opts.Window),
		slackKm: opts.SlackKm,
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("/v1/reverse", s.handleReverse)
	s.mux.HandleFunc("/v1/reverse_batch", s.handleReverseBatch)
	reg := obs.Or(opts.Metrics)
	s.handler = obs.InstrumentHandler(reg, "geocoded", s.route, s.mux)
	return s
}

// route keeps the middleware's route label bounded to registered patterns.
func (s *Server) route(r *http.Request) string {
	if _, pattern := s.mux.Handler(r); pattern != "" {
		return pattern
	}
	return "unmatched"
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

func writeXML(w http.ResponseWriter, status int, rs *ResultSet) {
	b, err := rs.Marshal()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	w.WriteHeader(status)
	w.Write(b)
}

// allow consumes one rate-limit token, writing the budget headers; on
// exhaustion it answers the 429 itself (with Retry-After) and returns false.
func (s *Server) allow(w http.ResponseWriter) bool {
	st, ok := s.limiter.Allow()
	st.SetHeaders(w.Header())
	if !ok {
		w.Header().Set("Retry-After", strconv.Itoa(st.RetryAfterSeconds(time.Now())))
		writeXML(w, http.StatusTooManyRequests, &ResultSet{Error: CodeThrottled, Message: "rate limit exceeded"})
	}
	return ok
}

// resolve answers one point with one gazetteer walk. Its quality is
// "exact" when p lies inside the district's extent, "nearest" when the
// slack fallback found it and "none" when nothing did.
func (s *Server) resolve(p geo.Point) Result {
	d, contained, err := s.gaz.Locate(p, s.slackKm)
	switch {
	case err != nil:
		return Result{Quality: "none"}
	case contained:
		return Result{Quality: "exact", Location: locationOf(d)}
	default:
		return Result{Quality: "nearest", Location: locationOf(d)}
	}
}

func (s *Server) handleReverse(w http.ResponseWriter, r *http.Request) {
	if !s.allow(w) {
		return
	}
	lat, err1 := strconv.ParseFloat(r.URL.Query().Get("lat"), 64)
	lon, err2 := strconv.ParseFloat(r.URL.Query().Get("lon"), 64)
	if err1 != nil || err2 != nil {
		writeXML(w, http.StatusBadRequest, &ResultSet{Error: CodeBadRequest, Message: "lat and lon are required decimal degrees"})
		return
	}
	p, err := geo.NewPoint(lat, lon)
	if err != nil {
		writeXML(w, http.StatusBadRequest, &ResultSet{Error: CodeBadRequest, Message: err.Error()})
		return
	}
	res := s.resolve(p)
	if res.Quality == "none" {
		writeXML(w, http.StatusNotFound, &ResultSet{Error: CodeNoMatch, Message: "no district near point"})
		return
	}
	writeXML(w, http.StatusOK, &ResultSet{Error: CodeOK, Results: []Result{res}})
}

// maxBatchPoints bounds one reverse_batch request, like real metered APIs.
const maxBatchPoints = 100

// handleReverseBatch resolves up to 100 newline-separated "lat,lon" pairs
// from a POST body in one rate-limit token. The response ResultSet carries
// one Result per input line, in order; unresolvable points yield a Result
// with empty location and quality "none".
func (s *Server) handleReverseBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeXML(w, http.StatusMethodNotAllowed, &ResultSet{Error: CodeBadRequest, Message: "POST required"})
		return
	}
	if !s.allow(w) {
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeXML(w, http.StatusBadRequest, &ResultSet{Error: CodeBadRequest, Message: "unreadable body"})
		return
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) == 1 && lines[0] == "" {
		writeXML(w, http.StatusBadRequest, &ResultSet{Error: CodeBadRequest, Message: "empty batch"})
		return
	}
	if len(lines) > maxBatchPoints {
		writeXML(w, http.StatusBadRequest, &ResultSet{
			Error:   CodeBadRequest,
			Message: fmt.Sprintf("batch too large: %d > %d points", len(lines), maxBatchPoints),
		})
		return
	}
	rs := &ResultSet{Error: CodeOK}
	for _, line := range lines {
		parts := strings.SplitN(strings.TrimSpace(line), ",", 2)
		if len(parts) != 2 {
			writeXML(w, http.StatusBadRequest, &ResultSet{Error: CodeBadRequest, Message: "lines must be lat,lon"})
			return
		}
		lat, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		lon, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		p, err3 := geo.NewPoint(lat, lon)
		if err1 != nil || err2 != nil || err3 != nil {
			writeXML(w, http.StatusBadRequest, &ResultSet{Error: CodeBadRequest, Message: "invalid coordinates in batch"})
			return
		}
		rs.Results = append(rs.Results, s.resolve(p))
	}
	writeXML(w, http.StatusOK, rs)
}
