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
	"stir/internal/geofast"
	"stir/internal/obs"
	"stir/internal/ratelimit"
)

// Server answers reverse-geocoding queries over HTTP:
//
//	GET /v1/reverse?lat=37.517&lon=126.866
//
// responding with a ResultSet XML document. Resolutions are memoised in an
// LRU keyed on the exact coordinates, so hot districts cost one gazetteer
// walk; request counts, latencies and throttle rejections are published on
// the configured metrics registry.
type Server struct {
	gaz     *admin.Gazetteer
	limiter *ratelimit.Limiter
	slackKm float64
	mux     *http.ServeMux
	handler http.Handler
	memo    *lruCache[geo.Point, resolution]
	grid    *geofast.Grid
}

// resolution is one memoised gazetteer answer.
type resolution struct {
	loc     Location
	quality string
	found   bool
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
	// CacheSize bounds the resolution memo (default 65536; negative
	// disables memoisation).
	CacheSize int
	// Metrics receives the server's request/cache series (nil means
	// obs.Default; obs.Discard disables).
	Metrics *obs.Registry
	// Fast compiles the gazetteer into a geofast cell grid at startup so
	// most points resolve without a gazetteer walk or memo probe. Results
	// are identical either way; boundary cells still take the exact path.
	Fast bool
}

// NewServer builds a reverse-geocoding server over the gazetteer.
func NewServer(gaz *admin.Gazetteer, opts ServerOptions) *Server {
	if opts.Window <= 0 {
		opts.Window = time.Hour
	}
	if opts.SlackKm == 0 {
		opts.SlackKm = 10
	}
	if opts.CacheSize == 0 {
		opts.CacheSize = 65536
	}
	s := &Server{
		gaz:     gaz,
		limiter: ratelimit.New(opts.Limit, opts.Window),
		slackKm: opts.SlackKm,
		mux:     http.NewServeMux(),
	}
	if opts.CacheSize > 0 {
		s.memo = newLRUCache[geo.Point, resolution](opts.CacheSize)
	}
	s.mux.HandleFunc("/v1/reverse", s.handleReverse)
	s.mux.HandleFunc("/v1/reverse_batch", s.handleReverseBatch)
	reg := obs.Or(opts.Metrics)
	s.handler = obs.InstrumentHandler(reg, "geocoded", s.route, s.mux)
	RegisterCacheMetrics(reg, "geocoded", s)
	if opts.Fast {
		// Grid compilation is best-effort: on a gazetteer the grid cannot
		// encode (e.g. >65534 districts) the server just keeps the exact
		// memoised path.
		if grid, err := geofast.Compile(gaz, geofast.Options{SlackKm: s.slackKm}); err == nil {
			s.grid = grid
			geofast.RegisterMetrics(reg, "geocoded", grid)
		}
	}
	return s
}

// route keeps the middleware's route label bounded to registered patterns.
func (s *Server) route(r *http.Request) string {
	if _, pattern := s.mux.Handler(r); pattern != "" {
		return pattern
	}
	return "unmatched"
}

// Stats implements StatsProvider over the server's resolution memo.
func (s *Server) Stats() CacheStats {
	if s.memo == nil {
		return CacheStats{}
	}
	return s.memo.Stats()
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

// resolve answers one point: the compiled grid first when present (constant
// and no-match cells skip both the memo and the gazetteer), then the memo,
// then the exact gazetteer walk.
func (s *Server) resolve(p geo.Point) resolution {
	if s.grid != nil {
		switch d, v := s.grid.Lookup(p.Lat, p.Lon); v {
		case geofast.Constant:
			// The point is proven to resolve by containment, so the
			// slack-free phase-1 walk would return d: quality "exact".
			return resolution{
				loc:     Location{Country: d.Country, State: d.State, County: d.County},
				quality: "exact",
				found:   true,
			}
		case geofast.Nearest:
			// Proven to miss phase 1 and win the slack fallback on d.
			return resolution{
				loc:     Location{Country: d.Country, State: d.State, County: d.County},
				quality: "nearest",
				found:   true,
			}
		case geofast.NoMatch:
			return resolution{quality: "none"}
		}
		// Boundary: fall through to the exact memoised path.
	}
	if s.memo != nil {
		if res, ok := s.memo.Get(p); ok {
			return res
		}
	}
	res := resolution{quality: "none"}
	d, err := s.gaz.ResolvePoint(p, -1)
	if err == nil {
		res.quality = "exact"
	} else if s.slackKm >= 0 {
		if d, err = s.gaz.ResolvePoint(p, s.slackKm); err == nil {
			res.quality = "nearest"
		}
	}
	if err == nil && d != nil {
		res.found = true
		res.loc = Location{Country: d.Country, State: d.State, County: d.County}
	}
	if s.memo != nil {
		s.memo.Put(p, res)
	}
	return res
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
	if !res.found {
		writeXML(w, http.StatusNotFound, &ResultSet{Error: CodeNoMatch, Message: "no district near point"})
		return
	}
	writeXML(w, http.StatusOK, &ResultSet{
		Error:   CodeOK,
		Results: []Result{{Quality: res.quality, Location: res.loc}},
	})
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
		res := s.resolve(p)
		out := Result{Quality: res.quality}
		if res.found {
			out.Location = res.loc
		}
		rs.Results = append(rs.Results, out)
	}
	writeXML(w, http.StatusOK, rs)
}
