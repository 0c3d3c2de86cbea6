package stream

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"

	"stir/internal/core"
	"stir/internal/obs"
	"stir/internal/twitter"
)

// Query API over the live engine:
//
//	GET /v1/groups          per-group §IV statistics from a fresh snapshot
//	GET /v1/users/{id}      one user's group, rank and reliability weight
//	GET /v1/stats           ingestion counters (processed, dropped, reconnects…)
//
// Mounted by `stir stream` alongside /metrics and /healthz.

type httpError struct {
	Error string `json:"error"`
}

type groupsResponse struct {
	Users               int             `json:"users"`
	Tweets              int             `json:"tweets"`
	Groups              []core.GroupRow `json:"groups"`
	OverallAvgDistricts float64         `json:"overall_avg_districts"`
	OverallMatchShare   float64         `json:"overall_match_share"`
}

// Handler returns the engine's query API, instrumented into the engine's
// metrics registry.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/groups", e.handleGroups)
	mux.HandleFunc("/v1/users/", e.handleUser)
	mux.HandleFunc("/v1/stats", e.handleStats)
	return obs.InstrumentHandler(e.reg, "stream", streamRoute, mux)
}

func streamRoute(r *http.Request) string {
	if strings.HasPrefix(r.URL.Path, "/v1/users/") {
		return "/v1/users/{id}"
	}
	return r.URL.Path
}

func jsonReply(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (e *Engine) handleGroups(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		jsonReply(w, http.StatusMethodNotAllowed, httpError{Error: "GET only"})
		return
	}
	a := e.Snapshot().Analysis
	jsonReply(w, http.StatusOK, groupsResponse{
		Users:               a.Users,
		Tweets:              a.Tweets,
		Groups:              a.Rows(),
		OverallAvgDistricts: a.OverallAvgDistricts,
		OverallMatchShare:   a.OverallMatchShare,
	})
}

func (e *Engine) handleUser(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		jsonReply(w, http.StatusMethodNotAllowed, httpError{Error: "GET only"})
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/v1/users/")
	id, err := strconv.ParseInt(idStr, 10, 64)
	if err != nil || idStr == "" {
		jsonReply(w, http.StatusBadRequest, httpError{Error: "invalid user id"})
		return
	}
	view, ok := e.User(twitter.UserID(id))
	if !ok {
		jsonReply(w, http.StatusNotFound, httpError{Error: "unknown user"})
		return
	}
	jsonReply(w, http.StatusOK, view)
}

func (e *Engine) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		jsonReply(w, http.StatusMethodNotAllowed, httpError{Error: "GET only"})
		return
	}
	jsonReply(w, http.StatusOK, e.Stats())
}
