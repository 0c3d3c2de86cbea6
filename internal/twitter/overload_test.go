package twitter

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"stir/internal/obs"
	"stir/internal/overload"
)

// newTestService builds a tiny populated service for overload tests.
func newOverloadService(t *testing.T) *Service {
	t.Helper()
	svc := NewService()
	u, err := svc.CreateUser("shed-target", "Seoul", "ko", time.Date(2011, 9, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.PostTweet(u.ID, "overload probe", time.Date(2011, 9, 2, 0, 0, 0, 0, time.UTC), nil); err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestClientRidesOutServerSheds is the end-to-end overload contract between
// the STIR client and a shedding server: the server rejects with
// 503 + Retry-After, the client backs off to exactly the advertised hint,
// the request eventually succeeds, and the sheds count as throttles —
// backpressure, not failures.
func TestClientRidesOutServerSheds(t *testing.T) {
	svc := newOverloadService(t)
	api := NewAPIServer(svc, ServerOptions{})

	// Shed the first two attempts the way overload.Middleware does, then let
	// traffic through.
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(overload.ShedStatus)
			w.Write([]byte(`{"error":"overloaded","reason":"queue_full"}`))
			return
		}
		api.ServeHTTP(w, r)
	}))
	defer ts.Close()

	reg := obs.NewRegistry()
	c := NewClient(ts.URL)
	c.Metrics = reg
	var slept []time.Duration
	c.Retry.Sleep = func(_ context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}

	u, err := c.UserShow(context.Background(), UserID(1))
	if err != nil {
		t.Fatalf("UserShow through sheds: %v", err)
	}
	if u.ScreenName != "shed-target" {
		t.Fatalf("got user %q", u.ScreenName)
	}

	if m, ok := reg.Snapshot().Get("resilience_throttled_total", "policy", "twitter_client"); !ok || m.Value != 2 {
		t.Fatalf("resilience_throttled_total = %+v ok=%v, want 2", m, ok)
	}

	// The client backed off to the server's 1s hint (capped at the policy's
	// 2s MaxDelay), not its own 10ms exponential ladder.
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2 (one per shed)", len(slept))
	}
	for i, d := range slept {
		if d != time.Second {
			t.Fatalf("sleep %d = %v, want the 1s Retry-After hint", i, d)
		}
	}
}

// TestClientDeadlinePropagatesToServer verifies the other half of the
// overload contract: the client stamps its remaining budget on the wire and
// the admission middleware rejects requests whose budget is already gone.
func TestClientDeadlinePropagatesToServer(t *testing.T) {
	var gotHeader atomic.Value
	svc := newOverloadService(t)
	api := NewAPIServer(svc, ServerOptions{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotHeader.Store(r.Header.Get(overload.DeadlineHeader))
		api.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.UserShow(ctx, UserID(1)); err != nil {
		t.Fatalf("UserShow: %v", err)
	}
	raw, _ := gotHeader.Load().(string)
	if raw == "" {
		t.Fatal("client sent no X-Stir-Deadline-Ms despite a context deadline")
	}

	// A server behind admission control rejects a doomed request (budget
	// already spent) at the door without running the handler.
	shedded := httptest.NewServer(overload.Middleware(overload.MiddlewareOptions{
		Service: "twitterd",
		Metrics: obs.Discard,
	}, api))
	defer shedded.Close()
	req, _ := http.NewRequest("GET", shedded.URL+"/1/users/show.json?user_id=1", nil)
	req.Header.Set(overload.DeadlineHeader, "0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != overload.ShedStatus {
		t.Fatalf("doomed request = %d, want %d", resp.StatusCode, overload.ShedStatus)
	}
}

// TestPerClientLimitIsolatesHotClient pins the keyed-limiter wiring: a
// client that burns its own budget gets 429s while another client on the
// same server keeps its full budget.
func TestPerClientLimitIsolatesHotClient(t *testing.T) {
	svc := newOverloadService(t)
	api := NewAPIServer(svc, ServerOptions{
		RESTLimit:      100,
		PerClientLimit: 2,
		Window:         time.Minute,
	})
	ts := httptest.NewServer(api)
	defer ts.Close()

	get := func(token string) *http.Response {
		req, _ := http.NewRequest("GET", ts.URL+"/1/users/show.json?user_id=1", nil)
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Hot client exhausts its per-client budget.
	for i := 0; i < 2; i++ {
		if resp := get("hot"); resp.StatusCode != http.StatusOK {
			t.Fatalf("hot request %d = %d, want 200", i, resp.StatusCode)
		}
	}
	resp := get("hot")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("hot request over budget = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("per-client 429 carried no Retry-After")
	}
	if got := resp.Header.Get("X-RateLimit-Remaining"); got != "0" {
		t.Fatalf("per-client remaining = %q, want 0", got)
	}

	// A different credential still has its whole budget: the hot client
	// neither blocked it nor drained the shared pool.
	if resp := get("calm"); resp.StatusCode != http.StatusOK {
		t.Fatalf("calm client = %d, want 200", resp.StatusCode)
	}
}
