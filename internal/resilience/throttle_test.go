package resilience

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"stir/internal/obs"
)

func TestIsThrottle(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain error", errors.New("boom"), false},
		{"429 without hint", &StatusError{Status: http.StatusTooManyRequests}, true},
		{"503 with Retry-After", &StatusError{Status: http.StatusServiceUnavailable, Wait: time.Second}, true},
		{"503 without hint", &StatusError{Status: http.StatusServiceUnavailable}, false},
		{"500 without hint", &StatusError{Status: http.StatusInternalServerError}, false},
		{"wrapped shed", MarkTransient(&StatusError{Status: 503, Wait: 2 * time.Second}), true},
	}
	for _, c := range cases {
		if got := IsThrottle(c.err); got != c.want {
			t.Errorf("IsThrottle(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestThrottlesRetriedAndCounted pins the contract the overload layer
// depends on: a server shedding with Retry-After is managing load, so every
// shed is retried and counted as a throttle, not given up on.
func TestThrottlesRetriedAndCounted(t *testing.T) {
	reg := obs.NewRegistry()
	p := &Policy{
		Name:        "shed",
		MaxAttempts: 6,
		Metrics:     reg,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}

	shed := &StatusError{Status: http.StatusServiceUnavailable, Wait: time.Second}
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return shed
	})
	if err == nil || !strings.Contains(err.Error(), "6 attempts exhausted") {
		t.Fatalf("Do = %v, want 6 attempts exhausted", err)
	}
	if calls != 6 {
		t.Fatalf("op ran %d times, want every one of 6 attempts", calls)
	}
	snap := reg.Snapshot()
	if m, ok := snap.Get("resilience_throttled_total", "policy", "shed"); !ok || m.Value != 6 {
		t.Fatalf("resilience_throttled_total = %+v ok=%v, want 6", m, ok)
	}
	if m, ok := snap.Get("resilience_retries_total", "policy", "shed"); !ok || m.Value != 5 {
		t.Fatalf("resilience_retries_total = %+v ok=%v, want 5", m, ok)
	}
}

// TestResponseError pins the one reader of a server's shed: Retry-After
// first, then X-RateLimit-Reset, else no hint and the policy's own backoff.
func TestResponseError(t *testing.T) {
	reset := func(d time.Duration) string { return strconv.FormatInt(time.Now().Add(d).Unix(), 10) }
	cases := []struct {
		name     string
		status   int
		header   map[string]string
		min, max time.Duration
	}{
		{"Retry-After only", 503, map[string]string{"Retry-After": "3"}, 3 * time.Second, 3 * time.Second},
		{"X-RateLimit-Reset only", 429, map[string]string{"X-RateLimit-Reset": reset(30 * time.Second)}, 28 * time.Second, 30 * time.Second},
		{"both: Retry-After wins", 429, map[string]string{"Retry-After": "2", "X-RateLimit-Reset": reset(30 * time.Second)}, 2 * time.Second, 2 * time.Second},
		{"neither", 429, nil, 0, 0},
		{"plain 500", 500, nil, 0, 0},
		{"malformed Retry-After", 503, map[string]string{"Retry-After": "soon"}, 0, 0},
		{"zero Retry-After", 503, map[string]string{"Retry-After": "0"}, 0, 0},
		{"negative Retry-After", 503, map[string]string{"Retry-After": "-5"}, 0, 0},
		{"malformed reset", 429, map[string]string{"X-RateLimit-Reset": "later"}, 0, 0},
		{"zero reset", 429, map[string]string{"X-RateLimit-Reset": "0"}, 0, 0},
		{"negative reset", 429, map[string]string{"X-RateLimit-Reset": "-60"}, 0, 0},
		{"reset already past", 429, map[string]string{"X-RateLimit-Reset": reset(-time.Minute)}, 0, 0},
		{"hint above MaxDelay stays uncapped", 503, map[string]string{"Retry-After": "3600"}, time.Hour, time.Hour},
	}
	for _, c := range cases {
		resp := &http.Response{StatusCode: c.status, Header: http.Header{}}
		for k, v := range c.header {
			resp.Header.Set(k, v)
		}
		se := ResponseError(resp)
		if se.Status != c.status || se.Wait < c.min || se.Wait > c.max {
			t.Errorf("%s: ResponseError = {%d %v}, want status %d wait in [%v, %v]",
				c.name, se.Status, se.Wait, c.status, c.min, c.max)
		}
	}

	// The policy clamps a hint above MaxDelay and otherwise falls back to
	// its own backoff.
	for _, c := range []struct {
		name string
		ra   string
		want time.Duration
	}{
		{"hint above MaxDelay", "3600", 2 * time.Second},
		{"hint below MaxDelay", "1", time.Second},
		{"no hint", "", 25 * time.Millisecond},
	} {
		var slept []time.Duration
		p := &Policy{MaxAttempts: 2, JitterFrac: -1, Metrics: obs.Discard, Sleep: recordSleep(&slept)}
		resp := &http.Response{StatusCode: http.StatusServiceUnavailable, Header: http.Header{}}
		if c.ra != "" {
			resp.Header.Set("Retry-After", c.ra)
		}
		p.Do(context.Background(), func(context.Context) error { return ResponseError(resp) })
		if len(slept) != 1 || slept[0] != c.want {
			t.Errorf("%s: slept %v, want [%v]", c.name, slept, c.want)
		}
	}
}

// TestRetryAfterHintStretchesBackoff verifies the shed hint actually shapes
// the client's sleep: the first backoff would nominally be ~25ms, but the
// server asked for 300ms, so the client waits at least that.
func TestRetryAfterHintStretchesBackoff(t *testing.T) {
	var slept []time.Duration
	p := &Policy{
		Name:        "hinted",
		MaxAttempts: 2,
		JitterFrac:  -1, // deterministic delays
		Metrics:     obs.Discard,
		Sleep: func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	shed := &StatusError{Status: http.StatusServiceUnavailable, Wait: 300 * time.Millisecond}
	attempts := 0
	err := p.Do(context.Background(), func(context.Context) error {
		attempts++
		if attempts == 1 {
			return shed
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if len(slept) != 1 || slept[0] != 300*time.Millisecond {
		t.Fatalf("slept %v, want exactly the 300ms server hint", slept)
	}
}
