package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"syscall"
	"testing"
	"time"

	"stir/internal/obs"
)

// recordSleep swaps the policy's sleeper for one that records requested
// delays without actually sleeping.
func recordSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return ctx.Err()
	}
}

func TestClassifyChain(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil-ish unknown", errors.New("mystery"), ClassPermanent},
		{"marked transient", MarkTransient(errors.New("x")), ClassTransient},
		{"marked permanent overrides timeout", MarkPermanent(syscall.ETIMEDOUT), ClassPermanent},
		{"context canceled", fmt.Errorf("op: %w", context.Canceled), ClassPermanent},
		{"deadline", context.DeadlineExceeded, ClassPermanent},
		{"http 500", &StatusError{Status: 500}, ClassTransient},
		{"http 503 wrapped", fmt.Errorf("call: %w", &StatusError{Status: 503}), ClassTransient},
		{"http 429", &StatusError{Status: 429}, ClassTransient},
		{"http 404", &StatusError{Status: 404}, ClassPermanent},
		{"http 400", &StatusError{Status: 400}, ClassPermanent},
		{"conn reset", fmt.Errorf("read: %w", syscall.ECONNRESET), ClassTransient},
		{"conn refused", syscall.ECONNREFUSED, ClassTransient},
		{"unexpected EOF", io.ErrUnexpectedEOF, ClassTransient},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
	if IsTransient(nil) {
		t.Error("IsTransient(nil) = true")
	}
}

func TestRetryEventualSuccess(t *testing.T) {
	var delays []time.Duration
	p := &Policy{MaxAttempts: 5, Metrics: obs.Discard, Sleep: recordSleep(&delays)}
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return MarkTransient(errors.New("flaky"))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || len(delays) != 2 {
		t.Fatalf("calls = %d, sleeps = %d; want 3 and 2", calls, len(delays))
	}
}

func TestRetryPermanentStopsImmediately(t *testing.T) {
	var delays []time.Duration
	p := &Policy{MaxAttempts: 5, Metrics: obs.Discard, Sleep: recordSleep(&delays)}
	calls := 0
	wantErr := &StatusError{Status: 404}
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want the 404", err)
	}
	if calls != 1 || len(delays) != 0 {
		t.Fatalf("calls = %d, sleeps = %d; want 1 and 0", calls, len(delays))
	}
}

func TestRetryExhaustion(t *testing.T) {
	var delays []time.Duration
	p := &Policy{MaxAttempts: 3, Metrics: obs.Discard, Sleep: recordSleep(&delays)}
	calls := 0
	base := syscall.ECONNRESET
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return fmt.Errorf("dial: %w", base)
	})
	if err == nil || !errors.Is(err, base) {
		t.Fatalf("err = %v, want wrapped ECONNRESET", err)
	}
	if calls != 3 || len(delays) != 2 {
		t.Fatalf("calls = %d, sleeps = %d; want 3 and 2", calls, len(delays))
	}
}

func TestRetryDeterministicJitter(t *testing.T) {
	run := func() []time.Duration {
		var delays []time.Duration
		p := &Policy{MaxAttempts: 6, Seed: 42, Metrics: obs.Discard, Sleep: recordSleep(&delays)}
		p.Do(context.Background(), func(context.Context) error {
			return MarkTransient(errors.New("always"))
		})
		return delays
	}
	a, b := run(), run()
	if len(a) != 5 {
		t.Fatalf("sleeps = %d, want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Delays grow (exponential shape survives ±20% jitter at 2x growth).
	for i := 1; i < len(a)-1; i++ {
		if a[i] <= a[i-1] {
			t.Fatalf("delay %d (%v) not greater than %v", i, a[i], a[i-1])
		}
	}
}

type retryAfterErr struct{ d time.Duration }

func (e *retryAfterErr) Error() string             { return "throttled" }
func (e *retryAfterErr) Transient() bool           { return true }
func (e *retryAfterErr) RetryAfter() time.Duration { return e.d }

func TestRetryHonoursRetryAfterHint(t *testing.T) {
	var delays []time.Duration
	p := &Policy{
		MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Minute,
		JitterFrac: -1, Metrics: obs.Discard, Sleep: recordSleep(&delays),
	}
	calls := 0
	p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls == 1 {
			return &retryAfterErr{d: 750 * time.Millisecond}
		}
		return nil
	})
	if len(delays) != 1 || delays[0] != 750*time.Millisecond {
		t.Fatalf("delays = %v, want [750ms]", delays)
	}
}

func TestRetryHintCappedAtMaxDelay(t *testing.T) {
	var delays []time.Duration
	p := &Policy{
		MaxAttempts: 2, MaxDelay: 100 * time.Millisecond,
		JitterFrac: -1, Metrics: obs.Discard, Sleep: recordSleep(&delays),
	}
	calls := 0
	p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls == 1 {
			return &retryAfterErr{d: time.Hour}
		}
		return nil
	})
	if len(delays) != 1 || delays[0] != 100*time.Millisecond {
		t.Fatalf("delays = %v, want [100ms]", delays)
	}
}

func TestRetryAttemptTimeoutIsTransient(t *testing.T) {
	var delays []time.Duration
	p := &Policy{
		MaxAttempts: 3, AttemptTimeout: 5 * time.Millisecond,
		Metrics: obs.Discard, Sleep: recordSleep(&delays),
	}
	calls := 0
	err := p.Do(context.Background(), func(ctx context.Context) error {
		calls++
		if calls < 2 {
			<-ctx.Done() // burn the attempt deadline
			return ctx.Err()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (deadline retried)", calls)
	}
}

func TestRetryParentCancelStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := &Policy{MaxAttempts: 10, Metrics: obs.Discard,
		Sleep: func(ctx context.Context, _ time.Duration) error { return ctx.Err() }}
	calls := 0
	err := p.Do(ctx, func(context.Context) error {
		calls++
		cancel()
		return MarkTransient(errors.New("flaky"))
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

func TestRetryMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	var delays []time.Duration
	p := &Policy{Name: "unit", MaxAttempts: 3, Metrics: reg, Sleep: recordSleep(&delays)}
	p.Do(context.Background(), func(context.Context) error {
		return MarkTransient(errors.New("always"))
	})
	snap := reg.Snapshot()
	if m, ok := snap.Get("resilience_retries_total", "policy", "unit"); !ok || m.Value != 2 {
		t.Fatalf("retries_total = %+v ok=%v, want 2", m, ok)
	}
	if m, ok := snap.Get("resilience_giveups_total", "policy", "unit"); !ok || m.Value != 1 {
		t.Fatalf("giveups_total = %+v ok=%v, want 1", m, ok)
	}
}

func TestRetryUsesHTTPStatuser(t *testing.T) {
	// An http.Response-shaped failure path: 503 transient, then success.
	var delays []time.Duration
	p := &Policy{MaxAttempts: 3, Metrics: obs.Discard, Sleep: recordSleep(&delays)}
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls == 1 {
			return &StatusError{Status: http.StatusServiceUnavailable}
		}
		return nil
	})
	if err != nil || calls != 2 {
		t.Fatalf("err = %v calls = %d, want nil and 2", err, calls)
	}
}
