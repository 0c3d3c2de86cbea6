// Package fault is STIR's deterministic fault-injection harness. A seeded
// Injector rolls one die per operation and injects timeouts, 5xx responses,
// connection resets or corrupt payloads at configured rates, through
// wrappers for the seams faults enter the system: an http.RoundTripper
// (client side), an http.Handler (server side) and a geocode.Resolver;
// storage faults are vfs.Fault's job. Because the roll sequence is seeded,
// every chaos test replays the exact same fault schedule — a failing run is
// reproducible with nothing but its seed.
//
// Injections are counted in fault_injected_total{kind=...} so a chaos run's
// metrics show what was thrown at the system alongside how it coped.
package fault

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"

	"stir/internal/geo"
	"stir/internal/geocode"
	"stir/internal/obs"
)

// Kind names one injected failure mode.
type Kind string

// The injectable failure modes.
const (
	KindTimeout Kind = "timeout"
	Kind5xx     Kind = "5xx"
	KindReset   Kind = "reset"
	KindCorrupt Kind = "corrupt"
	KindSlow    Kind = "slow"
)

// Rates are per-operation injection probabilities in [0,1]; their sum is
// the total fault rate (and must not exceed 1).
type Rates struct {
	// Timeout injects an i/o timeout (client) or a held-then-failed
	// response (server).
	Timeout float64
	// Error5xx injects a 503 response or a transient upstream error.
	Error5xx float64
	// Reset injects a connection reset.
	Reset float64
	// Corrupt injects a garbage payload (client/server) or a permanent
	// decode-style error (resolver).
	Corrupt float64
	// Slow injects pure latency (SlowBy) and then lets the operation
	// succeed — the overload-chaos spike shape: the upstream is alive but
	// degraded, which retries make worse and admission control must absorb.
	Slow float64
}

// Any reports whether any rate is non-zero.
func (r Rates) Any() bool {
	return r.Timeout > 0 || r.Error5xx > 0 || r.Reset > 0 || r.Corrupt > 0 || r.Slow > 0
}

// Uniform spreads a total fault rate evenly over timeout, 5xx and reset
// (the transient kinds) — the common chaos-run shape.
func Uniform(total float64) Rates {
	return Rates{Timeout: total / 3, Error5xx: total / 3, Reset: total / 3}
}

// Env knob names RatesFromEnv and SeedFromEnv read.
const (
	EnvSeed    = "STIR_FAULT_SEED"
	EnvTimeout = "STIR_FAULT_TIMEOUT"
	Env5xx     = "STIR_FAULT_5XX"
	EnvReset   = "STIR_FAULT_RESET"
	EnvCorrupt = "STIR_FAULT_CORRUPT"
	EnvSlow    = "STIR_FAULT_SLOW"
)

// RatesFromEnv reads the STIR_FAULT_* rate knobs (unset or unparsable
// means 0).
func RatesFromEnv() Rates {
	f := func(key string) float64 {
		v, err := strconv.ParseFloat(os.Getenv(key), 64)
		if err != nil || v < 0 {
			return 0
		}
		return v
	}
	return Rates{Timeout: f(EnvTimeout), Error5xx: f(Env5xx), Reset: f(EnvReset), Corrupt: f(EnvCorrupt), Slow: f(EnvSlow)}
}

// SeedFromEnv reads STIR_FAULT_SEED (unset or unparsable means def).
func SeedFromEnv(def int64) int64 {
	if v, err := strconv.ParseInt(os.Getenv(EnvSeed), 10, 64); err == nil {
		return v
	}
	return def
}

// Err is one injected failure. It classifies itself for the resilience
// layer: every kind but corrupt is transient, and the network kinds unwrap
// to the real errno so generic errors.Is checks also see them.
type Err struct{ Kind Kind }

// Error implements error.
func (e *Err) Error() string { return fmt.Sprintf("fault: injected %s", e.Kind) }

// Transient implements resilience.Transienter: a corrupt payload is the one
// kind retrying never fixes (the injector corrupts deterministically, and
// real-world corruption means a broken upstream, not a flaky wire).
func (e *Err) Transient() bool { return e.Kind != KindCorrupt }

// Timeout implements the net.Error shape probes look for.
func (e *Err) Timeout() bool { return e.Kind == KindTimeout }

// Unwrap exposes the underlying errno-style cause.
func (e *Err) Unwrap() error {
	switch e.Kind {
	case KindTimeout:
		return os.ErrDeadlineExceeded
	case KindReset:
		return syscall.ECONNRESET
	default:
		return nil
	}
}

// Injector is a seeded fault source. One die roll decides each operation's
// fate, so a fixed seed replays the exact fault schedule. Safe for
// concurrent use.
type Injector struct {
	// Hold is how long the server-side Handler sits on a request before
	// failing it when injecting a timeout (default 50ms).
	Hold time.Duration
	// SlowBy is the latency one Slow injection adds before the operation
	// proceeds normally (default 25ms).
	SlowBy time.Duration

	rates Rates
	reg   *obs.Registry

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds an injector rolling at rates from seed. reg counts injections
// (nil means obs.Default; obs.Discard disables).
func New(seed int64, rates Rates, reg *obs.Registry) *Injector {
	if seed == 0 {
		seed = 1
	}
	return &Injector{
		Hold:   50 * time.Millisecond,
		SlowBy: 25 * time.Millisecond,
		rates:  rates,
		reg:    obs.Or(reg),
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// slow sleeps the injected latency, cut short if ctx dies first.
func (i *Injector) slow(ctx context.Context) {
	d := i.SlowBy
	if d <= 0 {
		d = 25 * time.Millisecond
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// roll decides one operation's fate.
func (i *Injector) roll() (Kind, bool) {
	if i == nil || !i.rates.Any() {
		return "", false
	}
	i.mu.Lock()
	u := i.rng.Float64()
	i.mu.Unlock()
	for _, c := range []struct {
		kind Kind
		rate float64
	}{
		{KindTimeout, i.rates.Timeout},
		{Kind5xx, i.rates.Error5xx},
		{KindReset, i.rates.Reset},
		{KindCorrupt, i.rates.Corrupt},
		{KindSlow, i.rates.Slow},
	} {
		if u < c.rate {
			i.reg.Counter("fault_injected_total", "kind", string(c.kind)).Inc()
			return c.kind, true
		}
		u -= c.rate
	}
	return "", false
}

// RoundTripper wraps next (nil means http.DefaultTransport) with client-side
// injection: timeouts and resets replace the round trip's error, 5xx
// replaces its response, corrupt garbles the real response body.
func (i *Injector) RoundTripper(next http.RoundTripper) http.RoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	return &roundTripper{inj: i, next: next}
}

type roundTripper struct {
	inj  *Injector
	next http.RoundTripper
}

func (rt *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	k, ok := rt.inj.roll()
	if !ok {
		return rt.next.RoundTrip(req)
	}
	switch k {
	case KindSlow:
		rt.inj.slow(req.Context())
		return rt.next.RoundTrip(req)
	case KindTimeout, KindReset:
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, &Err{Kind: k}
	case Kind5xx:
		if req.Body != nil {
			req.Body.Close()
		}
		return &http.Response{
			StatusCode: http.StatusServiceUnavailable,
			Status:     "503 Service Unavailable (injected)",
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{"Content-Type": {"text/plain"}},
			Body:    io.NopCloser(bytes.NewReader([]byte("fault: injected 5xx"))),
			Request: req,
		}, nil
	default: // KindCorrupt: serve the real response with a garbled body.
		resp, err := rt.next.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader([]byte("\x00\xff<corrupt/>{{{")))
		resp.ContentLength = -1
		resp.Header.Del("Content-Length")
		return resp, nil
	}
}

// Handler wraps next with server-side injection: 5xx answers 503, reset
// hijacks and drops the connection mid-request, timeout holds the request
// for Hold then answers 504, corrupt serves a garbage 200.
func (i *Injector) Handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		k, ok := i.roll()
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		switch k {
		case KindSlow:
			i.slow(r.Context())
			next.ServeHTTP(w, r)
		case Kind5xx:
			http.Error(w, "fault: injected 5xx", http.StatusServiceUnavailable)
		case KindReset:
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			http.Error(w, "fault: injected reset", http.StatusServiceUnavailable)
		case KindTimeout:
			hold := i.Hold
			if hold <= 0 {
				hold = 50 * time.Millisecond
			}
			select {
			case <-r.Context().Done():
			case <-time.After(hold):
			}
			http.Error(w, "fault: injected timeout", http.StatusGatewayTimeout)
		default: // KindCorrupt
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write([]byte("\x00\xff<corrupt/>{{{"))
		}
	})
}

// Resolver wraps a geocode.Resolver with injection: transient kinds become
// injected errors, corrupt becomes a permanent decode-style error. The
// wrapped resolver is not consulted on injected calls, keeping its cache
// untouched by faults.
func (i *Injector) Resolver(next geocode.Resolver) geocode.Resolver {
	return &resolver{inj: i, next: next}
}

type resolver struct {
	inj  *Injector
	next geocode.Resolver
}

// Reverse implements geocode.Resolver.
func (r *resolver) Reverse(ctx context.Context, p geo.Point) (geocode.Location, error) {
	if k, ok := r.inj.roll(); ok {
		if k == KindSlow {
			r.inj.slow(ctx)
			return r.next.Reverse(ctx, p)
		}
		return geocode.Location{}, &Err{Kind: k}
	}
	return r.next.Reverse(ctx, p)
}
