package fault

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"stir/internal/geo"
	"stir/internal/geocode"
	"stir/internal/obs"
	"stir/internal/resilience"
)

func TestRollDeterministic(t *testing.T) {
	rates := Rates{Timeout: 0.1, Error5xx: 0.1, Reset: 0.1, Corrupt: 0.1}
	run := func() []Kind {
		inj := New(7, rates, obs.Discard)
		var ks []Kind
		for n := 0; n < 500; n++ {
			k, ok := inj.roll()
			if ok {
				ks = append(ks, k)
			} else {
				ks = append(ks, "")
			}
		}
		return ks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("roll %d differs: %q vs %q", i, a[i], b[i])
		}
	}
	injected := 0
	for _, k := range a {
		if k != "" {
			injected++
		}
	}
	// 40% total rate over 500 rolls: expect a plausible band, exactly
	// reproducible for this seed.
	if injected < 150 || injected > 250 {
		t.Fatalf("injected %d/500, want ~200", injected)
	}
}

func TestRollRespectsZeroRates(t *testing.T) {
	inj := New(1, Rates{}, obs.Discard)
	for n := 0; n < 100; n++ {
		if _, ok := inj.roll(); ok {
			t.Fatal("zero rates must never inject")
		}
	}
	var nilInj *Injector
	if _, ok := nilInj.roll(); ok {
		t.Fatal("nil injector must never inject")
	}
}

func TestErrClassification(t *testing.T) {
	for _, k := range []Kind{KindTimeout, Kind5xx, KindReset} {
		if !resilience.IsTransient(&Err{Kind: k}) {
			t.Errorf("%s should classify transient", k)
		}
	}
	if resilience.IsTransient(&Err{Kind: KindCorrupt}) {
		t.Error("corrupt should classify permanent")
	}
	if !errors.Is(&Err{Kind: KindReset}, syscall.ECONNRESET) {
		t.Error("reset should unwrap to ECONNRESET")
	}
}

func TestRoundTripperInjects(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	t.Cleanup(backend.Close)

	// Force each kind with a rate-1 injector.
	for _, tc := range []struct {
		rates Rates
		kind  Kind
	}{
		{Rates{Timeout: 1}, KindTimeout},
		{Rates{Reset: 1}, KindReset},
	} {
		client := &http.Client{Transport: New(1, tc.rates, obs.Discard).RoundTripper(nil)}
		_, err := client.Get(backend.URL)
		var fe *Err
		if err == nil || !errors.As(err, &fe) || fe.Kind != tc.kind {
			t.Fatalf("%s: err = %v, want injected %s", tc.kind, err, tc.kind)
		}
	}

	client := &http.Client{Transport: New(1, Rates{Error5xx: 1}, obs.Discard).RoundTripper(nil)}
	resp, err := client.Get(backend.URL)
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("5xx: resp = %v err = %v, want injected 503", resp, err)
	}
	resp.Body.Close()

	client = &http.Client{Transport: New(1, Rates{Corrupt: 1}, obs.Discard).RoundTripper(nil)}
	resp, err = client.Get(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) == "ok" {
		t.Fatal("corrupt: body untouched")
	}
}

func TestRoundTripperPassThrough(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	t.Cleanup(backend.Close)
	client := &http.Client{Transport: New(1, Rates{}, obs.Discard).RoundTripper(nil)}
	resp, err := client.Get(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok" {
		t.Fatalf("body = %q, want ok", body)
	}
}

func TestHandlerInjects(t *testing.T) {
	next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})
	srv := httptest.NewServer(New(1, Rates{Error5xx: 1}, obs.Discard).Handler(next))
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL)
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("resp = %v err = %v, want 503", resp, err)
	}
	resp.Body.Close()

	rsrv := httptest.NewServer(New(1, Rates{Reset: 1}, obs.Discard).Handler(next))
	t.Cleanup(rsrv.Close)
	if _, err := http.Get(rsrv.URL); err == nil {
		t.Fatal("reset: want a transport error from the dropped connection")
	}
}

// jongno answers every point with Jongno-gu.
type jongno struct{}

func (jongno) Reverse(context.Context, geo.Point) (geocode.Location, error) {
	return geocode.Location{Country: "KR", State: "Seoul", County: "Jongno-gu"}, nil
}

func TestResolverInjects(t *testing.T) {
	var direct geocode.Resolver = jongno{}
	reg := obs.NewRegistry()
	r := New(1, Rates{Timeout: 1}, reg).Resolver(direct)
	_, err := r.Reverse(context.Background(), geo.Point{Lat: 37.57, Lon: 126.98})
	var fe *Err
	if !errors.As(err, &fe) || fe.Kind != KindTimeout {
		t.Fatalf("err = %v, want injected timeout", err)
	}
	if m, ok := reg.Snapshot().Get("fault_injected_total", "kind", "timeout"); !ok || m.Value != 1 {
		t.Fatalf("fault_injected_total = %+v ok=%v, want 1", m, ok)
	}

	clean := New(1, Rates{}, obs.Discard).Resolver(direct)
	loc, err := clean.Reverse(context.Background(), geo.Point{Lat: 37.57, Lon: 126.98})
	if err != nil || loc.County != "Jongno-gu" {
		t.Fatalf("pass-through = %+v, %v", loc, err)
	}
}

func TestRatesFromEnv(t *testing.T) {
	t.Setenv(Env5xx, "0.25")
	t.Setenv(EnvSeed, "99")
	r := RatesFromEnv()
	if r.Error5xx != 0.25 || r.Timeout != 0 {
		t.Fatalf("rates = %+v", r)
	}
	if SeedFromEnv(1) != 99 {
		t.Fatal("seed env not read")
	}
	t.Setenv(EnvSeed, "junk")
	if SeedFromEnv(7) != 7 {
		t.Fatal("unparsable seed should fall back")
	}
}

// The retry policy rides out an injected fault schedule end to end: a
// client facing 30% mixed transient faults still completes every request.
func TestRetryRidesOutInjectedFaults(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "payload")
	}))
	t.Cleanup(backend.Close)
	client := &http.Client{Transport: New(1234, Uniform(0.3), obs.Discard).RoundTripper(nil)}
	pol := &resilience.Policy{
		Name: "chaos-unit", MaxAttempts: 10, Metrics: obs.Discard,
		Sleep: func(ctx context.Context, _ time.Duration) error { return ctx.Err() },
	}
	for n := 0; n < 50; n++ {
		err := pol.Do(context.Background(), func(ctx context.Context) error {
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, backend.URL, nil)
			resp, err := client.Do(req)
			if err != nil {
				return err
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return &resilience.StatusError{Status: resp.StatusCode}
			}
			if strings.TrimSpace(string(body)) != "payload" {
				return resilience.MarkTransient(errors.New("corrupt payload"))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("request %d not ridden out: %v", n, err)
		}
	}
}
