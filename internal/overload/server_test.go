package overload

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"stir/internal/leaktest"
	"stir/internal/obs"
)

func quietLogf(string, ...any) {}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

func TestServerDrainCompletesInflight(t *testing.T) {
	leaktest.Check(t)
	release := make(chan struct{})
	entered := make(chan struct{})
	var drained atomic.Bool

	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		fmt.Fprint(w, "done")
	})

	srv := NewServer(ServerOptions{
		Service:      "test",
		Addr:         "127.0.0.1:0",
		Handler:      mux,
		DrainTimeout: 5 * time.Second,
		OnDrained: func(ctx context.Context) error {
			drained.Store(true)
			return nil
		},
		Metrics: obs.Discard,
		Logf:    quietLogf,
	})
	if err := srv.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	base := "http://" + srv.Addr().String()

	if !srv.Ready().Ready() {
		t.Fatal("server not ready after start")
	}

	// One request in flight when the drain begins. (No t calls from this
	// goroutine: failures surface as an empty body.)
	got := make(chan string, 1)
	go func() {
		resp, err := http.Get(base + "/slow")
		if err != nil {
			got <- ""
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		got <- string(b)
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	cancel()

	// Drain begins: readiness flips while the in-flight request is still
	// being served.
	waitFor(t, func() bool { return !srv.Ready().Ready() })
	if drained.Load() {
		t.Fatal("OnDrained ran while a request was still in flight")
	}

	close(release)
	if body := <-got; body != "done" {
		t.Fatalf("in-flight response = %q, want %q", body, "done")
	}
	if err := <-runErr; err != nil {
		t.Fatalf("Run returned %v, want nil on clean drain", err)
	}
	if !drained.Load() {
		t.Fatal("OnDrained hook never ran")
	}
}

func TestServerDrainDeadlineForcesClose(t *testing.T) {
	leaktest.Check(t)
	release := make(chan struct{})
	defer close(release)
	entered := make(chan struct{})

	mux := http.NewServeMux()
	mux.HandleFunc("/stuck", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})

	reg := obs.NewRegistry()
	srv := NewServer(ServerOptions{
		Service:      "forced",
		Addr:         "127.0.0.1:0",
		Handler:      mux,
		DrainTimeout: 50 * time.Millisecond,
		Metrics:      reg,
		Logf:         quietLogf,
	})
	if err := srv.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	go func() {
		resp, err := http.Get("http://" + srv.Addr().String() + "/stuck")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Run(ctx); err != nil {
		t.Fatalf("Run returned %v, want nil after forced close", err)
	}
	m, ok := reg.Snapshot().Get("stir_daemon_drain_forced_total", "service", "forced")
	if !ok || m.Value != 1 {
		t.Fatalf("stir_daemon_drain_forced_total = %+v ok=%v, want 1", m, ok)
	}
}

func TestServerReadyzFlipsHealthzStays(t *testing.T) {
	reg := obs.NewRegistry()
	ready := &obs.Readiness{}
	mux := http.NewServeMux()
	mux.Handle("/healthz", obs.HealthzHandler("lifecycle"))
	mux.Handle("/readyz", obs.ReadyzHandler("lifecycle", ready))

	srv := NewServer(ServerOptions{
		Service: "lifecycle",
		Addr:    "127.0.0.1:0",
		Handler: mux,
		Ready:   ready,
		Metrics: reg,
		Logf:    quietLogf,
	})
	if err := srv.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	base := "http://" + srv.Addr().String()

	if code, _ := getBody(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before drain = %d, want 200", code)
	}
	if m, ok := reg.Snapshot().Get("stir_daemon_ready", "service", "lifecycle"); !ok || m.Value != 1 {
		t.Fatalf("stir_daemon_ready = %+v ok=%v, want 1", m, ok)
	}

	// Flip readiness as Shutdown would, without closing the listener, so the
	// liveness/readiness split is observable over HTTP.
	ready.SetReady(false)
	if code, body := getBody(t, base+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %d (%s), want 503", code, body)
	}
	if code, _ := getBody(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz during drain = %d, want 200: liveness must survive drain", code)
	}
	if m, ok := reg.Snapshot().Get("stir_daemon_ready", "service", "lifecycle"); !ok || m.Value != 0 {
		t.Fatalf("stir_daemon_ready during drain = %+v ok=%v, want 0", m, ok)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Run(ctx); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestServerSIGTERMDrainsAndReturnsNil(t *testing.T) {
	// The first signal.Notify in a process starts os/signal's delivery loop,
	// which never exits. Start it before the leak baseline so the guard
	// counts it as part of the process, not as a goroutine this test leaked.
	warm := make(chan os.Signal, 1)
	signal.Notify(warm, syscall.SIGTERM)
	signal.Stop(warm)
	leaktest.Check(t)
	var drained atomic.Bool
	srv := NewServer(ServerOptions{
		Service: "sigterm",
		Addr:    "127.0.0.1:0",
		Handler: okHandler(),
		OnDrained: func(ctx context.Context) error {
			drained.Store(true)
			return nil
		},
		Signals: []os.Signal{syscall.SIGTERM},
		Metrics: obs.Discard,
		Logf:    quietLogf,
	})
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	// ListenAndServe installs the signal handler before Start binds the
	// listener, so a visible Addr means SIGTERM is safe to send.
	waitFor(t, func() bool { return srv.Addr() != nil })
	if code, _ := getBody(t, "http://"+srv.Addr().String()+"/"); code != http.StatusOK {
		t.Fatalf("pre-signal request = %d, want 200", code)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill: %v", err)
	}

	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("ListenAndServe after SIGTERM = %v, want nil (daemon exits 0)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down within 5s of SIGTERM")
	}
	if !drained.Load() {
		t.Fatal("OnDrained hook never ran after SIGTERM")
	}
}

func TestServerStartTwiceFails(t *testing.T) {
	srv := NewServer(ServerOptions{
		Service: "twice",
		Addr:    "127.0.0.1:0",
		Handler: okHandler(),
		Metrics: obs.Discard,
		Logf:    quietLogf,
	})
	if err := srv.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	if err := srv.Start(); err == nil {
		t.Fatal("second Start succeeded, want error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Run(ctx); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
