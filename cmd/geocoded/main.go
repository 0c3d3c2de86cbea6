// Command geocoded serves the Yahoo-style reverse-geocoding XML API over the
// Korean (or worldwide) gazetteer — the stand-in for the metered third-party
// service the paper used (Fig. 5).
//
// Usage:
//
//	geocoded [-addr :8031] [-world] [-limit N] [-window 1h] [-slack 10]
//	         [-max-inflight N] [-queue-depth N] [-target-latency D] [-drain-timeout D]
//	         [-fault-5xx R] [-fault-reset R] [-fault-timeout R] [-fault-corrupt R]
//	         [-fault-slow R] [-fault-seed S]
//	         [-trace-sample P] [-trace-ring N] [-trace-slow D] [-trace-seed S]
//
// The -fault-* flags (defaulting from the STIR_FAULT_* environment knobs)
// wrap the API in the deterministic fault injector, turning geocoded into a
// flaky upstream for resilience testing. The overload flags bound concurrent
// work; excess arrivals are shed with 503 + Retry-After while /healthz,
// /readyz and /metrics keep answering. The -trace-* flags control the
// distributed-tracing surface: inbound traceparent headers are continued,
// finished spans land in the ring served at /debug/trace, and /debug/pprof/
// exposes the live profiles. SIGTERM drains gracefully and the process
// exits 0.
//
// Try it:
//
//	curl 'http://localhost:8031/v1/reverse?lat=37.517&lon=126.866'
package main

import (
	"flag"
	"time"

	"stir/internal/admin"
	"stir/internal/daemon"
	"stir/internal/geocode"
	"stir/internal/logx"
	"stir/internal/obs"
	"stir/internal/overload"
)

func main() {
	if err := run(); err != nil {
		logx.New(nil, "geocoded").Fatal("startup failed", "err", err)
	}
}

func run() error {
	addr := flag.String("addr", ":8031", "listen address")
	world := flag.Bool("world", false, "serve the worldwide gazetteer instead of Korea-only")
	limit := flag.Int("limit", 0, "requests per window (0 = unlimited)")
	window := flag.Duration("window", time.Hour, "rate limit window")
	slack := flag.Float64("slack", 10, "km of slack for nearest-district fallback (negative disables)")
	faults := daemon.FaultFlags(flag.CommandLine)
	over := daemon.OverloadFlags(flag.CommandLine)
	traces := daemon.TraceFlags(flag.CommandLine)
	flag.Parse()

	var (
		gaz *admin.Gazetteer
		err error
	)
	if *world {
		gaz, err = admin.NewWorldGazetteer()
	} else {
		gaz, err = admin.NewKoreaGazetteer()
	}
	if err != nil {
		return err
	}

	cfg := over()
	stack := daemon.NewStackOpts(daemon.StackOptions{
		Service:  "geocoded",
		Overload: cfg,
		Trace:    traces(),
		Metrics:  obs.Default,
	})
	api := geocode.NewServer(gaz, geocode.ServerOptions{
		Limit:   *limit,
		Window:  *window,
		SlackKm: *slack,
	})
	if inj := faults().Injector(obs.Default); inj != nil {
		stack.Mux.Handle("/", inj.Handler(api))
		stack.Log.Warn(nil, "fault injection armed")
	} else {
		stack.Mux.Handle("/", api)
	}

	srv := overload.NewServer(overload.ServerOptions{
		Service:      "geocoded",
		Addr:         *addr,
		Handler:      stack.Handler,
		DrainTimeout: cfg.DrainTimeout,
		Ready:        stack.Ready,
		Logf:         stack.Log.Printf,
		// Request/response only — a write deadline is safe here.
		WriteTimeout: 30 * time.Second,
	})
	stack.Log.Info(nil, "listening",
		"addr", *addr, "districts", gaz.Len(), "states", len(gaz.States()))
	return srv.ListenAndServe()
}
