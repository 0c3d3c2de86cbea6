// Command stir is the library's CLI: generate a synthetic dataset, run the
// paper's refinement-and-grouping analysis, and report the figures.
//
// Subcommands:
//
//	stir analyze [-dataset korean|world] [-users N] [-seed S] [-csv]
//	             [-continue-on-error] [-fault-rate R] [-fault-seed S]
//	    run the §III pipeline and print the funnel and the per-group figures;
//	    -continue-on-error degrades instead of aborting on per-user failures,
//	    -fault-rate injects a deterministic geocode fault schedule (chaos runs)
//	stir event   [-users N] [-seed S] [-method particle|kalman|median|centroid]
//	    inject an earthquake and compare unweighted vs reliability-weighted
//	    location estimation (the paper's §V application)
//	stir groups  [-users N] [-seed S] [-n K]
//	    dump the first K per-user merged-and-ordered string lists (Table II)
//	stir export  [-dataset korean|world] [-users N] [-seed S]
//	             [-what collection|strings|csv] [-out FILE]
//	    export the raw JSONL collection, the Table-II location strings, or
//	    the per-group CSV
//	stir serve   [-addr :8032] [-dataset korean|world] [-users N] [-seed S]
//	    run the analysis and keep serving its metrics: GET /metrics exposes
//	    the funnel gauges, stage timings and cache stats; GET /healthz
//	    reports liveness
//	stir stream  [-addr :8033] [-dataset korean|world] [-users N] [-seed S]
//	             [-shards N] [-buffer N] [-drop] [-rate N] [-track S]
//	             [-checkpoint DIR] [-checkpoint-every D] [-duration D]
//	             [-geocode URL] [-trace-sample P] [-trace-ring N]
//	    run the live ingestion engine: replay the dataset's collection
//	    through the simulated Streaming API into internal/stream and serve
//	    the incremental analysis on /v1/groups, /v1/users/{id}, /v1/stats
//	stir worker  [-addr :8041] [-name w1] [-checkpoint DIR] [-shards N]
//	    run one cluster shard: a stream engine with its own checkpoint
//	    store behind the cluster worker API, fed only by router forwards
//	stir router  [-addr :8040] -workers name=url,... [-replicas N]
//	             [-partitions N] [-handoff-timeout D] [-journal N]
//	             [-heartbeat D] [-suspect-after D] [-down-after D]
//	             [-auto-failover]
//	    join the named workers into a rendezvous-hash ring, replay the
//	    dataset through the routed ingest path, and serve the merged
//	    scatter-gather analysis on /v1/groups, /v1/stats, /v1/users/{id};
//	    a heartbeat failure detector suspects silent workers (forwards
//	    defer to the journal), downs them, optionally fails them over, and
//	    heals them back in when they answer again (see /cluster/v1/members)
//	stir trace   [-addrs host:port,...] [-trace PREFIX] [-n N] [-json]
//	    fetch the finished-span rings from the daemons' /debug/trace
//	    endpoints, merge them by trace ID, and print each cross-process
//	    request tree; unreachable daemons are warned about and skipped,
//	    and the partial forest still prints (fails only if none answer)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"stir"
	"stir/internal/admin"
	"stir/internal/daemon"
	"stir/internal/geocode"
	"stir/internal/obs"
	"stir/internal/overload"
	"stir/internal/report"
	"stir/internal/resilience/fault"
	"stir/internal/storage"
	"stir/internal/stream"
	"stir/internal/synth"
	"stir/internal/textnorm"
	"stir/internal/twitter"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "analyze":
		err = runAnalyze(os.Args[2:])
	case "event":
		err = runEvent(os.Args[2:])
	case "groups":
		err = runGroups(os.Args[2:])
	case "export":
		err = runExport(os.Args[2:])
	case "monitor":
		err = runMonitor(os.Args[2:])
	case "scenario":
		err = runScenario(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "stream":
		err = runStream(os.Args[2:])
	case "fsck":
		err = runFsck(os.Args[2:])
	case "router":
		err = runRouter(os.Args[2:])
	case "worker":
		err = runWorker(os.Args[2:])
	case "trace":
		err = runTrace(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "stir: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stir:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: stir <analyze|event|groups> [flags]
  analyze  run the refinement pipeline and print the paper's figures
  event    compare unweighted vs reliability-weighted event estimation
  groups   dump per-user merged location strings (Table II)
  export   write the collection (JSONL), location strings, or group CSV
  monitor  run the online burst detector against an injected event
  scenario dump a generator scenario as editable JSON (see analyze -scenario)
  serve    run the analysis and serve /metrics and /healthz
  stream   live-ingest the Streaming API and serve the incremental analysis
  fsck     verify, repair, back up or restore a checkpoint store directory
  router   front a worker ring: route ingest by user, scatter-gather queries
  worker   run one cluster shard: a stream engine behind the cluster API
  trace    fetch /debug/trace rings from daemons and print request trees`)
}

// resilienceFlags registers the shared chaos/degraded-mode flags on fs and
// returns a closure producing the resulting AnalyzeOptions after parsing.
func resilienceFlags(fs *flag.FlagSet) func() stir.AnalyzeOptions {
	cont := fs.Bool("continue-on-error", false, "degraded mode: skip users whose processing fails instead of aborting")
	rate := fs.Float64("fault-rate", 0, "inject transient geocode faults at this total rate (chaos runs)")
	fseed := fs.Int64("fault-seed", fault.SeedFromEnv(1), "fault-injection schedule seed ("+fault.EnvSeed+")")
	return func() stir.AnalyzeOptions {
		return stir.AnalyzeOptions{ContinueOnError: *cont, FaultRate: *rate, FaultSeed: *fseed}
	}
}

func makeDataset(kind string, users int, seed int64) (*stir.Dataset, error) {
	opts := stir.DatasetOptions{Seed: seed, Users: users}
	if kind == "world" {
		return stir.NewWorldDataset(opts)
	}
	if kind != "korean" {
		return nil, fmt.Errorf("unknown dataset %q (want korean or world)", kind)
	}
	return stir.NewKoreanDataset(opts)
}

func runAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	dataset := fs.String("dataset", "korean", "korean or world")
	users := fs.Int("users", 5200, "population size")
	seed := fs.Int64("seed", 1, "generation seed")
	scenario := fs.String("scenario", "", "generate from a scenario JSON file instead of the presets")
	csv := fs.Bool("csv", false, "emit per-group CSV instead of charts")
	resOpts := resilienceFlags(fs)
	fs.Parse(args)

	var (
		ds  *stir.Dataset
		err error
	)
	if *scenario != "" {
		ds, err = datasetFromScenario(*scenario)
	} else {
		ds, err = makeDataset(*dataset, *users, *seed)
	}
	if err != nil {
		return err
	}
	res, err := ds.AnalyzeWith(context.Background(), resOpts())
	if err != nil {
		return err
	}
	if *csv {
		t := report.NewTable("group", "users", "user_share", "tweets", "tweet_share", "avg_districts", "avg_match_share")
		for _, g := range stir.Groups() {
			st := res.Analysis.Stat(g)
			t.AddRow(g.String(), fmt.Sprint(st.Users), fmt.Sprintf("%.4f", st.UserShare),
				fmt.Sprint(st.Tweets), fmt.Sprintf("%.4f", st.TweetShare),
				fmt.Sprintf("%.3f", st.AvgDistinctDistricts), fmt.Sprintf("%.3f", st.AvgMatchShare))
		}
		fmt.Print(t.CSV())
		return nil
	}
	fmt.Println("Collection & refinement funnel (§III):")
	fmt.Println(stir.FormatFunnel(&res.Funnel))
	fmt.Println(stir.FormatAnalysis(&res.Analysis))
	return nil
}

func runEvent(args []string) error {
	fs := flag.NewFlagSet("event", flag.ExitOnError)
	users := fs.Int("users", 5200, "population size")
	seed := fs.Int64("seed", 1, "generation seed")
	method := fs.String("method", "particle", "median|centroid|kalman|particle")
	fs.Parse(args)

	var m stir.EstimationMethod
	switch *method {
	case "median":
		m = stir.MethodMedian
	case "centroid":
		m = stir.MethodCentroid
	case "kalman":
		m = stir.MethodKalman
	case "particle":
		m = stir.MethodParticle
	default:
		return fmt.Errorf("unknown method %q", *method)
	}

	ds, err := makeDataset("korean", *users, *seed)
	if err != nil {
		return err
	}
	ctx := context.Background()
	res, err := ds.Analyze(ctx)
	if err != nil {
		return err
	}
	opts := stir.EventOptions{Seed: *seed + 100, Method: m, GeoFraction: 0.06}
	truth, err := ds.InjectEvent(opts)
	if err != nil {
		return err
	}
	fmt.Printf("Injected %q event at %.3f,%.3f — %d reports (%d with GPS)\n\n",
		"earthquake", truth.Epicenter.Lat, truth.Epicenter.Lon, truth.Reports, truth.GeoReports)

	t := report.NewTable("Weighting", "Estimate error (km)", "Observations used")
	for _, cfg := range []struct {
		name    string
		weights map[int64]float64
	}{
		{"unweighted (Toretter/Twitris baseline)", nil},
		{"hard Top-1", res.ReliabilityWeights(stir.WeightHardTop1)},
		{"group prior", res.ReliabilityWeights(stir.WeightGroupPrior)},
		{"match share", res.ReliabilityWeights(stir.WeightMatchShare)},
	} {
		est, err := ds.EstimateEvent(ctx, truth, res, cfg.weights, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.name, err)
		}
		t.AddRow(cfg.name, fmt.Sprintf("%.1f", est.ErrorKm), fmt.Sprint(est.Observations))
	}
	fmt.Println(t)
	return nil
}

func runGroups(args []string) error {
	fs := flag.NewFlagSet("groups", flag.ExitOnError)
	users := fs.Int("users", 2000, "population size")
	seed := fs.Int64("seed", 1, "generation seed")
	n := fs.Int("n", 5, "how many users to dump")
	fs.Parse(args)

	ds, err := makeDataset("korean", *users, *seed)
	if err != nil {
		return err
	}
	res, err := ds.Analyze(context.Background())
	if err != nil {
		return err
	}
	gs := res.Groupings
	sort.Slice(gs, func(i, j int) bool { return gs[i].UserID < gs[j].UserID })
	if *n > len(gs) {
		*n = len(gs)
	}
	for _, g := range gs[:*n] {
		fmt.Printf("user %d — profile %s — group %s (matched rank %d, %d/%d tweets at home)\n",
			g.UserID, g.Profile.Key(), g.Group, g.MatchedRank, g.MatchedTweets, g.TotalTweets)
		for _, m := range g.Merged {
			fmt.Printf("  %s\n", m)
		}
	}
	return nil
}

func runExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	dataset := fs.String("dataset", "korean", "korean or world")
	users := fs.Int("users", 5200, "population size")
	seed := fs.Int64("seed", 1, "generation seed")
	what := fs.String("what", "collection", "collection|strings|csv")
	out := fs.String("out", "", "output file (default stdout)")
	fs.Parse(args)

	ds, err := makeDataset(*dataset, *users, *seed)
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *what {
	case "collection":
		return ds.ExportCollection(w)
	case "strings", "csv":
		res, err := ds.Analyze(context.Background())
		if err != nil {
			return err
		}
		if *what == "strings" {
			return res.ExportLocationStrings(w)
		}
		return res.ExportGroupCSV(w)
	default:
		return fmt.Errorf("unknown export kind %q", *what)
	}
}

func runMonitor(args []string) error {
	fs := flag.NewFlagSet("monitor", flag.ExitOnError)
	users := fs.Int("users", 2500, "population size")
	seed := fs.Int64("seed", 1, "generation seed")
	fs.Parse(args)

	ds, err := makeDataset("korean", *users, *seed)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := ds.Analyze(ctx)
	if err != nil {
		return err
	}
	weights := res.ReliabilityWeights(stir.WeightMatchShare)

	alerted := make(chan stir.Alert, 1)
	go func() {
		err := ds.MonitorEvents(ctx, res, weights, stir.MonitorOptions{
			WarmupCount: 10, MinCount: 5, Factor: 3, Method: stir.MethodCentroid,
		}, func(a stir.Alert) bool {
			alerted <- a
			return false
		})
		if err != nil && ctx.Err() == nil {
			fmt.Fprintln(os.Stderr, "monitor:", err)
		}
	}()
	time.Sleep(300 * time.Millisecond)

	// Background chatter, then a burst near Daejeon.
	reporters := ds.SomeUserIDs(30)
	onset := time.Date(2011, 10, 5, 14, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		ds.PostTweet(reporters[i%len(reporters)], "earthquake docu on tv",
			onset.Add(-time.Duration(40-i)*time.Hour), 0, 0, false)
	}
	epi := stir.Point{Lat: 36.35, Lon: 127.38}
	fmt.Println("monitor armed; injecting burst near Daejeon...")
	for i := 0; i < 12; i++ {
		ds.PostTweet(reporters[i], "EARTHQUAKE!! shaking here",
			onset.Add(time.Duration(i*20)*time.Second), epi.Lat, epi.Lon, i%4 == 0)
	}
	select {
	case a := <-alerted:
		fmt.Printf("ALERT at %s: %d reports (%.1f/min)\n", a.At.Format(time.RFC3339), a.Count, a.Rate)
		if a.Located {
			fmt.Printf("estimated location %.3f,%.3f — %.1f km from epicentre\n",
				a.Location.Lat, a.Location.Lon, a.Location.DistanceKm(epi))
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("no alert before timeout")
	}
}

// runServe runs the §III analysis once and then keeps serving the metrics it
// produced — the funnel gauges, stage timings, HTTP and cache series all land
// in the default registry, so a scrape shows the whole run.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8032", "listen address")
	dataset := fs.String("dataset", "korean", "korean or world")
	users := fs.Int("users", 5200, "population size")
	seed := fs.Int64("seed", 1, "generation seed")
	resOpts := resilienceFlags(fs)
	over := daemon.OverloadFlags(fs)
	traces := daemon.TraceFlags(fs)
	fs.Parse(args)

	ds, err := makeDataset(*dataset, *users, *seed)
	if err != nil {
		return err
	}
	// The stack comes up before the analysis so the run's own spans land in
	// the ring /debug/trace serves afterwards.
	cfg := over()
	stack := daemon.NewStackOpts(daemon.StackOptions{
		Service:  "stir",
		Overload: cfg,
		Trace:    traces(),
		Metrics:  obs.Default,
	})
	aOpts := resOpts()
	aOpts.Trace = stack.Tracer
	res, err := ds.AnalyzeWith(context.Background(), aOpts)
	if err != nil {
		return err
	}
	fmt.Println("Collection & refinement funnel (§III):")
	fmt.Println(stir.FormatFunnel(&res.Funnel))
	srv := overload.NewServer(overload.ServerOptions{
		Service:      "stir",
		Addr:         *addr,
		Handler:      stack.Handler,
		DrainTimeout: cfg.DrainTimeout,
		Ready:        stack.Ready,
		Logf:         stack.Log.Printf,
		WriteTimeout: 30 * time.Second,
	})
	fmt.Printf("stir serve: metrics on %s/metrics\n", *addr)
	return srv.ListenAndServe()
}

// runStream is the live path: it stands up the simulated platform's API
// server, replays the dataset's collection through the sample stream at a
// configurable rate, and runs internal/stream against it — the Streaming API
// access path of the paper's worldwide dataset, kept continuously analysed.
// While running (and after the replay drains), the incremental results are
// served on /v1/groups, /v1/users/{id} and /v1/stats next to /metrics.
func runStream(args []string) error {
	fs := flag.NewFlagSet("stream", flag.ExitOnError)
	addr := fs.String("addr", ":8033", "query/metrics listen address")
	dataset := fs.String("dataset", "korean", "korean or world")
	users := fs.Int("users", 2000, "population size")
	seed := fs.Int64("seed", 1, "generation seed")
	shards := fs.Int("shards", stream.DefaultShards, "worker shard count")
	buffer := fs.Int("buffer", stream.DefaultBuffer, "per-shard queue capacity")
	drop := fs.Bool("drop", false, "shed load when a shard queue is full instead of backpressuring")
	rate := fs.Int("rate", 2000, "replay rate, tweets/second (0 = as fast as possible)")
	track := fs.String("track", "", "filter the sample stream by substring")
	ckptDir := fs.String("checkpoint", "", "checkpoint store directory (enables crash-safe resume)")
	ckptEvery := fs.Duration("checkpoint-every", 10*time.Second, "periodic checkpoint interval (needs -checkpoint)")
	duration := fs.Duration("duration", 0, "keep serving this long after the replay drains (0 = exit once drained)")
	geocodeURL := fs.String("geocode", "", "reverse-geocode through this HTTP service (cmd/geocoded) instead of in-process")
	over := daemon.OverloadFlags(fs)
	traces := daemon.TraceFlags(fs)
	disk := daemon.DiskFlags(fs)
	fs.Parse(args)

	ds, err := makeDataset(*dataset, *users, *seed)
	if err != nil {
		return err
	}

	// The platform: the dataset's service behind its HTTP API on a loopback
	// port, consumed through the SDK like a real collection would be.
	api := twitter.NewAPIServer(ds.Service, twitter.ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	apiSrv := &http.Server{Handler: api}
	go apiSrv.Serve(ln)
	defer apiSrv.Close()
	client := twitter.NewClient("http://" + ln.Addr().String())
	client.HTTP = &http.Client{} // no overall timeout: the stream is long-lived

	var store *storage.Store
	if *ckptDir != "" {
		store, err = storage.Open(*ckptDir, storage.Options{Budget: disk()})
		if err != nil {
			return err
		}
		defer store.Close()
		// Open salvages what it can from a damaged log; an operator should
		// hear about it (and `stir fsck -repair` it) rather than find out later.
		if rep := store.ScrubReport(); !rep.Clean() || rep.TornTails > 0 {
			fmt.Fprintf(os.Stderr, "stir: checkpoint store needed salvage: %s (run `stir fsck -dir %s -repair`)\n",
				rep.String(), *ckptDir)
		}
	}
	// The query surface rides the shared daemon stack: /v1/* is bulk traffic
	// that admission control may shed under overload, while /healthz, /readyz
	// and /metrics always answer. SIGTERM drains it before the final
	// checkpoint below, so no in-flight query is dropped without a response.
	// It comes up first so the engine can feed spans into its trace ring.
	cfg := over()
	stack := daemon.NewStackOpts(daemon.StackOptions{
		Service:  "stir-stream",
		Overload: cfg,
		Trace:    traces(),
		Metrics:  obs.Default,
	})
	// -geocode swaps the in-process gazetteer for the HTTP hop through
	// geocoded — the cross-daemon path whose traces span three services.
	var resolver geocode.Resolver = stream.NewGazetteerResolver(ds.Gazetteer, 10)
	if *geocodeURL != "" {
		resolver = geocode.NewClient(*geocodeURL, 65536)
	}
	eng, err := stream.New(stream.Config{
		Shards:       *shards,
		Buffer:       *buffer,
		DropWhenFull: *drop,
		Profiles: stream.NewProfileResolver(stream.ClientLookup(client),
			textnorm.NewRefiner(ds.Gazetteer), resolver, ds.Gazetteer),
		Resolver: resolver,
		Seed:     *seed,
		Store:    store,
		Trace:    stack.Tracer,
		// A resumed run replays the firehose from the start; per-user
		// last-ID dedup makes the overlap with the checkpoint idempotent.
		DedupByTweetID:  store != nil,
		CheckpointEvery: *ckptEvery,
	})
	if err != nil {
		return err
	}
	defer eng.Close()

	stack.Mux.Handle("/v1/", eng.Handler())
	querySrv := overload.NewServer(overload.ServerOptions{
		Service:      "stir-stream",
		Addr:         *addr,
		Handler:      stack.Handler,
		DrainTimeout: cfg.DrainTimeout,
		Ready:        stack.Ready,
		Logf:         stack.Log.Printf,
	})
	if err := querySrv.Start(); err != nil {
		return err
	}
	defer func() {
		dctx, dcancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
		defer dcancel()
		_ = querySrv.Shutdown(dctx)
	}()
	fmt.Printf("stir stream: queries on http://%s/v1/groups, metrics on /metrics\n", querySrv.Addr())

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if store != nil {
		// Hard-degraded store → /readyz 503 (load balancers route around us)
		// while /healthz, /metrics and /debug/ keep answering.
		go daemon.WatchDegraded(ctx, stack.Ready, time.Second, eng.Degraded)
	}
	runCtx, stopRun := context.WithCancel(ctx)
	defer stopRun()
	runDone := make(chan error, 1)
	go func() {
		runDone <- eng.Run(runCtx, &stream.ClientSource{Client: client, Track: *track})
	}()

	// The sample stream only carries tweets posted after subscription: hold
	// the replay until the engine's connection is actually listening.
	for i := 0; i < 100 && ds.Service.StreamerCount() == 0 && ctx.Err() == nil; i++ {
		time.Sleep(50 * time.Millisecond)
	}
	if ds.Service.StreamerCount() == 0 {
		return fmt.Errorf("stream connection never subscribed")
	}

	// The traffic driver: replay the generated collection into the platform
	// so the sample stream carries it live.
	var tweets []*twitter.Tweet
	ds.Service.EachTweet(func(t *twitter.Tweet) bool {
		tweets = append(tweets, t)
		return true
	})
	var tick <-chan time.Time
	if *rate > 0 {
		ticker := time.NewTicker(time.Second / time.Duration(*rate))
		defer ticker.Stop()
		tick = ticker.C
	}
	// The sample stream is best-effort: it sheds tweets when the subscriber
	// lags. An unthrottled replay (or a -rate far above what the connection
	// drains) would overrun the firehose buffer and silently lose nearly
	// everything, so hold the posted-vs-ingested gap under the buffer. With
	// -track the server filters before delivery and the gap never closes, so
	// flow control only applies to the unfiltered stream.
	const flowWindow = 256
	posted := 0
	for _, t := range tweets {
		if ctx.Err() != nil {
			break
		}
		if tick != nil {
			select {
			case <-tick:
			case <-ctx.Done():
			}
		}
		if *track == "" {
			for int64(posted)-eng.Ingested() > flowWindow && ctx.Err() == nil {
				time.Sleep(time.Millisecond)
			}
		}
		lat, lon, hasGeo := 0.0, 0.0, false
		if t.Geo != nil {
			lat, lon, hasGeo = t.Geo.Lat, t.Geo.Lon, true
		}
		if err := ds.PostTweet(int64(t.UserID), t.Text, t.CreatedAt, lat, lon, hasGeo); err != nil {
			return err
		}
		posted++
	}
	fmt.Printf("stir stream: replayed %d tweets\n", posted)
	if *duration > 0 {
		select {
		case <-time.After(*duration):
		case <-ctx.Done():
		}
	}
	// Let the connection deliver the tail: wait until the processed counter
	// stops moving, then shut the stream down and report.
	last := int64(-1)
	for ctx.Err() == nil {
		eng.Drain()
		if n := eng.Stats().Processed; n == last {
			break
		} else {
			last = n
		}
		time.Sleep(150 * time.Millisecond)
	}
	stopRun()
	if err := <-runDone; err != nil {
		return err
	}
	eng.Drain()
	if store != nil {
		if err := eng.Checkpoint(); err != nil {
			return err
		}
	}
	snap := eng.Snapshot()
	st := eng.Stats()
	fmt.Printf("processed %d geo tweets from %d users (%d dropped, %d reconnects)\n",
		st.Processed, st.Users, st.Dropped, st.Reconnects)
	fmt.Println(stir.FormatAnalysis(&snap.Analysis))
	return nil
}

// datasetFromScenario builds a dataset from a scenario JSON file.
func datasetFromScenario(path string) (*stir.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc, err := synth.ReadScenario(f)
	if err != nil {
		return nil, err
	}
	cfg, err := sc.Config()
	if err != nil {
		return nil, err
	}
	gen, err := synth.New(cfg)
	if err != nil {
		return nil, err
	}
	svc := twitter.NewService()
	pop, err := gen.Populate(svc)
	if err != nil {
		return nil, err
	}
	kind := "korean"
	if sc.Gazetteer == "world" {
		kind = "world"
	}
	return &stir.Dataset{Service: svc, Gazetteer: cfg.Gazetteer, Population: pop, Kind: kind}, nil
}

func runScenario(args []string) error {
	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	dataset := fs.String("dataset", "korean", "korean or world preset to dump")
	users := fs.Int("users", 5200, "population size")
	seed := fs.Int64("seed", 1, "generation seed")
	out := fs.String("out", "", "output file (default stdout)")
	fs.Parse(args)

	var (
		sc  synth.Scenario
		err error
	)
	switch *dataset {
	case "korean":
		gaz, gerr := admin.NewKoreaGazetteer()
		if gerr != nil {
			return gerr
		}
		sc = synth.ScenarioFromConfig("korean-preset", "korea", synth.KoreanConfig(*seed, *users, gaz))
	case "world":
		gaz, gerr := admin.NewWorldGazetteer()
		if gerr != nil {
			return gerr
		}
		sc = synth.ScenarioFromConfig("lady-gaga-preset", "world", synth.LadyGagaConfig(*seed, *users, gaz))
	default:
		return fmt.Errorf("unknown dataset %q", *dataset)
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, ferr := os.Create(*out)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		w = f
	}
	if err = synth.WriteScenario(w, sc); err != nil {
		return err
	}
	return nil
}
