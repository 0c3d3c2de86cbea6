package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stir"
	"stir/internal/cluster"
	"stir/internal/daemon"
	"stir/internal/geofast"
	"stir/internal/obs"
	"stir/internal/overload"
	"stir/internal/storage"
	"stir/internal/stream"
	"stir/internal/textnorm"
	"stir/internal/twitter"
)

// runWorker stands up one cluster shard: a stream engine with its own
// checkpoint store behind the cluster worker API. The worker never touches
// the firehose — tweets arrive only through the router's /cluster/v1/ingest
// forwards — but it builds the same dataset as the router's universe (same
// -dataset/-users/-seed) so its profile service and gazetteer agree with the
// batch pipeline's.
func runWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	addr := fs.String("addr", ":8041", "listen address")
	name := fs.String("name", "w1", "stable worker name (rejoin identity after a crash)")
	dataset := fs.String("dataset", "korean", "korean or world")
	users := fs.Int("users", 2000, "population size")
	seed := fs.Int64("seed", 1, "generation seed (must match the other workers)")
	shards := fs.Int("shards", stream.DefaultShards, "engine shard count")
	buffer := fs.Int("buffer", stream.DefaultBuffer, "per-shard queue capacity")
	ckptDir := fs.String("checkpoint", "", "checkpoint store directory (enables crash-safe resume and handoff recovery)")
	ckptEvery := fs.Duration("checkpoint-every", 10*time.Second, "periodic checkpoint interval (needs -checkpoint)")
	geocodeEmbedded := fs.Bool("geocode-embedded", false, "reverse-geocode through the compiled geofast grid (identical output, no R-tree walk)")
	over := daemon.OverloadFlags(fs)
	traces := daemon.TraceFlags(fs)
	disk := daemon.DiskFlags(fs)
	fs.Parse(args)

	ds, err := makeDataset(*dataset, *users, *seed)
	if err != nil {
		return err
	}
	var store *storage.Store
	if *ckptDir != "" {
		store, err = storage.Open(*ckptDir, storage.Options{Budget: disk()})
		if err != nil {
			return err
		}
		defer store.Close()
		if rep := store.ScrubReport(); !rep.Clean() || rep.TornTails > 0 {
			fmt.Fprintf(os.Stderr, "stir worker: checkpoint store needed salvage: %s\n", rep.String())
		}
	}
	cfg := over()
	stack := daemon.NewStackOpts(daemon.StackOptions{
		Service:  "stir-worker",
		Overload: cfg,
		Trace:    traces(),
		Metrics:  obs.Default,
	})
	resolver := stream.NewGazetteerResolver(ds.Gazetteer, 10)
	if *geocodeEmbedded {
		er, err := stream.NewEmbeddedResolver(ds.Gazetteer, 10)
		if err != nil {
			return err
		}
		geofast.RegisterMetrics(obs.Default, "worker", er.Grid())
		resolver = er
	}
	eng, err := stream.New(stream.Config{
		Shards: *shards,
		Buffer: *buffer,
		Profiles: stream.NewProfileResolver(stream.ServiceLookup(ds.Service),
			textnorm.NewRefiner(ds.Gazetteer), resolver, ds.Gazetteer),
		Resolver: resolver,
		Seed:     *seed,
		Store:    store,
		Trace:    stack.Tracer,
		// The router replays its journal past the last durable cursor on
		// rejoin; per-tweet dedup makes the overlap idempotent.
		DedupByTweetID:  true,
		CheckpointEvery: *ckptEvery,
	})
	if err != nil {
		return err
	}
	defer eng.Close()

	w := cluster.NewWorker(*name, eng, obs.Default)
	stack.Mux.Handle("/cluster/", w.Handler())
	stack.Mux.Handle("/v1/", w.Handler())
	srv := overload.NewServer(overload.ServerOptions{
		Service:      "stir-worker",
		Addr:         *addr,
		Handler:      stack.Handler,
		DrainTimeout: cfg.DrainTimeout,
		Ready:        stack.Ready,
		Logf:         stack.Log.Printf,
	})
	if err := srv.Start(); err != nil {
		return err
	}
	fmt.Printf("stir worker %s: cluster API on http://%s/cluster/v1, metrics on /metrics\n",
		*name, srv.Addr())

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if store != nil {
		// Hard-degraded store → /readyz 503 so orchestrators route around
		// the worker, while liveness, /metrics and /debug/ stay up; the
		// router learns the same state from its hello probes.
		go daemon.WatchDegraded(ctx, stack.Ready, time.Second, eng.Degraded)
	}
	<-ctx.Done()
	dctx, dcancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
	defer dcancel()
	if err := srv.Shutdown(dctx); err != nil {
		return err
	}
	eng.Drain()
	if store != nil {
		return eng.Checkpoint()
	}
	return nil
}

// runRouter stands up the cluster front door: it joins the named workers
// into a rendezvous-hash ring, replays the dataset's collection through the
// routed ingest path (unless -no-replay), and serves the scatter-gather
// query surface on /v1/groups, /v1/stats and /v1/users/{id}.
func runRouter(args []string) error {
	fs := flag.NewFlagSet("router", flag.ExitOnError)
	addr := fs.String("addr", ":8040", "listen address")
	workers := fs.String("workers", "", "comma-separated name=url worker list, e.g. w1=http://localhost:8041,w2=http://localhost:8042")
	replicas := fs.Int("replicas", cluster.DefaultReplicas, "owners per partition (tweets forward to this many workers)")
	partitions := fs.Int("partitions", cluster.DefaultPartitions, "hash-space granularity (fixed for the cluster's lifetime)")
	journal := fs.Int("journal", cluster.DefaultJournalDepth, "per-worker replay journal depth")
	forwardBatch := fs.Int("forward-batch", cluster.DefaultForwardBatch, "tweets per forward POST")
	handoffTimeout := fs.Duration("handoff-timeout", cluster.DefaultHandoffTimeout, "bound on one handoff leg (export, import or drop)")
	scatterTimeout := fs.Duration("scatter-timeout", cluster.DefaultScatterTimeout, "bound on one worker's scatter-gather answer")
	maxFanout := fs.Int("max-fanout", cluster.DefaultMaxFanout, "concurrent outbound calls")
	seed := fs.Int64("seed", 1, "generation + retry-jitter seed")
	dataset := fs.String("dataset", "korean", "korean or world")
	users := fs.Int("users", 2000, "population size")
	rate := fs.Int("rate", 2000, "replay rate, tweets/second (0 = as fast as possible)")
	noReplay := fs.Bool("no-replay", false, "serve queries only; do not replay the dataset through the ring")
	ckptEvery := fs.Duration("checkpoint-every", 15*time.Second, "cluster-wide checkpoint interval (0 disables)")
	joinWait := fs.Duration("join-wait", 30*time.Second, "how long to keep retrying unreachable workers at startup")
	heartbeat := fs.Duration("heartbeat", cluster.DefaultHeartbeat, "failure-detector probe interval (0 disables the detector)")
	suspectAfter := fs.Duration("suspect-after", cluster.DefaultSuspectAfter, "probe silence before a worker turns suspect (forwards defer to journal)")
	downAfter := fs.Duration("down-after", cluster.DefaultDownAfter, "probe silence before a worker turns down (auto-failover threshold)")
	autoFailover := fs.Bool("auto-failover", false, "remove down workers automatically, re-sharding via journal replay")
	over := daemon.OverloadFlags(fs)
	traces := daemon.TraceFlags(fs)
	fs.Parse(args)

	members, err := parseWorkers(*workers)
	if err != nil {
		return err
	}
	cfg := over()
	stack := daemon.NewStackOpts(daemon.StackOptions{
		Service:  "stir-router",
		Overload: cfg,
		Trace:    traces(),
		Metrics:  obs.Default,
	})
	r := cluster.New(cluster.Options{
		Partitions:     *partitions,
		Replicas:       *replicas,
		JournalDepth:   *journal,
		ForwardBatch:   *forwardBatch,
		HandoffTimeout: *handoffTimeout,
		ScatterTimeout: *scatterTimeout,
		MaxFanout:      *maxFanout,
		Seed:           *seed,
		Metrics:        obs.Default,
		Tracer:         stack.Tracer,
		Log:            stack.Log,
		Heartbeat:      *heartbeat,
		SuspectAfter:   *suspectAfter,
		DownAfter:      *downAfter,
		AutoFailover:   *autoFailover,
	})
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *heartbeat > 0 {
		go r.RunHealth(ctx)
	}

	// Workers may still be booting; keep retrying each join until -join-wait
	// runs out. A worker that joins late is a normal membership change, not a
	// startup failure.
	deadline := time.Now().Add(*joinWait)
	for _, m := range members {
		for {
			err := r.AddWorker(ctx, m.name, m.url)
			if err == nil {
				break
			}
			if time.Now().After(deadline) || ctx.Err() != nil {
				return fmt.Errorf("join %s (%s): %w", m.name, m.url, err)
			}
			stack.Log.Printf("join %s pending: %v", m.name, err)
			time.Sleep(500 * time.Millisecond)
		}
	}

	stack.Mux.Handle("/v1/", r.Handler())
	stack.Mux.Handle("/cluster/", r.Handler())
	srv := overload.NewServer(overload.ServerOptions{
		Service:      "stir-router",
		Addr:         *addr,
		Handler:      stack.Handler,
		DrainTimeout: cfg.DrainTimeout,
		Ready:        stack.Ready,
		Logf:         stack.Log.Printf,
	})
	if err := srv.Start(); err != nil {
		return err
	}
	defer func() {
		dctx, dcancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
		defer dcancel()
		_ = srv.Shutdown(dctx)
	}()
	fmt.Printf("stir router: %d workers, queries on http://%s/v1/groups, metrics on /metrics\n",
		len(members), srv.Addr())

	if *ckptEvery > 0 {
		go func() {
			t := time.NewTicker(*ckptEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					r.CheckpointAll(ctx)
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	if !*noReplay {
		ds, err := makeDataset(*dataset, *users, *seed)
		if err != nil {
			return err
		}
		if err := replayThroughRing(ctx, r, ds, *rate, *forwardBatch); err != nil {
			return err
		}
	}
	<-ctx.Done()
	r.CheckpointAll(context.Background())
	return nil
}

// replayThroughRing drives the dataset's collection through the routed
// ingest path at the requested rate, in forward-batch-sized chunks.
func replayThroughRing(ctx context.Context, r *cluster.Router, ds *stir.Dataset, rate, batch int) error {
	tweets := allDatasetTweets(ds)
	var tick <-chan time.Time
	if rate > 0 {
		ticker := time.NewTicker(time.Second / time.Duration(rate) * time.Duration(batch))
		defer ticker.Stop()
		tick = ticker.C
	}
	forwarded, deferred := 0, 0
	for i := 0; i < len(tweets) && ctx.Err() == nil; i += batch {
		end := i + batch
		if end > len(tweets) {
			end = len(tweets)
		}
		if tick != nil {
			select {
			case <-tick:
			case <-ctx.Done():
			}
		}
		rep := r.IngestBatch(ctx, tweets[i:end])
		forwarded += rep.Forwarded
		deferred += rep.Deferred
	}
	fmt.Printf("stir router: replayed %d tweets (%d deferred to journals)\n", forwarded, deferred)
	return nil
}

// allDatasetTweets flattens the dataset's collection in service order.
func allDatasetTweets(ds *stir.Dataset) []*twitter.Tweet {
	var tweets []*twitter.Tweet
	ds.Service.EachTweet(func(t *twitter.Tweet) bool {
		tweets = append(tweets, t)
		return true
	})
	return tweets
}

type memberFlag struct{ name, url string }

// parseWorkers splits "-workers w1=http://h:p,w2=http://h:p" into members.
func parseWorkers(s string) ([]memberFlag, error) {
	var out []memberFlag
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad -workers entry %q (want name=url)", part)
		}
		out = append(out, memberFlag{name: name, url: url})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-workers is required (e.g. -workers w1=http://localhost:8041)")
	}
	return out, nil
}
