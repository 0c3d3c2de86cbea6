package stir

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"stir/internal/admin"
	"stir/internal/geo"
	"stir/internal/geocode"
	"stir/internal/obs/trace"
	"stir/internal/pipeline"
	"stir/internal/storage"
	"stir/internal/twitter"
)

// Collection surface: everything needed to run the paper's actual data
// path — an HTTP Twitter API, an HTTP reverse-geocoding API, a follower
// crawler with persistent checkpoints, and an analysis entry point that
// consumes the crawler's store through the HTTP geocoder.

// APIOptions tune the simulated Twitter API server.
type APIOptions struct {
	// RESTLimit / SearchLimit are fixed-window request budgets (0 = off).
	RESTLimit   int
	SearchLimit int
	// Window is the rate-limit window (default 15 minutes).
	Window time.Duration
}

// TwitterHandler returns an http.Handler serving the dataset's platform with
// the Twitter v1-style endpoints the crawler and detectors consume.
func (d *Dataset) TwitterHandler(opts APIOptions) http.Handler {
	return twitter.NewAPIServer(d.Service, twitter.ServerOptions{
		RESTLimit:   opts.RESTLimit,
		SearchLimit: opts.SearchLimit,
		Window:      opts.Window,
	})
}

// GeocodeHandler returns an http.Handler serving the Yahoo-style reverse
// geocoding XML API over the dataset's gazetteer. limit 0 disables rate
// limiting.
func (d *Dataset) GeocodeHandler(limit int, window time.Duration) http.Handler {
	return geocode.NewServer(d.Gazetteer, geocode.ServerOptions{
		Limit:  limit,
		Window: window,
	})
}

// SeedUser returns the crawl seed account (only meaningful when the dataset
// was built with FollowerGraph).
func (d *Dataset) SeedUser() int64 { return int64(d.Population.SeedUser) }

// CrawlStats summarises a crawl.
type CrawlStats struct {
	Users     int
	Tweets    int
	GeoTweets int
}

// CrawlOptions configure Crawl.
type CrawlOptions struct {
	// BaseURL of a Twitter API server (TwitterHandler or cmd/twitterd).
	BaseURL string
	// StoreDir holds the crawl store; an interrupted crawl resumes from it.
	StoreDir string
	// MaxUsers stops after this many profiles (0 = crawl everything).
	MaxUsers int
	// TimelineLimit caps tweets fetched per user (0 = all).
	TimelineLimit int
	// OnProgress, when set, is called after each crawled user.
	OnProgress func(done, queued int)
}

// Crawl walks the follower graph from the seed users, persisting users and
// tweets (with checkpoints) into StoreDir — the paper's §III-A collection.
func Crawl(ctx context.Context, opts CrawlOptions, seeds ...int64) (CrawlStats, error) {
	if opts.BaseURL == "" || opts.StoreDir == "" {
		return CrawlStats{}, fmt.Errorf("stir: Crawl needs BaseURL and StoreDir")
	}
	store, err := storage.Open(opts.StoreDir, storage.Options{})
	if err != nil {
		return CrawlStats{}, err
	}
	defer store.Close()
	ids := make([]twitter.UserID, len(seeds))
	for i, s := range seeds {
		ids[i] = twitter.UserID(s)
	}
	cr := &twitter.Crawler{
		Client:        twitter.NewClient(opts.BaseURL),
		Store:         store,
		MaxUsers:      opts.MaxUsers,
		TimelineLimit: opts.TimelineLimit,
		OnProgress:    opts.OnProgress,
	}
	res, err := cr.Run(ctx, ids...)
	if err != nil {
		return CrawlStats{}, err
	}
	return CrawlStats{Users: res.UsersCollected, Tweets: res.TweetsCollected, GeoTweets: res.GeoTweets}, nil
}

// AnalyzeOptions configure AnalyzeStore and Dataset.AnalyzeWith.
type AnalyzeOptions struct {
	// StoreDir is the crawl store to analyse.
	StoreDir string
	// GeocodeURL, when set, reverse-geocodes through that HTTP service
	// (GeocodeHandler or cmd/geocoded); otherwise an in-process resolver
	// over the chosen gazetteer is used.
	GeocodeURL string
	// World selects the worldwide gazetteer (default Korean).
	World bool
	// ContinueOnError runs the pipeline in degraded mode: users whose
	// processing fails are skipped and reported in Result.SkippedUsers
	// instead of aborting the run.
	ContinueOnError bool
	// FaultRate, when > 0, injects transient geocode faults at this total
	// rate through the deterministic fault harness — the built-in chaos
	// experiment for the resilience layer.
	FaultRate float64
	// FaultSeed fixes the injected fault schedule (default 1).
	FaultSeed int64
	// Trace, when set, opens a distributed root span for the run; client
	// hops (geocode over HTTP) join its tree and export at /debug/trace.
	Trace *trace.Tracer
}

// AnalyzeStore runs the §III refinement pipeline over a crawl store — the
// collection-to-analysis hand-off as the paper ran it, including the metered
// geocoding hop when GeocodeURL is set.
func AnalyzeStore(ctx context.Context, opts AnalyzeOptions) (*Result, error) {
	store, err := storage.Open(opts.StoreDir, storage.Options{})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	users, tweets, err := twitter.LoadCollected(store)
	if err != nil {
		return nil, err
	}
	var gaz *admin.Gazetteer
	if opts.World {
		gaz, err = admin.NewWorldGazetteer()
	} else {
		gaz, err = admin.NewKoreaGazetteer()
	}
	if err != nil {
		return nil, err
	}
	p := pipeline.New(gaz, 10)
	if opts.GeocodeURL != "" {
		p.Resolver = geocode.NewClient(opts.GeocodeURL, 65536)
	}
	applyResilience(p, opts)
	r, err := p.Run(ctx, users, tweets)
	if err != nil {
		return nil, err
	}
	return resultOf(r), nil
}

// ResolvePoint reverse-geocodes one point through the dataset's gazetteer —
// a convenience for examples and tools.
func (d *Dataset) ResolvePoint(lat, lon float64) (*District, error) {
	p, err := geo.NewPoint(lat, lon)
	if err != nil {
		return nil, err
	}
	return d.Gazetteer.ResolvePoint(p, 10)
}
