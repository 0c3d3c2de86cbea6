// Package pipeline wires the paper's §III data flow end to end: take a
// collected set of users and tweets (from the crawler's store or an
// in-process service), refine the free-text profile locations, keep users
// with GPS-tagged tweets, reverse-geocode profile and tweet locations into
// administrative districts, build the location strings, and run the
// text-based grouping analysis. Every attrition step is counted so the
// paper's collection funnel can be reported.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"stir/internal/admin"
	"stir/internal/core"
	"stir/internal/geo"
	"stir/internal/geocode"
	"stir/internal/obs"
	"stir/internal/obs/trace"
	"stir/internal/textnorm"
	"stir/internal/twitter"
)

// Funnel counts the refinement attrition, mirroring the paper's §III-B
// narrative (52k crawled → ~3k well-defined → 1.4k with GPS tweets).
type Funnel struct {
	RawUsers  int
	RawTweets int
	// ProfileBreakdown counts users per profile-text quality.
	ProfileBreakdown map[textnorm.Quality]int
	// EmptyProfiles counts users with no location text at all.
	EmptyProfiles int
	// WellDefinedUsers have a uniquely resolvable profile district.
	WellDefinedUsers int
	// GeoTweets counts GPS-tagged tweets among all raw tweets.
	GeoTweets int
	// FinalUsers passed every filter: well-defined profile AND at least
	// MinGeoTweets GPS tweets.
	FinalUsers int
	// FinalGeoTweets are the geo tweets belonging to final users.
	FinalGeoTweets int
	// GeocodeFailures counts GPS points no district was found for.
	GeocodeFailures int
	// SkippedUsers counts users dropped by a ContinueOnError run after
	// their processing failed (always 0 in strict mode).
	SkippedUsers int
}

// Result is the pipeline's full output.
type Result struct {
	Funnel    Funnel
	Groupings []core.UserGrouping
	Analysis  core.Analysis
	// ProfileDistrict maps each final user to their profile district, the
	// input event detectors need.
	ProfileDistrict map[twitter.UserID]*admin.District
	// SkippedUsers lists the users a ContinueOnError run dropped, sorted by
	// ID. Empty in strict mode.
	SkippedUsers []twitter.UserID
}

// Pipeline holds the §III processing dependencies.
type Pipeline struct {
	// Refiner classifies profile text.
	Refiner *textnorm.Refiner
	// Resolver reverse-geocodes GPS points (HTTP client or direct).
	Resolver geocode.Resolver
	// Gazetteer resolves geocode responses back to districts.
	Gazetteer *admin.Gazetteer
	// MinGeoTweets is the minimum GPS tweets a user needs to survive
	// (default 1, the paper's criterion).
	MinGeoTweets int
	// StateLevel groups at state granularity instead of county — the
	// ablation for the paper's choice to split metropolitan cities into gu
	// ("these cities are too large and the populations are extremely high").
	StateLevel bool
	// ContinueOnError runs the pipeline in degraded mode: a user whose
	// processing fails (e.g. geocode errors that outlive the client's
	// retries) is skipped and recorded in Result.SkippedUsers and the
	// funnel instead of aborting the whole run. Context cancellation still
	// aborts.
	ContinueOnError bool
	// Obs receives the run's stage timings and funnel gauges (nil means
	// obs.Default; obs.Discard disables).
	Obs *obs.Registry
	// Trace, when set, opens a distributed root span for the run with stage
	// children and funnel annotations; the geocode client spans it induces
	// parent under the stages, so one run reassembles into one tree at
	// /debug/trace. Nil disables (zero overhead).
	Trace *trace.Tracer
}

// New builds a pipeline with the in-process resolver over gaz
// (geocode.NewGazetteerResolver; slackKm 0 means the 10 km default).
func New(gaz *admin.Gazetteer, slackKm float64) *Pipeline {
	return &Pipeline{
		Refiner:   textnorm.NewRefiner(gaz),
		Resolver:  geocode.NewGazetteerResolver(gaz, slackKm, 65536),
		Gazetteer: gaz,
	}
}

// Run processes a collected dataset. users maps ID to account; tweets maps
// ID to that user's tweets (any order).
func (p *Pipeline) Run(ctx context.Context, users map[twitter.UserID]*twitter.User, tweets map[twitter.UserID][]*twitter.Tweet) (*Result, error) {
	if p.Refiner == nil || p.Resolver == nil || p.Gazetteer == nil {
		return nil, errors.New("pipeline: Refiner, Resolver and Gazetteer are required")
	}
	minGeo := p.MinGeoTweets
	if minGeo <= 0 {
		minGeo = 1
	}
	reg := obs.Or(p.Obs)
	registerResolverMetrics(reg, p.Resolver)
	// Each stage is observed once into the stage histogram.
	observe := func(stage string, start time.Time) {
		reg.Histogram(obs.StageHistogram, obs.DefBuckets, "stage", stage).ObserveDuration(time.Since(start))
	}
	defer observe("pipeline", time.Now())
	// The distributed span rides the context so every geocode/twitter client
	// call a stage makes joins the run's tree.
	ctx, dspan := p.Trace.Root(ctx, "pipeline.run")
	defer dspan.End()
	res := &Result{
		Funnel: Funnel{
			ProfileBreakdown: make(map[textnorm.Quality]int),
		},
		ProfileDistrict: make(map[twitter.UserID]*admin.District),
	}
	start := time.Now()
	_, dcount := trace.Start(ctx, "pipeline.count")
	res.Funnel.RawUsers = len(users)
	for _, ts := range tweets {
		res.Funnel.RawTweets += len(ts)
		for _, t := range ts {
			if t.HasGeo() {
				res.Funnel.GeoTweets++
			}
		}
	}
	observe("pipeline.count", start)
	dcount.End()

	// Deterministic order regardless of map iteration.
	ids := make([]twitter.UserID, 0, len(users))
	for id := range users {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	start = time.Now()
	uctx, dusers := trace.Start(ctx, "pipeline.users")
	defer dusers.End() // idempotent; covers the error returns mid-stage
	mSkipped := reg.Counter("pipeline_skipped_users_total")
	// skippable reports whether a per-user failure should degrade to a skip
	// rather than abort: only in ContinueOnError mode, and never when the
	// failure is really the run's context dying.
	skippable := func(err error) bool {
		return p.ContinueOnError && ctx.Err() == nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
	}
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := p.processUser(uctx, users[id], tweets[id], minGeo, res); err != nil {
			if !skippable(err) {
				return nil, err
			}
			res.Funnel.SkippedUsers++
			res.SkippedUsers = append(res.SkippedUsers, id)
			mSkipped.Inc()
		}
	}
	observe("pipeline.users", start)
	dusers.End()
	start = time.Now()
	_, danalyze := trace.Start(ctx, "pipeline.analyze")
	res.Analysis = core.Analyze(res.Groupings)
	observe("pipeline.analyze", start)
	danalyze.End()
	publishFunnel(reg, res.Funnel)
	if dspan != nil {
		f := res.Funnel
		dspan.AnnotateInt("funnel.raw_users", int64(f.RawUsers))
		dspan.AnnotateInt("funnel.well_defined", int64(f.WellDefinedUsers))
		dspan.AnnotateInt("funnel.final_users", int64(f.FinalUsers))
		dspan.AnnotateInt("funnel.geo_tweets", int64(f.GeoTweets))
		dspan.AnnotateInt("funnel.geocode_failures", int64(f.GeocodeFailures))
		dspan.AnnotateInt("funnel.skipped", int64(f.SkippedUsers))
	}
	return res, nil
}

// processUser runs one user through refine → geocode → group, counting
// every attrition step into res.Funnel.
func (p *Pipeline) processUser(ctx context.Context, u *twitter.User, userTweets []*twitter.Tweet, minGeo int, res *Result) error {
	f := &res.Funnel
	profile, q, ok, err := geocode.RefineProfile(ctx, u.ProfileLocation, p.Refiner, p.Resolver, p.Gazetteer)
	if u.ProfileLocation == "" {
		f.EmptyProfiles++
	} else {
		f.ProfileBreakdown[q]++
	}
	if err != nil {
		return fmt.Errorf("pipeline: geocode profile of %d: %w", u.ID, err)
	}
	if !ok {
		if q == textnorm.GPSCoordinates {
			f.GeocodeFailures++
		}
		return nil
	}
	f.WellDefinedUsers++

	places, geoCount, err := p.geocodeTweets(ctx, userTweets, f)
	if err != nil {
		return err
	}
	if geoCount < minGeo {
		return nil
	}
	profilePlace := core.Place{State: profile.State, County: profile.County}
	if p.StateLevel {
		profilePlace.County = profilePlace.State
		for i := range places {
			places[i].County = places[i].State
		}
	}
	f.FinalUsers++
	f.FinalGeoTweets += geoCount
	res.ProfileDistrict[u.ID] = profile
	res.Groupings = append(res.Groupings, core.BuildUserGrouping(int64(u.ID), profilePlace, places))
	return nil
}

// geocodeTweets maps each GPS tweet to a Place.
func (p *Pipeline) geocodeTweets(ctx context.Context, ts []*twitter.Tweet, f *Funnel) ([]core.Place, int, error) {
	var places []core.Place
	count := 0
	for _, t := range ts {
		if !t.HasGeo() {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		loc, err := p.Resolver.Reverse(ctx, geo.Point{Lat: t.Geo.Lat, Lon: t.Geo.Lon})
		if err != nil {
			if errors.Is(err, geocode.ErrNoMatch) {
				f.GeocodeFailures++
				continue
			}
			return nil, 0, fmt.Errorf("pipeline: geocode tweet %d: %w", t.ID, err)
		}
		places = append(places, core.Place{State: loc.State, County: loc.County})
		count++
	}
	return places, count, nil
}

// CollectFromService snapshots a whole simulated platform into the maps Run
// consumes — the shortcut for offline experiments that skip the crawler.
func CollectFromService(svc *twitter.Service) (map[twitter.UserID]*twitter.User, map[twitter.UserID][]*twitter.Tweet) {
	users := make(map[twitter.UserID]*twitter.User)
	tweets := make(map[twitter.UserID][]*twitter.Tweet)
	svc.EachUser(func(u *twitter.User) bool {
		users[u.ID] = u
		return true
	})
	svc.EachTweet(func(t *twitter.Tweet) bool {
		tweets[t.UserID] = append(tweets[t.UserID], t)
		return true
	})
	return users, tweets
}
