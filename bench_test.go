// Benchmark harness: one testing.B target per paper artifact (E1-E7 in
// DESIGN.md's experiment index) plus the design ablations and the hot-path
// micro-benchmarks. Run with:
//
//	go test -bench=. -benchmem
package stir_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"stir"
	"stir/internal/admin"
	"stir/internal/core"
	"stir/internal/eventdetect"
	"stir/internal/experiments"
	"stir/internal/geo"
	"stir/internal/geocode"
	"stir/internal/homeloc"
	"stir/internal/obs"
	"stir/internal/obs/trace"
	"stir/internal/pipeline"
	"stir/internal/storage"
	"stir/internal/temporal"
	"stir/internal/twitter"
)

// benchEnv holds the shared fixture: a bench-scale Korean dataset plus its
// analysis, built once. Individual benchmarks then time their own slice of
// the computation.
type benchEnv struct {
	gaz       *admin.Gazetteer
	dataset   *stir.Dataset
	users     map[twitter.UserID]*twitter.User
	tweets    map[twitter.UserID][]*twitter.Tweet
	result    *stir.Result
	world     *stir.Dataset
	worldRes  *stir.Result
	geoPoints []geo.Point
}

var (
	envOnce sync.Once
	env     *benchEnv
	envErr  error
)

func getEnv(b *testing.B) *benchEnv {
	b.Helper()
	envOnce.Do(func() {
		gaz, err := admin.NewKoreaGazetteer()
		if err != nil {
			envErr = err
			return
		}
		ds, err := stir.NewKoreanDataset(stir.DatasetOptions{Seed: 2012, Users: 1500})
		if err != nil {
			envErr = err
			return
		}
		users, tweets := pipeline.CollectFromService(ds.Service)
		res, err := ds.Analyze(context.Background())
		if err != nil {
			envErr = err
			return
		}
		wds, err := stir.NewWorldDataset(stir.DatasetOptions{Seed: 2013, Users: 1000})
		if err != nil {
			envErr = err
			return
		}
		wres, err := wds.Analyze(context.Background())
		if err != nil {
			envErr = err
			return
		}
		var pts []geo.Point
		ds.Service.EachTweet(func(t *twitter.Tweet) bool {
			if t.Geo != nil {
				pts = append(pts, geo.Point{Lat: t.Geo.Lat, Lon: t.Geo.Lon})
			}
			return true
		})
		env = &benchEnv{
			gaz: gaz, dataset: ds, users: users, tweets: tweets,
			result: res, world: wds, worldRes: wres, geoPoints: pts,
		}
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return env
}

// BenchmarkE1Funnel times the full §III refinement pipeline — the
// computation behind the collection-funnel table (E1).
func BenchmarkE1Funnel(b *testing.B) {
	e := getEnv(b)
	p := pipeline.New(e.gaz, 10)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Run(ctx, e.users, e.tweets)
		if err != nil {
			b.Fatal(err)
		}
		if res.Funnel.FinalUsers == 0 {
			b.Fatal("funnel produced no users")
		}
	}
}

// BenchmarkObsOverhead measures what the observability layer costs on the E1
// funnel path: the same pipeline run with a live registry (funnel gauges,
// stage histograms, resolver cache gauges) versus obs.Discard (typed-nil
// metrics, every call a no-op). The instrumented run must stay within a few
// percent of discard — the per-run cost is a handful of registry lookups and
// timestamps against thousands of users processed.
func BenchmarkObsOverhead(b *testing.B) {
	e := getEnv(b)
	ctx := context.Background()
	for _, cfg := range []struct {
		name string
		reg  func() *obs.Registry
	}{
		{"instrumented", obs.NewRegistry},
		{"discard", func() *obs.Registry { return obs.Discard }},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			p := pipeline.New(e.gaz, 10)
			p.Obs = cfg.reg()
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(ctx, e.users, e.tweets); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The same run with an unsampled distributed tracer wired in: Root
	// returns (ctx, nil) and every nil-span method is a no-op, so the cost
	// must match the discard baseline.
	b.Run("unsampled-trace", func(b *testing.B) {
		p := pipeline.New(e.gaz, 10)
		p.Obs = obs.Discard
		p.Trace = trace.New(trace.Options{Service: "bench", Sample: 0, Metrics: obs.Discard})
		for i := 0; i < b.N; i++ {
			if _, err := p.Run(ctx, e.users, e.tweets); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The unsampled span surface in isolation — root, child, annotate, end —
	// must report 0 allocs/op: that is the contract that lets clients leave
	// tracing calls on the hot path unconditionally.
	b.Run("unsampled-trace-ops", func(b *testing.B) {
		tr := trace.New(trace.Options{Service: "bench", Sample: 0, Metrics: obs.Discard})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sctx, sp := tr.Root(ctx, "bench.root")
			_, child := trace.Start(sctx, "bench.child")
			child.Annotate("key", "value")
			child.AnnotateInt("n", int64(i))
			child.End()
			sp.End()
		}
	})
}

// analyzeRows re-aggregates the per-user groupings into the per-group stats
// and extracts one figure's series; this is the shared computation behind
// Figures 6-7 and the slide charts.
func analyzeRows(b *testing.B, groupings []core.UserGrouping, pick func(core.GroupStat) float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		a := core.Analyze(groupings)
		var sink float64
		for _, g := range core.Groups() {
			sink += pick(a.Stat(g))
		}
		if sink == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkE2Fig6 regenerates Fig. 6 (average tweet districts per group).
func BenchmarkE2Fig6(b *testing.B) {
	e := getEnv(b)
	b.ResetTimer()
	analyzeRows(b, e.result.Groupings, func(s core.GroupStat) float64 { return s.AvgDistinctDistricts })
}

// BenchmarkE3Fig7 regenerates Fig. 7 (user share per group).
func BenchmarkE3Fig7(b *testing.B) {
	e := getEnv(b)
	b.ResetTimer()
	analyzeRows(b, e.result.Groupings, func(s core.GroupStat) float64 { return s.UserShare })
}

// BenchmarkE4TweetShare regenerates the slides' tweet-share chart.
func BenchmarkE4TweetShare(b *testing.B) {
	e := getEnv(b)
	b.ResetTimer()
	analyzeRows(b, e.result.Groupings, func(s core.GroupStat) float64 { return s.TweetShare })
}

// BenchmarkE5TwoDatasetsUsers regenerates the two-dataset user-share table.
func BenchmarkE5TwoDatasetsUsers(b *testing.B) {
	e := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ka := core.Analyze(e.result.Groupings)
		wa := core.Analyze(e.worldRes.Groupings)
		if ka.Users == 0 || wa.Users == 0 {
			b.Fatal("empty analyses")
		}
	}
}

// BenchmarkE6TwoDatasetsDistricts regenerates the two-dataset district table.
func BenchmarkE6TwoDatasetsDistricts(b *testing.B) {
	e := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ka := core.Analyze(e.result.Groupings)
		wa := core.Analyze(e.worldRes.Groupings)
		if ka.OverallAvgDistricts <= wa.OverallAvgDistricts {
			b.Fatal("expected Korean avg districts above world")
		}
	}
}

// buildEventObservations prepares the E7 observation set once.
func buildEventObservations(b *testing.B) ([]eventdetect.Observation, geo.Rect) {
	b.Helper()
	e := getEnv(b)
	epi := geo.Point{Lat: 36.35, Lon: 127.38}
	weights := e.result.ReliabilityWeights(stir.WeightMatchShare)
	rng := rand.New(rand.NewSource(99))
	var obs []eventdetect.Observation
	for _, g := range e.result.Groupings {
		d := e.result.ProfileDistrict[twitter.UserID(g.UserID)]
		if d == nil || d.Center.DistanceKm(epi) > 60 {
			continue
		}
		obs = append(obs, eventdetect.Observation{
			Point:  d.Center,
			Weight: weights[g.UserID],
			Source: eventdetect.SourceProfile,
		})
	}
	for i := 0; i < 5; i++ {
		obs = append(obs, eventdetect.Observation{
			Point:  epi.Destination(rng.Float64()*360, rng.Float64()*5),
			Weight: 1,
			Source: eventdetect.SourceGPS,
		})
	}
	return obs, e.gaz.Bounds()
}

// BenchmarkE7EventEstimation times the reliability-weighted event-location
// estimation (Fig. 2 analogue) for each estimator.
func BenchmarkE7EventEstimation(b *testing.B) {
	obs, bounds := buildEventObservations(b)
	for _, m := range []eventdetect.Method{
		eventdetect.MethodMedian, eventdetect.MethodCentroid,
		eventdetect.MethodKalman, eventdetect.MethodParticle,
	} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eventdetect.EstimateLocation(obs, m, bounds, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGranularity compares the pipeline at the paper's county
// granularity against state granularity.
func BenchmarkAblationGranularity(b *testing.B) {
	e := getEnv(b)
	ctx := context.Background()
	for _, stateLevel := range []bool{false, true} {
		name := "county"
		if stateLevel {
			name = "state"
		}
		b.Run(name, func(b *testing.B) {
			p := pipeline.New(e.gaz, 10)
			p.StateLevel = stateLevel
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(ctx, e.users, e.tweets); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGeocodeCache measures reverse geocoding with and without
// an effective point table (65536 slots against one).
func BenchmarkAblationGeocodeCache(b *testing.B) {
	e := getEnv(b)
	ctx := context.Background()
	run := func(b *testing.B, r *geocode.DirectResolver) {
		for i := 0; i < b.N; i++ {
			p := e.geoPoints[i%len(e.geoPoints)]
			if _, err := r.Reverse(ctx, p); err != nil && !errors.Is(err, geocode.ErrNoMatch) {
				b.Fatal(err)
			}
		}
	}
	b.Run("cached", func(b *testing.B) {
		r := geocode.NewGazetteerResolver(e.gaz, 10, 65536)
		r.SetQuantizeDecimals(2)
		run(b, r)
	})
	b.Run("uncached", func(b *testing.B) {
		r := geocode.NewGazetteerResolver(e.gaz, 10, 1)
		r.SetQuantizeDecimals(2)
		run(b, r)
	})
}

// BenchmarkAblationSpatialIndex compares point resolution through the
// gazetteer's packed index against a linear scan of its districts.
func BenchmarkAblationSpatialIndex(b *testing.B) {
	e := getEnv(b)
	pts := e.geoPoints
	for _, bc := range []struct {
		name    string
		resolve func(geo.Point) *admin.District
	}{
		{"packed", func(p geo.Point) *admin.District { d, _ := e.gaz.ResolvePoint(p, 10); return d }},
		{"linear", func(p geo.Point) *admin.District { return experiments.LinearResolvePoint(e.gaz, p, 10) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				if bc.resolve(pts[i%len(pts)]) != nil {
					hits++
				}
			}
			if hits == 0 {
				b.Fatal("no lookups hit")
			}
		})
	}
}

// BenchmarkAblationWeightForm compares the three reliability-weight forms as
// inputs to the particle-filter estimator.
func BenchmarkAblationWeightForm(b *testing.B) {
	e := getEnv(b)
	obs, bounds := buildEventObservations(b)
	for _, form := range []stir.WeightForm{
		stir.WeightHardTop1, stir.WeightGroupPrior, stir.WeightMatchShare,
	} {
		b.Run(form.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := e.result.ReliabilityWeights(form)
				local := make([]eventdetect.Observation, len(obs))
				copy(local, obs)
				for j := range local {
					if local[j].Source == eventdetect.SourceProfile {
						// Re-key observation weights under this form; the
						// profile obs order matches groupings order only
						// approximately, so use the mean weight — the
						// bench measures cost, not accuracy.
						local[j].Weight = meanWeight(w)
					}
				}
				if _, err := eventdetect.EstimateLocation(local, eventdetect.MethodParticle, bounds, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func meanWeight(w map[int64]float64) float64 {
	if len(w) == 0 {
		return 1
	}
	var s float64
	for _, v := range w {
		s += v
	}
	m := s / float64(len(w))
	if m <= 0 {
		m = 0.01
	}
	return m
}

// --- hot-path micro-benchmarks ---

// BenchmarkGroupingBuild times the core text-based grouping method on a
// realistic per-user tweet multiset.
func BenchmarkGroupingBuild(b *testing.B) {
	profile := core.Place{State: "Seoul", County: "Yangcheon-gu"}
	places := make([]core.Place, 0, 24)
	rng := rand.New(rand.NewSource(1))
	pool := []core.Place{
		profile,
		{State: "Seoul", County: "Jung-gu"},
		{State: "Seoul", County: "Mapo-gu"},
		{State: "Gyeonggi-do", County: "Bucheon-si"},
		{State: "Gyeonggi-do", County: "Seongnam-si"},
	}
	for i := 0; i < 24; i++ {
		places = append(places, pool[rng.Intn(len(pool))])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := core.BuildUserGrouping(42, profile, places)
		if u.TotalTweets != 24 {
			b.Fatal("bad grouping")
		}
	}
}

// BenchmarkLocStringParse times Table-I wire-format parsing.
func BenchmarkLocStringParse(b *testing.B) {
	s := "1001#Seoul#Yangcheon-gu#Seoul#Seodaemun-gu"
	for i := 0; i < b.N; i++ {
		if _, err := core.ParseLocString(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHaversine times the distance primitive under everything.
func BenchmarkHaversine(b *testing.B) {
	p := geo.Point{Lat: 37.5665, Lon: 126.9780}
	q := geo.Point{Lat: 35.1796, Lon: 129.0756}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += p.DistanceKm(q)
	}
	if sink == 0 {
		b.Fatal("no distance computed")
	}
}

// BenchmarkStoragePut times crawl-store appends.
func BenchmarkStoragePut(b *testing.B) {
	dir := b.TempDir()
	st, err := storage.Open(dir, storage.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	val := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Put(fmt.Sprintf("tweet/%012d", i), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeocodeResolve times a gazetteer point resolution (packed index path).
func BenchmarkGeocodeResolve(b *testing.B) {
	e := getEnv(b)
	pts := e.geoPoints
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.gaz.ResolvePoint(pts[i%len(pts)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBurstDetect times the Toretter burst scan over a day of reports.
func BenchmarkBurstDetect(b *testing.B) {
	base := time.Date(2011, 10, 5, 0, 0, 0, 0, time.UTC)
	var times []time.Time
	for i := 0; i < 1000; i++ {
		times = append(times, base.Add(time.Duration(i)*90*time.Second))
	}
	for i := 0; i < 50; i++ {
		times = append(times, base.Add(14*time.Hour).Add(time.Duration(i)*10*time.Second))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := eventdetect.DetectBursts(times, 10*time.Minute, 10, 4); len(got) == 0 {
			b.Fatal("burst not found")
		}
	}
}

// BenchmarkGeohashEncode times the spatial-key primitive.
func BenchmarkGeohashEncode(b *testing.B) {
	p := geo.Point{Lat: 37.5172, Lon: 126.8664}
	for i := 0; i < b.N; i++ {
		if h := geo.Encode(p, 8); len(h) != 8 {
			b.Fatal("bad hash")
		}
	}
}

// BenchmarkStorageBatchCommit compares N separate puts against one batch.
func BenchmarkStorageBatchCommit(b *testing.B) {
	val := make([]byte, 200)
	b.Run("20-puts", func(b *testing.B) {
		st, err := storage.Open(b.TempDir(), storage.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 20; j++ {
				if err := st.Put(fmt.Sprintf("k%d/%d", i, j), val); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("1-batch-of-20", func(b *testing.B) {
		st, err := storage.Open(b.TempDir(), storage.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		for i := 0; i < b.N; i++ {
			batch := st.NewBatch()
			for j := 0; j < 20; j++ {
				batch.Put(fmt.Sprintf("k%d/%d", i, j), val)
			}
			if err := batch.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTemporalProfile times the extension's posting-behaviour analysis.
func BenchmarkTemporalProfile(b *testing.B) {
	times := make([]time.Time, 200)
	base := time.Date(2011, 9, 1, 0, 0, 0, 0, time.UTC)
	for i := range times {
		times[i] = base.Add(time.Duration(i*97) * time.Minute)
	}
	for i := 0; i < b.N; i++ {
		p := temporal.BuildProfile(1, times, temporal.KST)
		if p.Total != 200 {
			b.Fatal("bad profile")
		}
		if _, err := temporal.Burstiness(times); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHomePrediction times the content/GPS home predictor per user.
func BenchmarkHomePrediction(b *testing.B) {
	e := getEnv(b)
	pred := &homeloc.Predictor{
		Gaz:      e.gaz,
		Resolver: geocode.NewGazetteerResolver(e.gaz, 10, 65536),
	}
	var tweets []*twitter.Tweet
	e.dataset.Service.EachTweet(func(t *twitter.Tweet) bool {
		if t.Geo != nil {
			tweets = append(tweets, t)
		}
		return len(tweets) < 30
	})
	if len(tweets) == 0 {
		b.Skip("no geo tweets in bench env")
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pred.Predict(ctx, tweets); err != nil {
			b.Fatal(err)
		}
	}
}
