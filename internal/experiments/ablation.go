package experiments

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"stir"
	"stir/internal/admin"
	"stir/internal/geo"
	"stir/internal/geocode"
	"stir/internal/pipeline"
	"stir/internal/report"
	"stir/internal/twitter"
)

// Ablations for the design choices DESIGN.md calls out. Each returns an
// Outcome like the main experiments; the matching timing benches live in the
// root bench_test.go.

// AblationGranularity compares county-level grouping (the paper's choice:
// metropolitan cities split into gu) against state-level grouping.
func (s *Suite) AblationGranularity(ctx context.Context) (*Outcome, error) {
	gaz, err := admin.NewKoreaGazetteer()
	if err != nil {
		return nil, err
	}
	ds, err := stir.NewKoreanDataset(stir.DatasetOptions{Seed: s.Scale.Seed, Users: s.Scale.KoreanUsers})
	if err != nil {
		return nil, err
	}
	users, tweets := pipeline.CollectFromService(ds.Service)

	run := func(stateLevel bool) (*pipeline.Result, error) {
		p := pipeline.New(gaz, 10)
		p.StateLevel = stateLevel
		return p.Run(ctx, users, tweets)
	}
	county, err := run(false)
	if err != nil {
		return nil, err
	}
	state, err := run(true)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Granularity", "Top-1 share", "None share", "Avg districts")
	t.AddRow("county (si/gu/gun — paper)",
		report.Pct(county.Analysis.Stat(stir.Top1).UserShare),
		report.Pct(county.Analysis.Stat(stir.NoneGrp).UserShare),
		fmt.Sprintf("%.2f", county.Analysis.OverallAvgDistricts))
	t.AddRow("state (province/metro)",
		report.Pct(state.Analysis.Stat(stir.Top1).UserShare),
		report.Pct(state.Analysis.Stat(stir.NoneGrp).UserShare),
		fmt.Sprintf("%.2f", state.Analysis.OverallAvgDistricts))
	comps := []report.Comparison{
		{
			Metric: "coarser grouping inflates Top-1", Paper: "motivates splitting metros into gu",
			Measured: fmt.Sprintf("state %s vs county %s",
				report.Pct(state.Analysis.Stat(stir.Top1).UserShare),
				report.Pct(county.Analysis.Stat(stir.Top1).UserShare)),
			Holds: state.Analysis.Stat(stir.Top1).UserShare > county.Analysis.Stat(stir.Top1).UserShare,
		},
		{
			Metric: "coarser grouping shrinks None", Paper: "commuters inside one metro look 'at home'",
			Measured: fmt.Sprintf("state %s vs county %s",
				report.Pct(state.Analysis.Stat(stir.NoneGrp).UserShare),
				report.Pct(county.Analysis.Stat(stir.NoneGrp).UserShare)),
			Holds: state.Analysis.Stat(stir.NoneGrp).UserShare < county.Analysis.Stat(stir.NoneGrp).UserShare,
		},
	}
	return &Outcome{ID: "A1", Title: "Ablation — grouping granularity", Report: t.String(), Comparisons: comps}, nil
}

// AblationGeocodeCache reports how much of the geocoding load the
// in-process resolver's point table absorbs on a realistic tweet stream.
func AblationGeocodeCache(ctx context.Context, sc Scale) (*Outcome, error) {
	gaz, err := admin.NewKoreaGazetteer()
	if err != nil {
		return nil, err
	}
	ds, err := stir.NewKoreanDataset(stir.DatasetOptions{Seed: sc.Seed, Users: sc.KoreanUsers})
	if err != nil {
		return nil, err
	}
	var points []geo.Point
	ds.Service.EachTweet(func(t *twitter.Tweet) bool {
		if t.Geo != nil {
			points = append(points, geo.Point{Lat: t.Geo.Lat, Lon: t.Geo.Lon})
		}
		return true
	})
	// County-level grouping tolerates ~1 km quantisation, which is what
	// makes the table effective; the pipeline's default is finer.
	cached := geocode.NewGazetteerResolver(gaz, 10, 65536)
	cached.SetQuantizeDecimals(2)
	tiny := geocode.NewGazetteerResolver(gaz, 10, 1) // one slot: effectively uncached
	tiny.SetQuantizeDecimals(2)
	for _, p := range points {
		if _, err := cached.Reverse(ctx, p); err != nil && !errors.Is(err, geocode.ErrNoMatch) {
			return nil, err
		}
		tiny.Reverse(ctx, p)
	}
	cs, ts := cached.Stats(), tiny.Stats()
	hitRate := 0.0
	if cs.Hits+cs.Misses > 0 {
		hitRate = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	}
	t := report.NewTable("Point table", "Hits", "Misses", "Hit rate")
	t.AddRow("65536 slots", fmt.Sprint(cs.Hits), fmt.Sprint(cs.Misses), report.Pct(hitRate))
	tinyRate := 0.0
	if ts.Hits+ts.Misses > 0 {
		tinyRate = float64(ts.Hits) / float64(ts.Hits+ts.Misses)
	}
	t.AddRow("1 slot (ablated)", fmt.Sprint(ts.Hits), fmt.Sprint(ts.Misses), report.Pct(tinyRate))
	comps := []report.Comparison{{
		Metric: "point table absorbs most geocode calls", Paper: "GPS tweets cluster in few districts",
		Measured: report.Pct(hitRate), Holds: hitRate > 0.2,
	}}
	return &Outcome{ID: "A2", Title: "Ablation — in-process geocode point table", Report: t.String(), Comparisons: comps}, nil
}

// AblationSpatialIndex checks that the gazetteer's packed point index and a
// linear scan over its districts resolve random points alike, and reports
// both; timing lives in BenchmarkAblationSpatialIndex.
func AblationSpatialIndex(sc Scale) (*Outcome, error) {
	gaz, err := admin.NewKoreaGazetteer()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(sc.Seed))
	b := gaz.Bounds()
	agree := true
	queries := 2000
	for i := 0; i < queries; i++ {
		p := geo.Point{
			Lat: b.MinLat + rng.Float64()*(b.MaxLat-b.MinLat),
			Lon: b.MinLon + rng.Float64()*(b.MaxLon-b.MinLon),
		}
		d, err := gaz.ResolvePoint(p, 10)
		if err != nil {
			d = nil
		}
		if d != LinearResolvePoint(gaz, p, 10) {
			agree = false
			break
		}
	}
	t := report.NewTable("Index", "Items", "Note")
	t.AddRow("packed index", fmt.Sprint(gaz.Len()), "STR-packed leaves of 16")
	t.AddRow("linear scan", fmt.Sprint(gaz.Len()), "oracle baseline")
	comps := []report.Comparison{{
		Metric: fmt.Sprintf("packed index and linear scan agree on %d random lookups", queries),
		Paper:  "correctness precondition", Measured: boolWord(agree), Holds: agree,
	}}
	return &Outcome{ID: "A3", Title: "Ablation — spatial index structures", Report: t.String(), Comparisons: comps}, nil
}

// LinearResolvePoint is Gazetteer.ResolvePoint by a scan of every district,
// the baseline ablation A3 weighs the packed index against: the closest
// centre among the districts whose extent holds p, else the least overshoot
// within slackKm among the 8 whose boxes lie nearest p. An exact tie goes
// to the earlier district, as in the index. It returns nil for no match.
func LinearResolvePoint(gaz *admin.Gazetteer, p geo.Point, slackKm float64) *admin.District {
	if !p.Valid() {
		return nil
	}
	ds := gaz.Districts()
	best, bestD := -1, 0.0
	for i, d := range ds {
		if !d.Bounds().Contains(p) {
			continue
		}
		if dist := d.Center.DistanceKm(p); dist <= d.RadiusKm && (best < 0 || dist < bestD) {
			best, bestD = i, dist
		}
	}
	if best < 0 && slackKm >= 0 {
		near := make([]int, len(ds))
		for i := range near {
			near[i] = i
		}
		slices.SortStableFunc(near, func(a, b int) int {
			return cmp.Compare(ds[a].Bounds().DistanceSqDeg(p), ds[b].Bounds().DistanceSqDeg(p))
		})
		near = near[:min(8, len(near))]
		slices.Sort(near)
		for _, i := range near {
			if over := ds[i].Center.DistanceKm(p) - ds[i].RadiusKm; over <= slackKm && (best < 0 || over < bestD) {
				best, bestD = i, over
			}
		}
	}
	if best < 0 {
		return nil
	}
	return ds[best]
}

// AllAblations runs every ablation at the given scale.
func AllAblations(ctx context.Context, sc Scale) ([]*Outcome, error) {
	s, err := NewSuite(ctx, sc)
	if err != nil {
		return nil, err
	}
	a1, err := s.AblationGranularity(ctx)
	if err != nil {
		return nil, err
	}
	a2, err := AblationGeocodeCache(ctx, sc)
	if err != nil {
		return nil, err
	}
	a3, err := AblationSpatialIndex(sc)
	if err != nil {
		return nil, err
	}
	a4, err := s.AblationMinGeoTweets(ctx)
	if err != nil {
		return nil, err
	}
	return []*Outcome{a1, a2, a3, a4}, nil
}

// AblationMinGeoTweets sweeps the minimum-GPS-tweets threshold the paper
// implicitly set to 1. Requiring more evidence per user shrinks the sample
// but stabilises each user's rank; the headline shares should hold across
// thresholds if the result is real.
func (s *Suite) AblationMinGeoTweets(ctx context.Context) (*Outcome, error) {
	gaz, err := admin.NewKoreaGazetteer()
	if err != nil {
		return nil, err
	}
	ds, err := stir.NewKoreanDataset(stir.DatasetOptions{Seed: s.Scale.Seed, Users: s.Scale.KoreanUsers})
	if err != nil {
		return nil, err
	}
	users, tweets := pipeline.CollectFromService(ds.Service)
	t := report.NewTable("Min GPS tweets", "Final users", "Top-1 share", "None share", "Avg districts")
	type row struct {
		users        int
		top1, none   float64
		avgDistricts float64
	}
	var rows []row
	for _, minGeo := range []int{1, 3, 5, 10} {
		p := pipeline.New(gaz, 10)
		p.MinGeoTweets = minGeo
		res, err := p.Run(ctx, users, tweets)
		if err != nil {
			return nil, err
		}
		a := res.Analysis
		rows = append(rows, row{
			users:        a.Users,
			top1:         a.Stat(stir.Top1).UserShare,
			none:         a.Stat(stir.NoneGrp).UserShare,
			avgDistricts: a.OverallAvgDistricts,
		})
		t.AddRow(fmt.Sprint(minGeo), fmt.Sprint(a.Users),
			report.Pct(a.Stat(stir.Top1).UserShare),
			report.Pct(a.Stat(stir.NoneGrp).UserShare),
			fmt.Sprintf("%.2f", a.OverallAvgDistricts))
	}
	narrowing := true
	for i := 1; i < len(rows); i++ {
		if rows[i].users > rows[i-1].users {
			narrowing = false
		}
	}
	// Avg districts must grow with the evidence floor (users with more geo
	// tweets visit more districts by construction of the distinct count).
	growing := rows[len(rows)-1].avgDistricts > rows[0].avgDistricts
	stable := true
	for _, r := range rows {
		if r.users < 50 {
			continue // share estimates too noisy to constrain
		}
		// Bands are generous: samples shrink fast with the threshold, so a
		// ±15-point swing is already sampling noise at bench scales.
		if r.top1 < 0.30 || r.top1 > 0.70 || r.none < 0.12 || r.none > 0.48 {
			stable = false
		}
	}
	comps := []report.Comparison{
		{
			Metric: "sample narrows as the evidence floor rises", Paper: "funnel logic",
			Measured: fmt.Sprintf("%d → %d users", rows[0].users, rows[len(rows)-1].users),
			Holds:    narrowing,
		},
		{
			Metric: "headline shares stable across thresholds", Paper: "result is not an artifact of min=1",
			Measured: fmt.Sprintf("Top-1 %s→%s, None %s→%s",
				report.Pct(rows[0].top1), report.Pct(rows[len(rows)-1].top1),
				report.Pct(rows[0].none), report.Pct(rows[len(rows)-1].none)),
			Holds: stable,
		},
		{
			Metric: "distinct districts grow with evidence", Paper: "more tweets reveal more places",
			Measured: fmt.Sprintf("%.2f → %.2f", rows[0].avgDistricts, rows[len(rows)-1].avgDistricts),
			Holds:    growing,
		},
	}
	return &Outcome{ID: "A4", Title: "Ablation — minimum GPS tweets per user", Report: t.String(), Comparisons: comps}, nil
}
