package pipeline

import (
	"stir/internal/geocode"
	"stir/internal/obs"
)

// FunnelMetric is the gauge family holding the §III attrition funnel; each
// Funnel field becomes one series labelled by stage.
const FunnelMetric = "stir_funnel"

// FunnelProfileMetric breaks the profile-quality counts out per quality label.
const FunnelProfileMetric = "stir_funnel_profile"

// publishFunnel mirrors every Funnel field into gauges so a /metrics scrape
// during or after a run reports the same numbers Run returns. The stage
// labels correspond one-to-one with the Funnel struct fields.
func publishFunnel(reg *obs.Registry, f Funnel) {
	stages := []struct {
		stage string
		v     int
	}{
		{"raw_users", f.RawUsers},
		{"raw_tweets", f.RawTweets},
		{"empty_profiles", f.EmptyProfiles},
		{"well_defined_users", f.WellDefinedUsers},
		{"geo_tweets", f.GeoTweets},
		{"final_users", f.FinalUsers},
		{"final_geo_tweets", f.FinalGeoTweets},
		{"geocode_failures", f.GeocodeFailures},
		{"skipped_users", f.SkippedUsers},
	}
	for _, s := range stages {
		reg.Gauge(FunnelMetric, "stage", s.stage).Set(float64(s.v))
	}
	for q, n := range f.ProfileBreakdown {
		reg.Gauge(FunnelProfileMetric, "quality", q.String()).Set(float64(n))
	}
}

// registerResolverMetrics exposes the resolver's cache stats when the
// resolver can report them (DirectResolver and the geocode HTTP client both
// can). GaugeFunc re-registration replaces, so repeated runs are safe.
func registerResolverMetrics(reg *obs.Registry, r geocode.Resolver) {
	if p, ok := r.(geocode.StatsProvider); ok {
		geocode.RegisterCacheMetrics(reg, "pipeline", p)
	}
}
