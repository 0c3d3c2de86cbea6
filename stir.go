// Package stir is the public API of the STIR library, a reproduction of
// "A Study of the Correlation between the Spatial Attributes on Twitter"
// (Lee & Hwang, ICDE Workshops 2012).
//
// The library answers the paper's question — how reliably does a Twitter
// user's free-text profile location predict where their GPS-tagged tweets
// are actually posted from? — and packages the answer as per-user
// reliability weights for tweet-based event-location estimation.
//
// The expected flow mirrors the paper:
//
//	ds, _   := stir.NewKoreanDataset(stir.DatasetOptions{Seed: 1, Users: 5200})
//	res, _  := ds.Analyze(ctx)               // §III refinement + §IV analysis
//	fmt.Print(stir.FormatAnalysis(&res.Analysis))
//	w       := res.ReliabilityWeights(stir.WeightMatchShare)
//	est, _  := ds.EstimateEvent(ctx, stir.EventOptions{...}, w)
//
// Everything the paper needed but could not share — the Twitter crawl, the
// Yahoo geocoding API — is simulated in-process by internal substrates with
// the same interfaces and failure modes; see DESIGN.md.
package stir

import (
	"context"
	"fmt"

	"stir/internal/admin"
	"stir/internal/core"
	"stir/internal/geo"
	"stir/internal/pipeline"
	"stir/internal/report"
	"stir/internal/resilience/fault"
	"stir/internal/synth"
	"stir/internal/twitter"
)

// Re-exported result types. These aliases make the analysis outputs usable
// without importing internal packages.
type (
	// Analysis is the per-group statistics of one dataset (Figures 6-7).
	Analysis = core.Analysis
	// GroupStat is one Top-k group's aggregate.
	GroupStat = core.GroupStat
	// Group is the Top-k classification of a user.
	Group = core.Group
	// UserGrouping is the grouping method's per-user output.
	UserGrouping = core.UserGrouping
	// Place is a state#county district reference.
	Place = core.Place
	// Funnel counts the §III refinement attrition.
	Funnel = pipeline.Funnel
	// WeightForm selects how groupings convert to reliability weights.
	WeightForm = core.WeightForm
	// Point is a WGS-84 coordinate.
	Point = geo.Point
	// District is one administrative district.
	District = admin.District
)

// Group constants in figure order.
const (
	Top1    = core.Top1
	Top2    = core.Top2
	Top3    = core.Top3
	Top4    = core.Top4
	Top5    = core.Top5
	TopPlus = core.TopPlus
	NoneGrp = core.None
)

// Weight forms.
const (
	WeightHardTop1   = core.WeightHardTop1
	WeightGroupPrior = core.WeightGroupPrior
	WeightMatchShare = core.WeightMatchShare
)

// Groups lists all groups in display order.
func Groups() []Group { return core.Groups() }

// DatasetOptions configures dataset generation.
type DatasetOptions struct {
	// Seed fixes the synthetic population (default 1).
	Seed int64
	// Users is the population size (default 5200, the paper's Korean crawl
	// scaled 1:10).
	Users int
	// FollowerGraph wires a crawlable topology (needed only for Crawl-based
	// collection; direct analysis does not require it).
	FollowerGraph bool
}

func (o *DatasetOptions) fill() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Users <= 0 {
		o.Users = 5200
	}
}

// Dataset bundles a simulated platform, its gazetteer and its ground truth.
type Dataset struct {
	// Service is the simulated Twitter platform holding the population.
	Service *twitter.Service
	// Gazetteer is the administrative gazetteer the dataset was built over.
	Gazetteer *admin.Gazetteer
	// Population is the generator's ground truth (home district, mobility
	// class and profile quality per user).
	Population *synth.Population
	// Kind is "korean" or "world".
	Kind string
}

// NewKoreanDataset generates the paper's Korean dataset analogue.
func NewKoreanDataset(opts DatasetOptions) (*Dataset, error) {
	opts.fill()
	gaz, err := admin.NewKoreaGazetteer()
	if err != nil {
		return nil, err
	}
	cfg := synth.KoreanConfig(opts.Seed, opts.Users, gaz)
	cfg.FollowerGraph = opts.FollowerGraph
	return newDataset(cfg, gaz, "korean")
}

// NewWorldDataset generates the Lady Gaga (worldwide Streaming API) dataset
// analogue.
func NewWorldDataset(opts DatasetOptions) (*Dataset, error) {
	opts.fill()
	gaz, err := admin.NewWorldGazetteer()
	if err != nil {
		return nil, err
	}
	cfg := synth.LadyGagaConfig(opts.Seed, opts.Users, gaz)
	cfg.FollowerGraph = opts.FollowerGraph
	return newDataset(cfg, gaz, "world")
}

func newDataset(cfg synth.Config, gaz *admin.Gazetteer, kind string) (*Dataset, error) {
	gen, err := synth.New(cfg)
	if err != nil {
		return nil, err
	}
	svc := twitter.NewService()
	pop, err := gen.Populate(svc)
	if err != nil {
		return nil, err
	}
	return &Dataset{Service: svc, Gazetteer: gaz, Population: pop, Kind: kind}, nil
}

// Result is a completed §III+§IV run over one dataset.
type Result struct {
	// Funnel is the collection/refinement attrition.
	Funnel Funnel
	// Groupings is the per-user method output.
	Groupings []UserGrouping
	// Analysis is the per-group aggregate (the paper's figures).
	Analysis Analysis
	// ProfileDistrict maps surviving users to their profile district.
	ProfileDistrict map[twitter.UserID]*District
	// SkippedUsers lists the users a degraded (ContinueOnError) run
	// dropped, sorted by ID. Empty in strict mode.
	SkippedUsers []twitter.UserID
}

// Analyze runs the full §III pipeline (refine → geocode → group) and the
// §IV analysis over the dataset.
func (d *Dataset) Analyze(ctx context.Context) (*Result, error) {
	return d.AnalyzeWith(ctx, AnalyzeOptions{})
}

// AnalyzeWith is Analyze with explicit resilience options: ContinueOnError
// runs degraded, FaultRate/FaultSeed inject a deterministic geocode fault
// schedule. The store-related AnalyzeOptions fields are ignored here.
func (d *Dataset) AnalyzeWith(ctx context.Context, opts AnalyzeOptions) (*Result, error) {
	users, tweets := pipeline.CollectFromService(d.Service)
	p := pipeline.New(d.Gazetteer, 10)
	applyResilience(p, opts)
	r, err := p.Run(ctx, users, tweets)
	if err != nil {
		return nil, err
	}
	return resultOf(r), nil
}

// applyResilience wires the shared resilience knobs into a pipeline.
func applyResilience(p *pipeline.Pipeline, opts AnalyzeOptions) {
	p.ContinueOnError = opts.ContinueOnError
	p.Trace = opts.Trace
	if opts.FaultRate > 0 {
		inj := fault.New(opts.FaultSeed, fault.Uniform(opts.FaultRate), nil)
		p.Resolver = inj.Resolver(p.Resolver)
	}
}

// resultOf converts a pipeline result into the public Result.
func resultOf(r *pipeline.Result) *Result {
	return &Result{
		Funnel:          r.Funnel,
		Groupings:       r.Groupings,
		Analysis:        r.Analysis,
		ProfileDistrict: r.ProfileDistrict,
		SkippedUsers:    r.SkippedUsers,
	}
}

// ReliabilityWeights converts the analysis into per-user weights (keyed by
// user ID) under the chosen form, the paper's §V proposal.
func (r *Result) ReliabilityWeights(form WeightForm) map[int64]float64 {
	w := &core.Weigher{Form: form, Ref: &r.Analysis}
	return w.WeightTable(r.Groupings)
}

// FormatAnalysis renders the analysis as the three terminal charts matching
// Fig. 7 (user share), Fig. 6 (average districts) and the slides' tweet
// share.
func FormatAnalysis(a *Analysis) string {
	users := report.NewBarChart()
	users.Format = "%.1f%%"
	avg := report.NewBarChart()
	tweets := report.NewBarChart()
	tweets.Format = "%.1f%%"
	for _, g := range Groups() {
		st := a.Stat(g)
		users.Add(g.String(), st.UserShare*100)
		tweets.Add(g.String(), st.TweetShare*100)
		if g != NoneGrp || st.Users > 0 {
			avg.Add(g.String(), st.AvgDistinctDistricts)
		}
	}
	return fmt.Sprintf(
		"Users per group (Fig. 7):\n%s\nAverage tweet districts per group (Fig. 6):\n%s\nTweets per group (slides):\n%s\nTotal: %d users, %d geo-tweets; overall avg districts %.2f; overall match share %.1f%%\n",
		users, avg, tweets, a.Users, a.Tweets, a.OverallAvgDistricts, a.OverallMatchShare*100)
}

// FormatFunnel renders the §III collection funnel as a table.
func FormatFunnel(f *Funnel) string {
	t := report.NewTable("Stage", "Count")
	t.AddRow("crawled users", fmt.Sprint(f.RawUsers))
	t.AddRow("collected tweets", fmt.Sprint(f.RawTweets))
	t.AddRow("tweets with GPS", fmt.Sprint(f.GeoTweets))
	t.AddRow("users with empty profile location", fmt.Sprint(f.EmptyProfiles))
	t.AddRow("users with well-defined profile", fmt.Sprint(f.WellDefinedUsers))
	t.AddRow("final users (well-defined + GPS tweets)", fmt.Sprint(f.FinalUsers))
	t.AddRow("final users' GPS tweets", fmt.Sprint(f.FinalGeoTweets))
	if f.SkippedUsers > 0 {
		t.AddRow("users skipped (degraded mode)", fmt.Sprint(f.SkippedUsers))
	}
	return t.String()
}
