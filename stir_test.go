package stir

import (
	"context"
	"strings"
	"testing"
)

// analyzeSmall is shared fixture plumbing: a small but statistically
// meaningful Korean dataset.
func analyzeSmall(t testing.TB, seed int64, users int) (*Dataset, *Result) {
	t.Helper()
	ds, err := NewKoreanDataset(DatasetOptions{Seed: seed, Users: users})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ds, res
}

func TestDatasetAnalyzeEndToEnd(t *testing.T) {
	_, res := analyzeSmall(t, 1, 4000)
	if res.Funnel.RawUsers != 4000 {
		t.Fatalf("RawUsers = %d", res.Funnel.RawUsers)
	}
	if res.Analysis.Users == 0 {
		t.Fatal("no users survived the funnel")
	}
	if res.Analysis.Users != res.Funnel.FinalUsers {
		t.Fatalf("analysis users %d != funnel final %d", res.Analysis.Users, res.Funnel.FinalUsers)
	}
	// Paper shape: Top-1 is the largest single Top group.
	top1 := res.Analysis.Stat(Top1).UserShare
	for _, g := range []Group{Top2, Top3, Top4, Top5, TopPlus} {
		if res.Analysis.Stat(g).UserShare > top1 {
			t.Fatalf("%v share exceeds Top-1", g)
		}
	}
}

func TestReliabilityWeightsFromResult(t *testing.T) {
	_, res := analyzeSmall(t, 3, 3000)
	w := res.ReliabilityWeights(WeightMatchShare)
	if len(w) != len(res.Groupings) {
		t.Fatalf("weights = %d, groupings = %d", len(w), len(res.Groupings))
	}
	for id, v := range w {
		if v < 0 || v > 1 {
			t.Fatalf("weight[%d] = %v out of [0,1]", id, v)
		}
	}
	// Hard form only rewards Top-1.
	hard := res.ReliabilityWeights(WeightHardTop1)
	for _, g := range res.Groupings {
		want := 0.0
		if g.Group == Top1 {
			want = 1
		}
		if hard[g.UserID] != want {
			t.Fatalf("hard weight of %v user = %v", g.Group, hard[g.UserID])
		}
	}
}

func TestFormatters(t *testing.T) {
	_, res := analyzeSmall(t, 5, 2000)
	out := FormatAnalysis(&res.Analysis)
	for _, needle := range []string{"Top-1", "None", "Fig. 7", "Fig. 6", "overall match share"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("FormatAnalysis missing %q:\n%s", needle, out)
		}
	}
	fun := FormatFunnel(&res.Funnel)
	for _, needle := range []string{"crawled users", "final users", "GPS"} {
		if !strings.Contains(fun, needle) {
			t.Fatalf("FormatFunnel missing %q:\n%s", needle, fun)
		}
	}
}

func TestWorldDataset(t *testing.T) {
	ds, err := NewWorldDataset(DatasetOptions{Seed: 7, Users: 1500})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Analysis.Users == 0 {
		t.Fatal("world dataset produced no final users")
	}
	if ds.Kind != "world" {
		t.Fatalf("Kind = %q", ds.Kind)
	}
}

func TestEventWeightingImprovesEstimate(t *testing.T) {
	ds, err := NewKoreanDataset(DatasetOptions{Seed: 11, Users: 4000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	opts := EventOptions{Seed: 23, Method: MethodParticle, GeoFraction: 0.05}
	truth, err := ds.InjectEvent(opts)
	if err != nil {
		t.Fatal(err)
	}
	if truth.Reports < 30 {
		t.Fatalf("too few event reports (%d) for a meaningful comparison", truth.Reports)
	}
	unweighted, err := ds.EstimateEvent(context.Background(), truth, res, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := ds.EstimateEvent(context.Background(), truth, res,
		res.ReliabilityWeights(WeightMatchShare), opts)
	if err != nil {
		t.Fatal(err)
	}
	if unweighted.Observations == 0 || weighted.Observations == 0 {
		t.Fatal("estimators used no observations")
	}
	// The central claim: reliability weighting should not make the estimate
	// worse, and the weighted error should be city-scale.
	if weighted.ErrorKm > unweighted.ErrorKm+5 {
		t.Fatalf("weighted %.1f km much worse than unweighted %.1f km",
			weighted.ErrorKm, unweighted.ErrorKm)
	}
	if weighted.ErrorKm > 60 {
		t.Fatalf("weighted estimate %.1f km off", weighted.ErrorKm)
	}
}

func TestEstimateEventValidation(t *testing.T) {
	ds, err := NewKoreanDataset(DatasetOptions{Seed: 1, Users: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.EstimateEvent(context.Background(), nil, nil, nil, EventOptions{}); err == nil {
		t.Fatal("missing truth/result accepted")
	}
}

func TestDatasetOptionDefaults(t *testing.T) {
	var o DatasetOptions
	o.fill()
	if o.Seed != 1 || o.Users != 5200 {
		t.Fatalf("defaults = %+v", o)
	}
	var e EventOptions
	e.fill("korean")
	if e.Keyword != "earthquake" || e.RadiusKm != 40 || e.Epicenter.Lat == 0 {
		t.Fatalf("event defaults = %+v", e)
	}
	var ew EventOptions
	ew.fill("world")
	if ew.Epicenter == e.Epicenter {
		t.Fatal("world default epicentre should differ")
	}
}
