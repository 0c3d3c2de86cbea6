package stream

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"stir/internal/core"
	"stir/internal/geo"
	"stir/internal/geocode"
	"stir/internal/obs"
	"stir/internal/twitter"
)

// BenchmarkStreamIngest measures sustained ingestion on the default 4-shard
// layout with no faults: pre-resolved profiles, a pre-warmed cache-shaped
// resolver, and users spread across shards. single is one producer, the
// shape of Engine.Run and a replay driver; parallel is one producer per
// proc, the shape of a cluster worker's per-connection ingest handlers.
// The acceptance floor for this subsystem is 100k tweets/sec with zero
// drops.
func BenchmarkStreamIngest(b *testing.B) {
	const users = 1024
	tweets := make([]*twitter.Tweet, users)
	for i := range tweets {
		tweets[i] = geoTweet(int64(i), int64(i), float64(i%30))
	}
	b.Run("single", func(b *testing.B) {
		eng := ingestEngine(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Ingest(tweets[i%users])
		}
		drainIngest(b, eng)
	})
	b.Run("parallel", func(b *testing.B) {
		eng := ingestEngine(b)
		var next atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int(next.Add(users / 4))
			for pb.Next() {
				eng.Ingest(tweets[i%users])
				i++
			}
		})
		drainIngest(b, eng)
	})
}

// ingestEngine is BenchmarkStreamIngest's engine.
func ingestEngine(b *testing.B) *Engine {
	places := somePlaces(16)
	profiles := func(_ context.Context, id twitter.UserID) (core.Place, bool, error) {
		return places[int(id)%len(places)], true, nil
	}
	eng, err := New(Config{
		Shards:   4,
		Profiles: profiles,
		Resolver: echoResolver{},
		Metrics:  obs.Discard,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	return eng
}

// drainIngest stops BenchmarkStreamIngest's timer once every tweet is
// applied, requires all b.N of them processed and none dropped, and
// reports the rate.
func drainIngest(b *testing.B, eng *Engine) {
	eng.Drain()
	b.StopTimer()
	st := eng.Stats()
	if st.Dropped != 0 {
		b.Fatalf("dropped %d tweets under backpressure", st.Dropped)
	}
	if int(st.Processed) != b.N {
		b.Fatalf("processed %d of %d", st.Processed, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tweets/sec")
}

// BenchmarkEngineAnalysis measures the query-time cut /v1/groups reads:
// merging the shard summaries. Its cost and allocations must stay flat in
// the user count.
func BenchmarkEngineAnalysis(b *testing.B) {
	for _, users := range []int{2_000, 20_000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			eng := benchEngine(b, users)
			b.ReportAllocs()
			for b.Loop() {
				eng.Analysis()
			}
		})
	}
}

// BenchmarkEnginePartitionSummaries measures the cut a cluster worker
// serves its router: the summaries of 64 partitions, merged across the
// shards. The re-bucketing first call is outside the timer; like Analysis,
// the cost must stay flat in the user count.
func BenchmarkEnginePartitionSummaries(b *testing.B) {
	const partitions = 64
	for _, users := range []int{2_000, 20_000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			eng := benchEngine(b, users)
			if n := len(eng.PartitionSummaries(partitions)); n != partitions {
				b.Fatalf("%d of %d partitions hold users", n, partitions)
			}
			b.ReportAllocs()
			for b.Loop() {
				eng.PartitionSummaries(partitions)
			}
		})
	}
}

// benchEngine is a drained engine holding about users users. Tweets land
// on a spread of places, so users fall in every group with match shares of
// many denominators.
func benchEngine(b *testing.B, users int) *Engine {
	b.Helper()
	places := somePlaces(16)
	profiles := func(_ context.Context, id twitter.UserID) (core.Place, bool, error) {
		return places[int(id)%len(places)], true, nil
	}
	eng, err := New(Config{Profiles: profiles, Resolver: placeResolver(places), Metrics: obs.Discard})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 8*users; i++ {
		eng.Ingest(geoTweet(int64(i), int64(rnd.Intn(users)), float64(rnd.Intn(len(places)))))
	}
	eng.Drain()
	if a := eng.Analysis(); a.Users < users*9/10 || a.Groups[core.Top2].Users == 0 {
		b.Fatalf("analysis holds %d users (Top-2: %d), want about %d in several groups", a.Users, a.Groups[core.Top2].Users, users)
	}
	return eng
}

// placeResolver maps a point to the place its integer latitude indexes.
type placeResolver []core.Place

func (r placeResolver) Reverse(_ context.Context, p geo.Point) (geocode.Location, error) {
	pl := r[int(p.Lat)%len(r)]
	return geocode.Location{State: pl.State, County: pl.County}, nil
}

// BenchmarkUserStateObserve measures one tweet applied to a user holding k
// distinct places, at k = 3 (a typical user), 12 (the synthetic users'
// neighbourhood) and 227 (every Korean district, the bound). Tweets cycle
// through the places in descending key order, the worst case for the flat
// state: each one is found at the tail and carried across the whole
// equal-count run. The steady state must not allocate.
func BenchmarkUserStateObserve(b *testing.B) {
	for _, k := range []int{3, 12, 227} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			places := somePlaces(k)
			sort.Slice(places, func(i, j int) bool { return places[i].Key() > places[j].Key() })
			st := newUserState(1, places[k/2])
			for _, p := range places {
				st.observe(p)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.observe(places[i%k])
			}
		})
	}
}
