package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"stir/internal/core"
	"stir/internal/geo"
	"stir/internal/geocode"
	"stir/internal/obs"
	"stir/internal/stream"
	"stir/internal/twitter"
)

// Cluster micro-benchmarks: routed ingest throughput and scatter-gather
// latency at 1, 2 and 4 workers. The routed path pays one JSON round-trip
// per ForwardBatch, so per-tweet cost is dominated by encoding + loopback
// HTTP — the point is the scaling shape across worker counts, not the
// absolute number.

type benchResolver struct{ places []core.Place }

func (r benchResolver) Reverse(_ context.Context, p geo.Point) (geocode.Location, error) {
	pl := r.places[int(p.Lat)%len(r.places)]
	return geocode.Location{State: pl.State, County: pl.County}, nil
}

func benchPlaces(n int) []core.Place {
	out := make([]core.Place, n)
	for i := range out {
		out[i] = core.Place{State: fmt.Sprintf("S%d", i%4), County: fmt.Sprintf("C%d", i)}
	}
	return out
}

// benchCluster boots n workers joined to a fresh router, all on synthetic
// profiles/resolvers (no dataset, no disk).
func benchCluster(b *testing.B, n int) (*Router, func()) {
	b.Helper()
	places := benchPlaces(16)
	r := New(Options{Partitions: 64, ForwardBatch: 512, Metrics: obs.NewRegistry(),
		ScatterTimeout: 5 * time.Second})
	var stops []func()
	for i := 0; i < n; i++ {
		eng, err := stream.New(stream.Config{
			Profiles: func(_ context.Context, id twitter.UserID) (core.Place, bool, error) {
				return places[int(id)%len(places)], true, nil
			},
			Resolver:       benchResolver{places: places},
			DedupByTweetID: true,
			Metrics:        obs.Discard,
		})
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("w%d", i+1)
		srv := httptest.NewServer(NewWorker(name, eng, obs.Discard).Handler())
		if err := r.AddWorker(context.Background(), name, srv.URL); err != nil {
			b.Fatal(err)
		}
		stops = append(stops, func() { srv.Close(); eng.Close() })
	}
	return r, func() {
		for _, s := range stops {
			s()
		}
	}
}

func benchTweets(n int) []*twitter.Tweet {
	const users = 2048
	out := make([]*twitter.Tweet, n)
	for i := range out {
		out[i] = &twitter.Tweet{
			ID:     twitter.TweetID(i + 1),
			UserID: twitter.UserID(i%users + 1),
			Geo:    &twitter.GeoTag{Lat: float64(i % 30), Lon: 1},
		}
	}
	return out
}

// BenchmarkClusterIngest measures routed ingest throughput (tweets/sec
// through IngestBatch, including journal + forward + ack) at each worker
// count.
func BenchmarkClusterIngest(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			r, stop := benchCluster(b, workers)
			defer stop()
			tweets := benchTweets(4096)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			sent := 0
			for sent < b.N {
				n := len(tweets)
				if n > b.N-sent {
					n = b.N - sent
				}
				rep := r.IngestBatch(ctx, tweets[:n])
				if rep.Forwarded != n {
					b.Fatalf("ingest dropped: %+v", rep)
				}
				sent += n
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tweets/sec")
		})
	}
}

// BenchmarkClusterScatterGroups measures the /v1/groups scatter-gather
// round-trip at each worker count, reporting p50 and p99 latency over the
// sampled iterations.
func BenchmarkClusterScatterGroups(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			r, stop := benchCluster(b, workers)
			defer stop()
			tweets := benchTweets(8192)
			if rep := r.IngestBatch(context.Background(), tweets); rep.Forwarded != len(tweets) {
				b.Fatalf("seed ingest dropped: %+v", rep)
			}
			ctx := context.Background()
			lat := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				res, status := r.Groups(ctx)
				lat = append(lat, time.Since(start))
				if status != 200 || res.Partial {
					b.Fatalf("degraded scatter in a healthy bench: status=%d %+v", status, res)
				}
			}
			b.StopTimer()
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			b.ReportMetric(float64(lat[len(lat)/2].Microseconds()), "p50-us")
			b.ReportMetric(float64(lat[len(lat)*99/100].Microseconds()), "p99-us")
		})
	}
}
