package stream

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stir/internal/geo"
	"stir/internal/geocode"
	"stir/internal/obs"
)

// acceptedOutcomes sums the ledger outcomes of accepted tweets: every
// outcome but Dropped.
func acceptedOutcomes(l Ledger) int64 {
	return l.Processed + l.NonGeo + l.GeocodeFailures + l.ProfileErrors +
		l.ResolveErrors + l.Duplicates + l.RejectedTweets
}

// TestCloseAccountsEveryAcceptedTweet races producers against Close: every
// tweet Ingest accepted is applied before Close returns, and every Ingest
// after it refuses, so Ingested = Σ outcomes − Dropped.
func TestCloseAccountsEveryAcceptedTweet(t *testing.T) {
	for _, shed := range []bool{false, true} {
		t.Run(fmt.Sprintf("DropWhenFull=%v", shed), func(t *testing.T) {
			eng, _ := plainEngine(t, func(c *Config) {
				c.Shards = 2
				c.Buffer = 4
				c.DropWhenFull = shed
			})
			var accepted atomic.Int64
			var closing atomic.Bool
			var wg sync.WaitGroup
			for p := int64(0); p < 4; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := int64(0); ; i++ {
						if eng.Ingest(geoTweet(p<<32|i, p*100+i%50, float64(i%3))) {
							accepted.Add(1)
						} else if closing.Load() {
							return
						}
					}
				}()
			}
			for eng.Ingested() < 2000 {
				time.Sleep(100 * time.Microsecond)
			}
			closing.Store(true)
			eng.Close()
			if eng.Ingest(geoTweet(1, 1, 1)) {
				t.Fatal("Ingest accepted a tweet after Close returned")
			}
			wg.Wait()
			st := eng.Stats()
			if st.Ingested != accepted.Load() || acceptedOutcomes(st.Ledger) != st.Ingested {
				t.Fatalf("accepted %d, ingested %d, outcomes of accepted tweets %d: %+v",
					accepted.Load(), st.Ingested, acceptedOutcomes(st.Ledger), st.Ledger)
			}
			if !shed && st.Dropped != 0 {
				t.Fatalf("blocking engine dropped %d tweets", st.Dropped)
			}
		})
	}
}

// TestBlockedProducerWakesOnTake: with Buffer 1 and DropWhenFull off, a
// producer facing a full queue waits, and wakes when the worker takes the
// queued tweet as its next batch.
func TestBlockedProducerWakesOnTake(t *testing.T) {
	eng, prof := plainEngine(t, func(c *Config) { c.Buffer = 1 })
	prof.block = make(chan struct{})
	eng.Ingest(geoTweet(1, 10, 1)) // the worker takes it and waits in the profile lookup
	for prof.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	eng.Ingest(geoTweet(2, 10, 1)) // fills the queue
	returned := make(chan bool)
	go func() { returned <- eng.Ingest(geoTweet(3, 10, 1)) }()
	select {
	case <-returned:
		t.Fatal("Ingest returned while the queue was full")
	case <-time.After(50 * time.Millisecond):
	}
	if n := eng.shards[0].q.len(); n != 1 {
		t.Fatalf("queue holds %d messages, want 1", n)
	}
	close(prof.block)
	select {
	case ok := <-returned:
		if !ok {
			t.Fatal("blocked Ingest refused")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked producer never woke after the worker took its batch")
	}
	eng.Drain()
	if st := eng.Stats(); st.Processed != 3 || st.Dropped != 0 {
		t.Fatalf("processed %d, dropped %d; want 3 and 0", st.Processed, st.Dropped)
	}
}

// TestDrainBarrierClosesAfterItsBatch: a Drain barrier queued behind tweets
// reaches the worker in the same taken batch, and closes only after those
// tweets are applied.
func TestDrainBarrierClosesAfterItsBatch(t *testing.T) {
	eng, prof := plainEngine(t, nil)
	prof.block = make(chan struct{})
	eng.Ingest(geoTweet(1, 10, 1)) // holds the worker
	for prof.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	const queued = 9
	for i := int64(2); i <= 1+queued; i++ {
		eng.Ingest(geoTweet(i, 10+i, 1))
	}
	drained := make(chan struct{})
	go func() {
		eng.Drain()
		close(drained)
	}()
	for eng.shards[0].q.len() != queued+1 { // the tweets, then the barrier
		time.Sleep(time.Millisecond)
	}
	close(prof.block)
	<-drained
	if st := eng.Stats(); st.Processed != 1+queued {
		t.Fatalf("Drain returned with %d of %d tweets applied", st.Processed, 1+queued)
	}
}

// slowResolver is echoResolver taking about a scheduler tick per point, so
// producers outrun the workers and keep the queues full.
type slowResolver struct{ echoResolver }

func (r slowResolver) Reverse(ctx context.Context, p geo.Point) (geocode.Location, error) {
	time.Sleep(10 * time.Microsecond)
	return r.echoResolver.Reverse(ctx, p)
}

// TestQueueDepthWithinBuffer samples the stream_queue_depth gauges while
// producers outrun slow workers: no shard ever reports more than Buffer
// waiting messages.
func TestQueueDepthWithinBuffer(t *testing.T) {
	const buffer, producers, each = 8, 4, 1000
	reg := obs.NewRegistry()
	eng, _ := plainEngine(t, func(c *Config) {
		c.Shards = 2
		c.Buffer = buffer
		c.Resolver = slowResolver{}
		c.Metrics = reg
	})
	stop, sampled := make(chan struct{}), make(chan float64)
	go func() {
		deepest := 0.0
		for {
			select {
			case <-stop:
				sampled <- deepest
				return
			default:
			}
			for _, m := range reg.Snapshot().Metrics {
				if m.Name == "stream_queue_depth" && m.Value > deepest {
					deepest = m.Value
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for p := int64(0); p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < each; i++ {
				eng.Ingest(geoTweet(p<<32|i, p*100+i%50, 1))
			}
		}()
	}
	wg.Wait()
	eng.Drain()
	close(stop)
	if deepest := <-sampled; deepest > buffer || deepest == 0 {
		t.Fatalf("deepest stream_queue_depth %v, want 1..Buffer (%d)", deepest, buffer)
	}
	if st := eng.Stats(); st.Processed != producers*each || st.Dropped != 0 {
		t.Fatalf("processed %d, dropped %d; want %d and 0", st.Processed, st.Dropped, producers*each)
	}
}
