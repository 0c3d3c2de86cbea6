package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"stir/internal/core"
	"stir/internal/obs"
	"stir/internal/stream"
	"stir/internal/twitter"
)

// copyBufferAllocs counts the allocations io.copyBuffer has made itself so
// far: the fresh buffer io.Copy makes when neither side brings one, as
// TCPConn.ReadFrom's generic path does.
func copyBufferAllocs() int64 {
	// A record is published up to two collections after its allocation.
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	var total int64
	for _, r := range recs[:n] {
		if f, _ := runtime.CallersFrames(r.Stack()).Next(); f.Function == "io.copyBuffer" {
			total += r.AllocObjects
		}
	}
	return total
}

// TestForwardBodyNotCopied pins the default client's body path: a forward
// frame goes out through the connection's own buffer, so no forward
// allocates a copy buffer. A client on http.DefaultTransport is the
// control that shows the count would see them.
func TestForwardBodyNotCopied(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	places := benchPlaces(16)
	tweets := benchTweets(DefaultForwardBatch, 64)
	text := strings.Repeat("서울 강남구에서 ", 14) // 140 runes of mostly 3-byte UTF-8
	for _, tw := range tweets {
		tw.Text = text
	}
	if n := len(appendForward(nil, 1, tweets)); n <= 32<<10 || n > forwardCopyBuffer {
		t.Fatalf("frame of %d bytes: want it past io.Copy's 32 KB and inside %d", n, forwardCopyBuffer)
	}
	const forwards = 50
	copies := func(client *http.Client) int64 {
		eng, err := stream.New(stream.Config{
			Profiles: func(_ context.Context, id twitter.UserID) (core.Place, bool, error) {
				return places[int(id)%len(places)], true, nil
			},
			Resolver: benchResolver{places: places},
			Metrics:  obs.Discard,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewWorker("w1", eng, obs.Discard).Handler())
		defer func() { srv.Close(); eng.Close() }()
		r := New(Options{Partitions: 8, HTTP: client, Metrics: obs.NewRegistry()})
		if err := r.AddWorker(context.Background(), "w1", srv.URL); err != nil {
			t.Fatal(err)
		}
		before := copyBufferAllocs()
		for i := 0; i < forwards; i++ {
			if rep := r.IngestBatch(context.Background(), tweets); rep.Forwarded != len(tweets) {
				t.Fatalf("ingest: %+v", rep)
			}
		}
		return copyBufferAllocs() - before
	}
	control, got := copies(&http.Client{}), copies(nil)
	t.Logf("copy buffers over %d forwards: %d on http.DefaultTransport, %d on the default client", forwards, control, got)
	if control < forwards {
		t.Fatalf("control: %d copy buffers over %d forwards on http.DefaultTransport, want one each", control, forwards)
	}
	if got >= forwards/10 {
		t.Fatalf("%d copy buffers over %d forwards, want none", got, forwards)
	}
}
