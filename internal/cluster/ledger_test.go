package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"stir/internal/obs"
)

// TestRouterStatsBodyGolden pins the router's /v1/stats body for a seeded,
// drained three-worker run byte for byte, with every worker up and with one
// marked down. The golden file was captured before the outcome counters
// became one stream.Ledger the router merges with Add.
func TestRouterStatsBodyGolden(t *testing.T) {
	ds := testDataset(t, 300, 23)
	r := testRouter(t, obs.NewRegistry(), nil)
	var workers []*testWorker
	for _, name := range []string{"w1", "w2", "w3"} {
		w := startWorker(t, ds, name, nil)
		defer w.stop()
		workers = append(workers, w)
		join(t, r, w)
	}
	feed(t, r, allTweets(ds), 50)
	for _, w := range workers {
		w.eng.Drain()
	}
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	got := getBody(t, srv.URL+"/v1/stats", http.StatusOK)
	r.MarkDown("w3")
	got = append(got, getBody(t, srv.URL+"/v1/stats", http.StatusOK)...)
	want, err := os.ReadFile(filepath.Join("testdata", "ledger", "router_stats.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("router /v1/stats bodies:\n got %s\nwant %s", got, want)
	}
}
