package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"stir/internal/obs"
	"stir/internal/twitter"
)

// fenceDo sends one request with an explicit epoch header and returns the
// status code.
func fenceDo(t testing.TB, method, url string, epoch string, body []byte) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != "" {
		req.Header.Set(EpochHeader, epoch)
	}
	if body != nil {
		req.Header.Set("Content-Type", frameContentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestWorkerEpochFence drives the watermark directly: newer epochs advance
// it, stale ones bounce with 412 (counted, per route), hello teaches but
// never fences, and headerless requests pass for compatibility.
func TestWorkerEpochFence(t *testing.T) {
	ds := testDataset(t, 40, 53)
	reg := obs.NewRegistry()
	w := startWorkerReg(t, ds, "wf", reg)
	defer w.stop()
	base := w.srv.URL

	empty := appendForward(nil, 0, nil)
	if got := fenceDo(t, http.MethodPost, base+"/cluster/v1/ingest", "5", empty); got != http.StatusOK {
		t.Fatalf("epoch 5 on a fresh worker: status %d", got)
	}
	// Stale epoch on a state-bearing route: fenced.
	if got := fenceDo(t, http.MethodGet, base+"/cluster/v1/groupings", "4", nil); got != http.StatusPreconditionFailed {
		t.Fatalf("stale epoch should 412, got %d", got)
	}
	if v := reg.Counter("stir_cluster_fenced_total", "worker", "wf", "route", "groupings").Value(); v != 1 {
		t.Fatalf("fence not counted: %d", v)
	}
	// The /v1 query surface is fenced too — a stale router must not serve
	// stale scatter shards.
	if got := fenceDo(t, http.MethodGet, base+"/v1/stats", "4", nil); got != http.StatusPreconditionFailed {
		t.Fatalf("stale epoch on /v1 should 412, got %d", got)
	}
	if v := reg.Counter("stir_cluster_fenced_total", "worker", "wf", "route", "query").Value(); v != 1 {
		t.Fatalf("query fence not counted: %d", v)
	}
	// Hello answers a stale caller (it is the heal path) without regressing
	// the watermark, and reports the watermark back.
	var h helloResponse
	req, _ := http.NewRequest(http.MethodGet, base+"/cluster/v1/hello", nil)
	req.Header.Set(EpochHeader, "3")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hello with stale epoch: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Epoch != 5 {
		t.Fatalf("hello reports epoch %d, want the watermark 5", h.Epoch)
	}
	// Hello advances on newer epochs (the router teaches over the probe).
	if got := fenceDo(t, http.MethodGet, base+"/cluster/v1/hello", "9", nil); got != http.StatusOK {
		t.Fatalf("hello with newer epoch: status %d", got)
	}
	// Epoch 5 writes are now stale.
	if got := fenceDo(t, http.MethodPost, base+"/cluster/v1/ingest", "5", empty); got != http.StatusPreconditionFailed {
		t.Fatalf("pre-advance epoch should now 412, got %d", got)
	}
	// Compatibility: no header passes; garbage is a caller bug, 400.
	if got := fenceDo(t, http.MethodGet, base+"/cluster/v1/groupings", "", nil); got != http.StatusOK {
		t.Fatalf("headerless request should pass, got %d", got)
	}
	if got := fenceDo(t, http.MethodGet, base+"/cluster/v1/groupings", "not-a-number", nil); got != http.StatusBadRequest {
		t.Fatalf("malformed epoch should 400, got %d", got)
	}
}

// TestStaleRouterFenced runs the zombie-router scenario end to end: router A
// hands the fleet over to router B (B adopts A's generation from the hello
// and bumps past it), then A — still holding the old epoch — tries to push a
// write. The worker fences it with 412, A's retry budget is not burned
// (permanent error), and the fabricated tweet never reaches the dataset:
// B's answer stays byte-identical to batch.
func TestStaleRouterFenced(t *testing.T) {
	ds := testDataset(t, 200, 59)
	res, err := ds.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tweets := allTweets(ds)
	wreg := obs.NewRegistry()
	w1 := startWorkerReg(t, ds, "w1", wreg)
	defer w1.stop()

	regA := obs.NewRegistry()
	routerA := testRouter(t, regA, func(o *Options) { o.ForwardAttempts = 3 })
	join(t, routerA, w1)
	feed(t, routerA, tweets[:len(tweets)/2], 64)
	if routerA.Epoch() != 1 {
		t.Fatalf("router A epoch %d, want 1", routerA.Epoch())
	}

	// Router B is the replacement (a router restart): it starts at epoch 0,
	// adopts the fleet's generation from the hello handshake, and bumps past
	// it on join — its own forwards pass the fence immediately.
	routerB := testRouter(t, obs.NewRegistry(), nil)
	join(t, routerB, w1)
	if routerB.Epoch() != 2 {
		t.Fatalf("router B should adopt 1 and bump to 2, got %d", routerB.Epoch())
	}
	feed(t, routerB, tweets[len(tweets)/2:], 64)

	// A's zombie scatter reads are fenced as stale (checked before the
	// fenced write below marks the worker down on A's side).
	if _, errs := routerA.Groupings(context.Background()); len(errs) != 1 ||
		!strings.Contains(errs[0].Error, "Precondition Failed") {
		t.Fatalf("zombie scatter should be fenced: %+v", errs)
	}
	if res, _ := routerA.Groups(context.Background()); len(res.Errors) != 1 ||
		!strings.Contains(res.Errors[0].Error, "Precondition Failed") {
		t.Fatalf("zombie /v1/groups should be fenced: %+v", res)
	}

	// Zombie A wakes up with a write that exists nowhere in the dataset.
	fake := *tweets[0]
	fake.ID = 1 << 60
	rep := routerA.IngestBatch(context.Background(), []*twitter.Tweet{&fake})
	if rep.Forwarded != 0 || rep.Deferred != 1 {
		t.Fatalf("zombie write must be refused and deferred, got %+v", rep)
	}
	if len(rep.Errors) != 1 || !strings.Contains(rep.Errors[0].Error, "Precondition Failed") {
		t.Fatalf("zombie should die on the 412, got %+v", rep.Errors)
	}
	if v := wreg.Counter("stir_cluster_fenced_total", "worker", "w1", "route", "ingest").Value(); v != 1 {
		t.Fatalf("fence count %d — a permanent 412 must not be retried", v)
	}

	// The fabricated tweet was fenced, not applied: B's merged answer is
	// still exactly the batch pipeline's.
	assertClusterMatchesBatch(t, routerB, res)
}

// TestWorkerPartSetErrors pins the export/drop parameter parser's failure
// modes: non-numeric, out-of-range, negative, and empty part lists all
// answer 400 without touching the engine.
func TestWorkerPartSetErrors(t *testing.T) {
	ds := testDataset(t, 40, 61)
	w := startWorker(t, ds, "wp", nil)
	defer w.stop()

	cases := []struct {
		name  string
		query string
	}{
		{"missing partitions", "/cluster/v1/export?parts=1"},
		{"non-numeric partitions", "/cluster/v1/export?partitions=many&parts=1"},
		{"zero partitions", "/cluster/v1/export?partitions=0&parts=0"},
		{"negative partitions", "/cluster/v1/export?partitions=-4&parts=1"},
		{"non-numeric part", "/cluster/v1/export?partitions=8&parts=one"},
		{"part out of range", "/cluster/v1/export?partitions=8&parts=8"},
		{"negative part", "/cluster/v1/export?partitions=8&parts=-1"},
		{"empty part list", "/cluster/v1/export?partitions=8&parts="},
		{"only separators", "/cluster/v1/export?partitions=8&parts=,,"},
		{"drop shares the parser", "/cluster/v1/drop?partitions=8&parts=nope"},
	}
	for _, tc := range cases {
		method := http.MethodGet
		if strings.Contains(tc.query, "drop") {
			method = http.MethodPost
		}
		if got := fenceDo(t, method, w.srv.URL+tc.query, "", nil); got != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, got)
		}
	}

	// The happy path still round-trips, so the parser is strict, not broken:
	// every partition of an 8-way split exports the whole population.
	for _, tw := range allTweets(ds) {
		w.eng.Ingest(tw)
	}
	w.eng.Drain()
	var total int
	for p := 0; p < 8; p++ {
		var h struct {
			Users []json.RawMessage `json:"users"`
		}
		getJSON(t, w.srv.URL+"/cluster/v1/export?partitions=8&parts="+FormatSeq(int64(p)), http.StatusOK, &h)
		total += len(h.Users)
	}
	if total == 0 || total != w.eng.Stats().Users {
		t.Fatalf("8-way export covered %d users, engine has %d", total, w.eng.Stats().Users)
	}
}
