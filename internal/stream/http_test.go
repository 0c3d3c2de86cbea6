package stream

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"stir/internal/core"
)

func TestHTTPQueryAPI(t *testing.T) {
	ds := testDataset(t, 300, 3)
	res, err := ds.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	eng := testEngine(t, ds, nil)
	defer eng.Close()
	for _, tw := range allTweets(ds) {
		eng.Ingest(tw)
	}
	eng.Drain()
	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf [1 << 16]byte
		n, _ := resp.Body.Read(buf[:])
		return resp, buf[:n]
	}

	// /v1/groups mirrors the batch analysis.
	resp, body := get("/v1/groups")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("groups status %d: %s", resp.StatusCode, body)
	}
	var groups core.GroupsResult
	if err := json.Unmarshal(body, &groups); err != nil {
		t.Fatalf("groups decode: %v in %s", err, body)
	}
	if groups.Users != res.Analysis.Users || groups.Tweets != res.Analysis.Tweets {
		t.Fatalf("groups = %d users / %d tweets, batch %d / %d",
			groups.Users, groups.Tweets, res.Analysis.Users, res.Analysis.Tweets)
	}
	if len(groups.Groups) != len(res.Analysis.Groups) {
		t.Fatalf("%d groups in response", len(groups.Groups))
	}

	// /v1/users/{id} answers group, rank and weight for a grouped user.
	first := res.Groupings[0]
	resp, body = get("/v1/users/" + jsonNumber(first.UserID))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("user status %d: %s", resp.StatusCode, body)
	}
	var uv UserView
	if err := json.Unmarshal(body, &uv); err != nil {
		t.Fatal(err)
	}
	if uv.Group != first.Group.String() || uv.Rank != first.MatchedRank ||
		uv.TotalTweets != first.TotalTweets || uv.Weight != first.MatchShare() {
		t.Fatalf("user view %+v, batch grouping %+v", uv, first)
	}

	if resp, _ := get("/v1/users/999999999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown user status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get("/v1/users/nonsense"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id status = %d, want 400", resp.StatusCode)
	}

	// /v1/stats exposes the funnel counters.
	resp, body = get("/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if int(st.Processed) != res.Funnel.FinalGeoTweets {
		t.Fatalf("stats processed %d, batch %d", st.Processed, res.Funnel.FinalGeoTweets)
	}

	// Writes are rejected.
	post, err := http.Post(srv.URL+"/v1/groups", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d, want 405", post.StatusCode)
	}
}

func jsonNumber(id int64) string {
	b, _ := json.Marshal(id)
	return string(b)
}
