package twitter

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"stir/internal/obs"
	"stir/internal/obs/trace"
	"stir/internal/overload"
	"stir/internal/resilience"
)

// Client is the SDK the crawler and examples use against an APIServer. Every
// call runs under one resilience.Policy: 429s and sheds back off to the
// wait the server advertised, and transient network errors and 5xx
// responses are retried with jittered exponential backoff — the discipline
// the paper's weeks-long collection needed to survive both the API's limits
// and its outages.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// Retry is the policy every call runs under. NewClient sets 6 attempts
	// with a 10ms base and a 2s cap (the simulated server uses short
	// windows; real deployments would raise it). Tune its fields before the
	// first call. A nil Retry.Metrics takes the client's Metrics.
	Retry *resilience.Policy
	// Metrics receives the client's request/throttle series (nil means
	// obs.Default; obs.Discard disables).
	Metrics *obs.Registry

	polOnce sync.Once
}

// NewClient returns a client for the API at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL: baseURL,
		HTTP:    &http.Client{Timeout: 30 * time.Second},
		Retry: &resilience.Policy{
			Name:        "twitter_client",
			MaxAttempts: 6,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    2 * time.Second,
		},
	}
}

// APIError is a non-2xx response from the server.
type APIError struct {
	Status int
	Msg    string
	Code   int
	// Wait is the server-advertised backoff (resilience.ResponseError).
	Wait time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("twitter api: status %d code %d: %s", e.Status, e.Code, e.Msg)
}

// HTTPStatus implements resilience.HTTPStatuser, classifying 5xx/429 as
// transient and other statuses as permanent.
func (e *APIError) HTTPStatus() int { return e.Status }

// RetryAfter implements resilience.RetryAfterer so the retry policy honours
// the rate-limit window the server advertised.
func (e *APIError) RetryAfter() time.Duration { return e.Wait }

// IsNotFound reports whether err is a 404 API error.
func IsNotFound(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusNotFound
}

// policy returns Retry, binding its series to the client's Metrics on
// first use (Metrics may be set after NewClient).
func (c *Client) policy() *resilience.Policy {
	c.polOnce.Do(func() {
		if c.Retry.Metrics == nil {
			c.Retry.Metrics = c.Metrics
		}
	})
	return c.Retry
}

// getJSON performs a GET under the retry policy — 429s and sheds honour the
// advertised wait, transient network errors and 5xx responses back off
// exponentially — and decodes the response into out.
func (c *Client) getJSON(ctx context.Context, path string, params url.Values, out any) error {
	reg := obs.Or(c.Metrics)
	// One client span covers the whole logical request; the retry policy
	// annotates it with per-attempt outcomes rather than opening a span per
	// attempt.
	ctx, sp := trace.Start(ctx, "twitter.get "+path)
	defer sp.End()
	err := c.policy().Do(ctx, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path+"?"+params.Encode(), nil)
		if err != nil {
			return resilience.MarkPermanent(err)
		}
		// Propagate the caller's remaining budget so the server can reject
		// work this attempt has already given up on, and the trace identity
		// so the hop joins the caller's tree.
		overload.SetDeadlineHeader(req)
		trace.Inject(req)
		resp, err := c.HTTP.Do(req)
		if err != nil {
			return fmt.Errorf("twitter client: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			var ae apiError
			_ = json.NewDecoder(resp.Body).Decode(&ae)
			resp.Body.Close()
			// A 429, or a Retry-After on a 5xx (an overload shed), is the
			// server asking for backoff: the wait rides on the error.
			se := resilience.ResponseError(resp)
			if resilience.IsThrottle(se) {
				reg.Counter("twitter_client_throttled_total", "endpoint", path).Inc()
			}
			return &APIError{Status: se.Status, Msg: ae.Error, Code: ae.Code, Wait: se.Wait}
		}
		err = json.NewDecoder(resp.Body).Decode(out)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("twitter client: decode: %w", err)
		}
		return nil
	})
	if err != nil && sp != nil {
		sp.Annotate("error", err.Error())
	}
	return err
}

// UserShow fetches one account.
func (c *Client) UserShow(ctx context.Context, id UserID) (*User, error) {
	params := url.Values{"user_id": {strconv.FormatInt(int64(id), 10)}}
	var u User
	if err := c.getJSON(ctx, "/1/users/show.json", params, &u); err != nil {
		return nil, err
	}
	return &u, nil
}

// UsersLookup fetches up to 100 users per call in ID batches, far cheaper
// against the rate limit than per-user UserShow calls. Unknown IDs are
// omitted from the result.
func (c *Client) UsersLookup(ctx context.Context, ids []UserID) ([]*User, error) {
	var out []*User
	for start := 0; start < len(ids); start += 100 {
		end := start + 100
		if end > len(ids) {
			end = len(ids)
		}
		var sb strings.Builder
		for i, id := range ids[start:end] {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.FormatInt(int64(id), 10))
		}
		params := url.Values{"user_id": {sb.String()}}
		var page []*User
		if err := c.getJSON(ctx, "/1/users/lookup.json", params, &page); err != nil {
			return nil, err
		}
		out = append(out, page...)
	}
	return out, nil
}

// FollowerIDs fetches every follower of id, walking all cursor pages.
func (c *Client) FollowerIDs(ctx context.Context, id UserID) ([]UserID, error) {
	var out []UserID
	cursor := int64(0)
	for {
		params := url.Values{
			"user_id": {strconv.FormatInt(int64(id), 10)},
			"cursor":  {strconv.FormatInt(cursor, 10)},
		}
		var page followerIDsResponse
		if err := c.getJSON(ctx, "/1/followers/ids.json", params, &page); err != nil {
			return nil, err
		}
		out = append(out, page.IDs...)
		if page.NextCursor == 0 {
			return out, nil
		}
		cursor = page.NextCursor
	}
}

// UserTimeline fetches up to limit tweets of a user, newest first, walking
// max_id pages. limit <= 0 fetches the whole timeline.
func (c *Client) UserTimeline(ctx context.Context, id UserID, limit int) ([]*Tweet, error) {
	var out []*Tweet
	maxID := TweetID(0)
	for {
		params := url.Values{
			"user_id": {strconv.FormatInt(int64(id), 10)},
			"count":   {"200"},
		}
		if maxID != 0 {
			params.Set("max_id", strconv.FormatInt(int64(maxID), 10))
		}
		var page timelineResponse
		if err := c.getJSON(ctx, "/1/statuses/user_timeline.json", params, &page); err != nil {
			return nil, err
		}
		out = append(out, page.Tweets...)
		if limit > 0 && len(out) >= limit {
			return out[:limit], nil
		}
		if page.NextMaxID == 0 {
			return out, nil
		}
		maxID = page.NextMaxID
	}
}

// Search fetches tweets matching q, paging with since_id until the server
// returns fewer than a full page or limit is reached. limit <= 0 means all.
func (c *Client) Search(ctx context.Context, text string, onlyGeo bool, limit int) ([]*Tweet, error) {
	var out []*Tweet
	sinceID := TweetID(0)
	for {
		params := url.Values{
			"q":        {text},
			"count":    {"100"},
			"since_id": {strconv.FormatInt(int64(sinceID), 10)},
		}
		if onlyGeo {
			params.Set("geo_only", "1")
		}
		var page searchResponse
		if err := c.getJSON(ctx, "/1/search.json", params, &page); err != nil {
			return nil, err
		}
		out = append(out, page.Tweets...)
		if limit > 0 && len(out) >= limit {
			return out[:limit], nil
		}
		if len(page.Tweets) < 100 {
			return out, nil
		}
		sinceID = page.Tweets[len(page.Tweets)-1].ID
	}
}

// Stream opens the sample stream and delivers tweets to fn until ctx is
// cancelled, the server closes the stream, or fn returns false.
func (c *Client) Stream(ctx context.Context, track string, fn func(*Tweet) bool) error {
	params := url.Values{}
	if track != "" {
		params.Set("track", track)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/1/statuses/sample.json?"+params.Encode(), nil)
	if err != nil {
		return err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return fmt.Errorf("twitter client: stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &APIError{Status: resp.StatusCode, Msg: "stream refused"}
	}
	return readStream(ctx, resp.Body, obs.Or(c.Metrics), fn)
}

// readStream delivers the tweets of a sample-stream body to fn. Live streams
// carry the occasional garbage line — a truncated record from a dropped
// connection, a keep-alive, a control message the model doesn't know. One
// bad line must not kill the connection: skip it, count it
// (stream_decode_errors_total), keep reading. bufio.Scanner can't do this
// (ErrTooLong is fatal), so read lines by hand with the same 1 MiB cap,
// discarding the remainder of over-long lines.
//
// A line in the shape the server writes decodes on parseTweetLine's path;
// any other line is counted in stream_decode_fallback_total{reason} and
// decoded by json.Unmarshal. A line that fits the read buffer is decoded
// where it lies; only a longer one is gathered in line, which is reused.
func readStream(ctx context.Context, body io.Reader, reg *obs.Registry, fn func(*Tweet) bool) error {
	br := bufio.NewReaderSize(body, 64*1024)
	var line []byte
	tooLong := false
	for {
		chunk, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			line = append(line, chunk...)
			if len(line) > maxStreamLine {
				tooLong = true
				line = line[:0]
			}
			continue
		}
		full := chunk
		if len(line) > 0 {
			full = append(line, chunk...)
			line = full[:0]
		}
		if err != nil && len(full) == 0 {
			if err == io.EOF || ctx.Err() != nil {
				return nil
			}
			return err
		}
		if tooLong || len(full) > maxStreamLine {
			tooLong = false
			reg.Counter("stream_decode_errors_total", "reason", "too_long").Inc()
			if err != nil {
				return nil
			}
			continue
		}
		if full = bytes.TrimSpace(full); len(full) > 0 {
			t, reason := parseTweetLine(full)
			if t == nil {
				reg.Counter("stream_decode_fallback_total", "reason", reason).Inc()
				t = new(Tweet)
				if jerr := json.Unmarshal(full, t); jerr != nil {
					reg.Counter("stream_decode_errors_total", "reason", "bad_json").Inc()
					t = nil
				}
			}
			if t != nil && !fn(t) {
				return nil
			}
		}
		if err != nil {
			if err == io.EOF || ctx.Err() != nil {
				return nil
			}
			return err
		}
	}
}

// maxStreamLine is the largest stream record Stream will decode; longer
// lines are dropped and counted, matching the old scanner's 1 MiB cap.
const maxStreamLine = 1024 * 1024
