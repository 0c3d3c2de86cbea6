package geocode

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"stir/internal/geo"
	"stir/internal/obs"
	"stir/internal/obs/trace"
	"stir/internal/overload"
	"stir/internal/resilience"
)

// Client calls a geocode Server with quantisation, caching, and one
// resilience.Policy that rides out rate limits (429 with Retry-After),
// transient network errors and 5xx responses — the full failure surface a
// metered third-party geocoder exposes. DirectResolver is its in-process
// counterpart, so offline pipelines can skip HTTP entirely.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// QuantizeDecimals rounds coordinates before lookup/caching; 3 decimals
	// (~110 m) is plenty for county-level grouping. Negative disables.
	QuantizeDecimals int
	// Retry is the policy every request runs under. NewClient sets 7
	// attempts with a 10ms base and a 2s cap. Tune its fields before the
	// first call. A nil Retry.Metrics takes the client's Metrics.
	Retry *resilience.Policy
	// Metrics receives request/throttle series (nil means obs.Default;
	// obs.Discard disables).
	Metrics *obs.Registry

	cache   *lruCache[geo.Point, Location]
	polOnce sync.Once
}

// ErrNoMatch reports a point no district is near.
var ErrNoMatch = errors.New("geocode: no district near point")

// NewClient returns a caching client for the server at baseURL.
func NewClient(baseURL string, cacheSize int) *Client {
	return &Client{
		BaseURL:          baseURL,
		HTTP:             &http.Client{Timeout: 15 * time.Second},
		QuantizeDecimals: 3,
		Retry: &resilience.Policy{
			Name:        "geocode_client",
			MaxAttempts: 7,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    2 * time.Second,
		},
		cache: newLRUCache[geo.Point, Location](cacheSize),
	}
}

// quantize rounds the point for cache keying.
func (c *Client) quantize(p geo.Point) geo.Point { return quantizePoint(p, c.QuantizeDecimals) }

// quantizePoint rounds p half away from zero to the given number of
// decimals; a negative count leaves it as it is.
func quantizePoint(p geo.Point, decimals int) geo.Point {
	if decimals < 0 {
		return p
	}
	scale := 1.0
	for i := 0; i < decimals; i++ {
		scale *= 10
	}
	round := func(v float64) float64 {
		if v >= 0 {
			return float64(int64(v*scale+0.5)) / scale
		}
		return float64(int64(v*scale-0.5)) / scale
	}
	return geo.Point{Lat: round(p.Lat), Lon: round(p.Lon)}
}

// Reverse resolves p to a Location, consulting the cache first.
func (c *Client) Reverse(ctx context.Context, p geo.Point) (Location, error) {
	q := c.quantize(p)
	if loc, ok := c.cache.Get(q); ok {
		return loc, nil
	}
	loc, err := c.fetch(ctx, q)
	if err != nil {
		return Location{}, err
	}
	c.cache.Put(q, loc)
	return loc, nil
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

func (c *Client) fetch(ctx context.Context, p geo.Point) (Location, error) {
	reg := obs.Or(c.Metrics)
	params := url.Values{
		"lat": {strconv.FormatFloat(p.Lat, 'f', 6, 64)},
		"lon": {strconv.FormatFloat(p.Lon, 'f', 6, 64)},
	}
	endpoint := c.BaseURL + "/v1/reverse?" + params.Encode()
	var loc Location
	ctx, sp := trace.Start(ctx, "geocode.reverse")
	defer sp.End()
	err := c.policy().Do(ctx, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, endpoint, nil)
		if err != nil {
			return resilience.MarkPermanent(err)
		}
		overload.SetDeadlineHeader(req)
		trace.Inject(req)
		resp, err := c.HTTP.Do(req)
		if err != nil {
			return fmt.Errorf("geocode client: %w", err)
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("geocode client: read: %w", err)
		}
		if ferr := faultFrom(resp, reg); ferr != nil {
			return ferr
		}
		rs, err := UnmarshalResultSet(body)
		if err != nil {
			return fmt.Errorf("geocode client: parse: %w", err)
		}
		switch rs.Error {
		case CodeOK:
			if len(rs.Results) == 0 {
				return errors.New("geocode client: empty result set")
			}
			loc = rs.Results[0].Location
			return nil
		case CodeNoMatch:
			return fmt.Errorf("%w: %s", ErrNoMatch, p)
		default:
			return fmt.Errorf("geocode client: server error %d: %s", rs.Error, rs.Message)
		}
	})
	if err != nil {
		if sp != nil {
			sp.Annotate("error", err.Error())
		}
		return Location{}, err
	}
	return loc, nil
}

// faultFrom converts a throttle or server-failure response into a
// retryable resilience.StatusError carrying the advertised wait (nil when
// resp is fine, or a 4xx whose XML body the caller reads). 429s and
// hinted sheds count as throttles.
func faultFrom(resp *http.Response, reg *obs.Registry) error {
	if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode < http.StatusInternalServerError {
		return nil
	}
	se := resilience.ResponseError(resp)
	if resilience.IsThrottle(se) {
		reg.Counter("geocode_client_throttled_total").Inc()
	}
	return se
}

// Stats exposes cache effectiveness counters.
func (c *Client) Stats() CacheStats { return c.cache.Stats() }

// Resolver is the narrow interface the pipeline consumes: anything that maps
// a point to a Location. Client implements it over HTTP; DirectResolver
// implements it in-process.
type Resolver interface {
	Reverse(ctx context.Context, p geo.Point) (Location, error)
}

// StatsProvider is the one shape every cache-bearing geocode component
// exposes — the HTTP client and the in-process DirectResolver — so
// ablations and dashboards read a single struct regardless of which path
// resolved the points.
type StatsProvider interface {
	Stats() CacheStats
}

var (
	_ StatsProvider = (*Client)(nil)
	_ StatsProvider = (*DirectResolver)(nil)
)

// RegisterCacheMetrics publishes p's cache counters on reg as pull-mode
// gauges labelled cache=name. Registration is idempotent: re-registering the
// same name rebinds the gauges to the new provider, so rebuilding a resolver
// never duplicates series.
func RegisterCacheMetrics(reg *obs.Registry, name string, p StatsProvider) {
	if p == nil {
		return
	}
	reg = obs.Or(reg)
	reg.GaugeFunc("geocode_cache_hits", func() float64 { return float64(p.Stats().Hits) }, "cache", name)
	reg.GaugeFunc("geocode_cache_misses", func() float64 { return float64(p.Stats().Misses) }, "cache", name)
	reg.GaugeFunc("geocode_cache_evictions", func() float64 { return float64(p.Stats().Evictions) }, "cache", name)
	reg.GaugeFunc("geocode_cache_entries", func() float64 { return float64(p.Stats().Entries) }, "cache", name)
}

// BatchReverse resolves many points through the batch endpoint, splitting
// into server-sized chunks and consulting/filling the cache per point.
// Quantised-identical points are deduplicated before hitting the wire: a
// batch of N copies of one coordinate costs one line in one request. The
// returned slice is parallel to pts; unresolvable points hold a zero
// Location with ok=false in the parallel bool slice.
func (c *Client) BatchReverse(ctx context.Context, pts []geo.Point) ([]Location, []bool, error) {
	locs := make([]Location, len(pts))
	oks := make([]bool, len(pts))
	// Resolve cache hits first; collect the misses, deduplicated on the
	// quantised point. fanout maps each unique missing point to every
	// original index that needs its answer, in first-seen order.
	var missPts []geo.Point
	fanout := make(map[geo.Point][]int)
	for i, p := range pts {
		q := c.quantize(p)
		if loc, ok := c.cache.Get(q); ok {
			locs[i], oks[i] = loc, true
			continue
		}
		if _, seen := fanout[q]; !seen {
			missPts = append(missPts, q)
		}
		fanout[q] = append(fanout[q], i)
	}
	const chunk = 100
	for start := 0; start < len(missPts); start += chunk {
		end := start + chunk
		if end > len(missPts) {
			end = len(missPts)
		}
		var body strings.Builder
		for j := start; j < end; j++ {
			if j > start {
				body.WriteByte('\n')
			}
			fmt.Fprintf(&body, "%.6f,%.6f", missPts[j].Lat, missPts[j].Lon)
		}
		rs, err := c.postBatch(ctx, body.String())
		if err != nil {
			return nil, nil, err
		}
		if len(rs.Results) != end-start {
			return nil, nil, fmt.Errorf("geocode client: batch returned %d results for %d points", len(rs.Results), end-start)
		}
		for j := start; j < end; j++ {
			r := rs.Results[j-start]
			if r.Quality == "none" || r.Location == (Location{}) {
				continue
			}
			for _, i := range fanout[missPts[j]] {
				locs[i], oks[i] = r.Location, true
			}
			c.cache.Put(missPts[j], r.Location)
		}
	}
	return locs, oks, nil
}

func (c *Client) postBatch(ctx context.Context, body string) (*ResultSet, error) {
	reg := obs.Or(c.Metrics)
	var out *ResultSet
	ctx, sp := trace.Start(ctx, "geocode.reverse_batch")
	defer sp.End()
	err := c.policy().Do(ctx, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			c.BaseURL+"/v1/reverse_batch", strings.NewReader(body))
		if err != nil {
			return resilience.MarkPermanent(err)
		}
		overload.SetDeadlineHeader(req)
		trace.Inject(req)
		resp, err := c.HTTP.Do(req)
		if err != nil {
			return fmt.Errorf("geocode client: batch: %w", err)
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("geocode client: batch read: %w", err)
		}
		if ferr := faultFrom(resp, reg); ferr != nil {
			return ferr
		}
		rs, err := UnmarshalResultSet(raw)
		if err != nil {
			return fmt.Errorf("geocode client: batch parse: %w", err)
		}
		if rs.Error != CodeOK {
			return fmt.Errorf("geocode client: batch error %d: %s", rs.Error, rs.Message)
		}
		out = rs
		return nil
	})
	if err != nil {
		if sp != nil {
			sp.Annotate("error", err.Error())
		}
		return nil, err
	}
	return out, nil
}
