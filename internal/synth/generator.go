package synth

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"stir/internal/admin"
	"stir/internal/geo"
	"stir/internal/twitter"
)

// Generator produces a population into a twitter.Service.
type Generator struct {
	cfg Config
	rng *rand.Rand
	// near memoises the districts nearest each home, which depend only on
	// the home and draw nothing from rng.
	near map[*admin.District][]*admin.District
}

// New validates cfg and returns a Generator.
func New(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Generator{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		near: make(map[*admin.District][]*admin.District),
	}, nil
}

// UserTruth is the generator's ground truth for one user, kept so tests and
// experiments can validate what the pipeline recovers.
type UserTruth struct {
	ID      twitter.UserID
	Home    *admin.District
	Class   MobilityClass
	Profile ProfileKind
	// Haunts are the districts the user actually geo-tweets from with their
	// sampling weights (Haunts[0] need not be Home).
	Haunts  []Haunt
	GeoUser bool
}

// Haunt is one frequented district and its visit weight.
type Haunt struct {
	District *admin.District
	Weight   float64
}

// ProfileKind tags which quality bucket the generated profile text fell in.
type ProfileKind int

// Profile kinds, mirroring ProfileMix fields.
const (
	PEmpty ProfileKind = iota
	PWellDefined
	PExactGPS
	PVague
	PInsufficient
	PMeaningless
	PAmbiguous
)

// String implements fmt.Stringer.
func (p ProfileKind) String() string {
	switch p {
	case PEmpty:
		return "empty"
	case PWellDefined:
		return "well-defined"
	case PExactGPS:
		return "exact-gps"
	case PVague:
		return "vague"
	case PInsufficient:
		return "insufficient"
	case PMeaningless:
		return "meaningless"
	case PAmbiguous:
		return "ambiguous"
	default:
		return "unknown"
	}
}

// Population is the full generation result.
type Population struct {
	Truth map[twitter.UserID]*UserTruth
	// SeedUser is a well-connected account suitable as the crawl seed (only
	// set when Config.FollowerGraph was true).
	SeedUser twitter.UserID
	// Tweets and GeoTweets count what was posted.
	Tweets    int
	GeoTweets int
}

// Populate generates users and tweets into svc.
func (g *Generator) Populate(svc *twitter.Service) (*Population, error) {
	pop := &Population{Truth: make(map[twitter.UserID]*UserTruth, g.cfg.Users)}
	districts, weights := g.cfg.Gazetteer.RandomWeights()
	cum := cumulative(weights)

	for i := 0; i < g.cfg.Users; i++ {
		truth, err := g.makeUser(svc, districts, cum)
		if err != nil {
			return nil, err
		}
		pop.Truth[truth.ID] = truth
		tw, geoTw, err := g.makeTweets(svc, truth)
		if err != nil {
			return nil, err
		}
		pop.Tweets += tw
		pop.GeoTweets += geoTw
	}
	if g.cfg.FollowerGraph {
		seed, err := g.wireFollowers(svc, pop)
		if err != nil {
			return nil, err
		}
		pop.SeedUser = seed
	}
	return pop, nil
}

// makeUser creates one account with home district, class and profile text.
func (g *Generator) makeUser(svc *twitter.Service, districts []*admin.District, cum []float64) (*UserTruth, error) {
	home := districts[sampleCum(g.rng, cum)]
	class := g.sampleClass()
	kind := g.sampleProfileKind()
	profile := g.renderProfile(kind, home)
	created := g.randTime(g.cfg.Start.AddDate(-3, 0, 0), g.cfg.Start)
	u, err := svc.CreateUser(screenName(g.rng), profile, langFor(home), created)
	if err != nil {
		return nil, fmt.Errorf("synth: create user: %w", err)
	}
	pGeo := g.cfg.CasualGeoUserFraction
	if kind == PWellDefined || kind == PExactGPS {
		pGeo = g.cfg.EngagedGeoUserFraction
	}
	truth := &UserTruth{
		ID:      u.ID,
		Home:    home,
		Class:   class,
		Profile: kind,
		GeoUser: g.rng.Float64() < pGeo,
	}
	truth.Haunts = g.makeHaunts(home, class, districts, cum)
	return truth, nil
}

// makeHaunts builds the user's visit distribution according to class. Nearby
// districts are preferred as secondary haunts, matching real commutes.
func (g *Generator) makeHaunts(home *admin.District, class MobilityClass, districts []*admin.District, cum []float64) []Haunt {
	near, ok := g.near[home]
	if !ok {
		near = g.cfg.Gazetteer.NearestDistricts(home.Center, 12)
		g.near[home] = near
	}
	pickNear := func() *admin.District {
		return near[g.rng.Intn(len(near))]
	}
	pickAny := func() *admin.District {
		return districts[sampleCum(g.rng, cum)]
	}
	var haunts []Haunt
	add := func(d *admin.District, w float64) {
		for i := range haunts {
			if haunts[i].District == d {
				haunts[i].Weight += w
				return
			}
		}
		haunts = append(haunts, Haunt{District: d, Weight: w})
	}
	switch class {
	case Resident:
		// Home dominates; 2-6 minor haunts. Expected distinct districts ~3-4.
		add(home, 0.55+g.rng.Float64()*0.3)
		for n := 2 + g.rng.Intn(5); n > 0; n-- {
			add(pickNear(), 0.03+g.rng.Float64()*0.12)
		}
	case SecondPlace:
		// One anchor beats home, and the commute brings more incidental
		// districts than a resident sees (Fig. 6: avg districts rise with k).
		anchor := pickNear()
		for anchor == home {
			anchor = pickNear()
		}
		add(anchor, 0.35+g.rng.Float64()*0.15)
		add(home, 0.18+g.rng.Float64()*0.12)
		for n := 3 + g.rng.Intn(4); n > 0; n-- {
			add(pickNear(), 0.05+g.rng.Float64()*0.08)
		}
	case Wanderer:
		// Many haunts, home buried in the tail.
		for n := 7 + g.rng.Intn(5); n > 0; n-- {
			add(pickAny(), 0.08+g.rng.Float64()*0.15)
		}
		add(home, 0.03+g.rng.Float64()*0.05)
	case NeverHome:
		// Few districts, none of them home. The paper offers two stories:
		// commuters who sleep at home but tweet elsewhere nearby, and people
		// who kept a hometown profile after moving away entirely — the
		// latter make the profile location actively misleading.
		movedAway := g.rng.Float64() < 0.6
		pick := pickNear
		if movedAway {
			pick = pickAny
		}
		for n := 1 + g.rng.Intn(3); n > 0; n-- {
			d := pick()
			for d == home {
				d = pick()
			}
			add(d, 0.2+g.rng.Float64()*0.5)
		}
	}
	normalizeHaunts(haunts)
	return haunts
}

// makeTweets posts the user's tweets into the service.
func (g *Generator) makeTweets(svc *twitter.Service, truth *UserTruth) (tweets, geoTweets int, err error) {
	n := sampleGeometric(g.rng, g.cfg.TweetsPerUserMean)
	if n == 0 {
		return 0, 0, nil
	}
	// Pre-sort timestamps so tweet IDs are chronological per user.
	times := make([]time.Time, n)
	for i := range times {
		times[i] = g.randTime(g.cfg.Start, g.cfg.End)
	}
	sort.Slice(times, func(i, j int) bool { return times[i].Before(times[j]) })
	cumHaunt := hauntCumulative(truth.Haunts)
	for i := 0; i < n; i++ {
		var tag *twitter.GeoTag
		var at *admin.District
		if truth.GeoUser && len(truth.Haunts) > 0 && g.rng.Float64() < g.cfg.GeoTweetFraction {
			at = truth.Haunts[sampleCum(g.rng, cumHaunt)].District
			p := g.pointIn(at)
			tag = &twitter.GeoTag{Lat: p.Lat, Lon: p.Lon}
		}
		text := g.tweetText(at)
		if _, err := svc.PostTweet(truth.ID, text, times[i], tag); err != nil {
			return tweets, geoTweets, fmt.Errorf("synth: post tweet: %w", err)
		}
		tweets++
		if tag != nil {
			geoTweets++
		}
	}
	return tweets, geoTweets, nil
}

// pointIn samples a point inside the district: gaussian around the centre,
// clipped to the radius.
func (g *Generator) pointIn(d *admin.District) geo.Point {
	for tries := 0; tries < 8; tries++ {
		dist := math.Abs(g.rng.NormFloat64()) * d.RadiusKm / 2.2
		if dist > d.RadiusKm*0.95 {
			continue
		}
		return d.Center.Destination(g.rng.Float64()*360, dist)
	}
	return d.Center
}

// wireFollowers creates a follower topology: a hub-and-spoke community per
// state plus a global seed account everyone can be reached from, so a BFS
// crawl from the seed discovers the whole population (mirroring the paper's
// seed-user crawl).
func (g *Generator) wireFollowers(svc *twitter.Service, pop *Population) (twitter.UserID, error) {
	ids := make([]twitter.UserID, 0, len(pop.Truth))
	for id := range pop.Truth {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	seed := ids[0]
	// Chain each user to a random earlier user so the graph is connected
	// from the seed (follower edges point "outward": crawler asks for
	// followers of X and finds users who follow X).
	for i := 1; i < len(ids); i++ {
		target := ids[g.rng.Intn(i)]
		if err := svc.Follow(ids[i], target); err != nil {
			return 0, err
		}
		// A few extra edges for realism.
		for e := g.rng.Intn(3); e > 0; e-- {
			t2 := ids[g.rng.Intn(len(ids))]
			if t2 != ids[i] {
				_ = svc.Follow(ids[i], t2)
			}
		}
	}
	return seed, nil
}

// --- sampling helpers ---

func (g *Generator) sampleClass() MobilityClass {
	r := g.rng.Float64()
	m := g.cfg.Mix
	switch {
	case r < m.Resident:
		return Resident
	case r < m.Resident+m.SecondPlace:
		return SecondPlace
	case r < m.Resident+m.SecondPlace+m.Wanderer:
		return Wanderer
	default:
		return NeverHome
	}
}

func (g *Generator) sampleProfileKind() ProfileKind {
	r := g.rng.Float64()
	p := g.cfg.Profiles
	bounds := []struct {
		w float64
		k ProfileKind
	}{
		{p.Empty, PEmpty},
		{p.WellDefined, PWellDefined},
		{p.ExactGPS, PExactGPS},
		{p.Vague, PVague},
		{p.Insufficient, PInsufficient},
		{p.Meaningless, PMeaningless},
		{p.Ambiguous, PAmbiguous},
	}
	acc := 0.0
	for _, b := range bounds {
		acc += b.w
		if r < acc {
			return b.k
		}
	}
	return PEmpty
}

func (g *Generator) randTime(from, to time.Time) time.Time {
	d := to.Sub(from)
	return from.Add(time.Duration(g.rng.Int63n(int64(d))))
}

// sampleGeometric draws from a geometric distribution with the given mean
// (heavy-ish tail: many quiet users, a few prolific ones).
func sampleGeometric(r *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	p := 1 / (mean + 1)
	u := r.Float64()
	return int(math.Log(1-u) / math.Log(1-p))
}

func cumulative(ws []float64) []float64 {
	out := make([]float64, len(ws))
	sum := 0.0
	for i, w := range ws {
		sum += w
		out[i] = sum
	}
	return out
}

func sampleCum(r *rand.Rand, cum []float64) int {
	if len(cum) == 0 {
		return 0
	}
	total := cum[len(cum)-1]
	x := r.Float64() * total
	i := sort.SearchFloat64s(cum, x)
	if i >= len(cum) {
		i = len(cum) - 1
	}
	return i
}

func hauntCumulative(hs []Haunt) []float64 {
	ws := make([]float64, len(hs))
	for i, h := range hs {
		ws[i] = h.Weight
	}
	return cumulative(ws)
}

func normalizeHaunts(hs []Haunt) {
	var sum float64
	for _, h := range hs {
		sum += h.Weight
	}
	if sum == 0 {
		return
	}
	for i := range hs {
		hs[i].Weight /= sum
	}
}

func langFor(d *admin.District) string {
	if d.Country == "KR" {
		return "ko"
	}
	return "en"
}

var screenSyllables = []string{"min", "ji", "soo", "hye", "jun", "seo", "young", "kyu", "hana", "bora", "dae", "woo"}

func screenName(r *rand.Rand) string {
	a := screenSyllables[r.Intn(len(screenSyllables))]
	b := screenSyllables[r.Intn(len(screenSyllables))]
	return fmt.Sprintf("%s%s_%03d", a, b, r.Intn(1000))
}
