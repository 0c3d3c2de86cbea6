package twitter

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Service is the in-memory Twitter platform: the social graph, the tweet
// store, and the query operations the HTTP API exposes. All methods are safe
// for concurrent use.
type Service struct {
	mu        sync.RWMutex
	users     map[UserID]*User
	tweets    []*Tweet         // append-only, ID order == index order
	byUser    map[UserID][]int // user -> indices into tweets
	followers map[UserID][]UserID
	following map[UserID][]UserID
	nextUser  UserID
	nextTweet TweetID
	streamers map[int]*subscription
	nextStrm  int
	// shed counts the tweets lagging subscribers missed, summed over all
	// of them. It is its own allocation so the API server's gauge can hold
	// it without pinning the whole tweet store in a long-lived registry.
	shed *atomic.Int64
}

// subscription is one sample-stream consumer: its channel and how many
// tweets it missed because it lagged.
type subscription struct {
	ch   chan *Tweet
	shed int64 // guarded by Service.mu
}

// Errors returned by the service.
var (
	ErrUserNotFound  = errors.New("twitter: user not found")
	ErrTweetTooLong  = errors.New("twitter: tweet text exceeds 140 characters")
	ErrLocationLong  = errors.New("twitter: profile location exceeds 30 characters")
	ErrSelfFollow    = errors.New("twitter: user cannot follow themselves")
	ErrInvalidUserID = errors.New("twitter: invalid user id")
)

// NewService returns an empty platform.
func NewService() *Service {
	return &Service{
		users:     make(map[UserID]*User),
		byUser:    make(map[UserID][]int),
		followers: make(map[UserID][]UserID),
		following: make(map[UserID][]UserID),
		nextUser:  1,
		nextTweet: 1,
		streamers: make(map[int]*subscription),
		shed:      new(atomic.Int64),
	}
}

// CreateUser registers a new account and returns it. The profile location is
// truncated at the platform limit the same way the real service truncates it.
func (s *Service) CreateUser(screenName, profileLocation, lang string, createdAt time.Time) (*User, error) {
	if len([]rune(profileLocation)) > MaxProfileLocationLen {
		runes := []rune(profileLocation)
		profileLocation = string(runes[:MaxProfileLocationLen])
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	u := &User{
		ID:              s.nextUser,
		ScreenName:      screenName,
		ProfileLocation: profileLocation,
		Lang:            lang,
		CreatedAt:       createdAt,
	}
	s.nextUser++
	s.users[u.ID] = u
	return u, nil
}

// User returns the account with the given id.
func (s *Service) User(id UserID) (*User, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	u, ok := s.users[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUserNotFound, id)
	}
	return u, nil
}

// UserCount returns the number of registered accounts.
func (s *Service) UserCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.users)
}

// TweetCount returns the number of posted tweets.
func (s *Service) TweetCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tweets)
}

// Follow records that follower follows followee.
func (s *Service) Follow(follower, followee UserID) error {
	if follower == followee {
		return ErrSelfFollow
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.users[follower]; !ok {
		return fmt.Errorf("%w: follower %d", ErrUserNotFound, follower)
	}
	if _, ok := s.users[followee]; !ok {
		return fmt.Errorf("%w: followee %d", ErrUserNotFound, followee)
	}
	for _, f := range s.followers[followee] {
		if f == follower {
			return nil // already following
		}
	}
	s.followers[followee] = append(s.followers[followee], follower)
	s.following[follower] = append(s.following[follower], followee)
	return nil
}

// Followers returns the IDs of accounts following id, in follow order.
func (s *Service) Followers(id UserID) ([]UserID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.users[id]; !ok {
		return nil, fmt.Errorf("%w: %d", ErrUserNotFound, id)
	}
	out := make([]UserID, len(s.followers[id]))
	copy(out, s.followers[id])
	return out, nil
}

// PostTweet publishes a tweet for the user, assigning the next ID. geo may
// be nil (the common case: the paper found only ~0.25% of tweets carry GPS).
func (s *Service) PostTweet(user UserID, text string, createdAt time.Time, geo *GeoTag) (*Tweet, error) {
	if len([]rune(text)) > MaxTweetLen {
		return nil, ErrTweetTooLong
	}
	s.mu.Lock()
	if _, ok := s.users[user]; !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %d", ErrUserNotFound, user)
	}
	t := &Tweet{
		ID:        s.nextTweet,
		UserID:    user,
		Text:      text,
		CreatedAt: createdAt,
		Geo:       geo,
	}
	s.nextTweet++
	s.byUser[user] = append(s.byUser[user], len(s.tweets))
	s.tweets = append(s.tweets, t)
	// Deliver under the lock, so a concurrent cancel cannot close a channel
	// mid-send. The sends never block: a
	// lagging consumer misses the tweet, the same best-effort contract as
	// the real sample stream, and the miss is counted against it.
	for _, sub := range s.streamers {
		select {
		case sub.ch <- t:
		default:
			sub.shed++
			s.shed.Add(1)
		}
	}
	s.mu.Unlock()
	return t, nil
}

// TimelinePage is one page of a user timeline.
type TimelinePage struct {
	Tweets []*Tweet
	// NextMaxID pages backwards in time; zero means no more pages.
	NextMaxID TweetID
}

// UserTimeline returns up to count tweets of the user with ID strictly less
// than maxID (or the newest if maxID is zero), newest first — Twitter v1
// max_id paging. count is clamped to 200 like the real endpoint.
func (s *Service) UserTimeline(user UserID, maxID TweetID, count int) (TimelinePage, error) {
	if count <= 0 {
		count = 20
	}
	if count > 200 {
		count = 200
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.users[user]; !ok {
		return TimelinePage{}, fmt.Errorf("%w: %d", ErrUserNotFound, user)
	}
	idxs := s.byUser[user]
	var page TimelinePage
	for i := len(idxs) - 1; i >= 0 && len(page.Tweets) < count; i-- {
		t := s.tweets[idxs[i]]
		if maxID != 0 && t.ID >= maxID {
			continue
		}
		page.Tweets = append(page.Tweets, t)
	}
	if n := len(page.Tweets); n == count && n > 0 {
		last := page.Tweets[n-1]
		// More pages exist iff an older tweet remains.
		for i := range idxs {
			if s.tweets[idxs[i]].ID < last.ID {
				page.NextMaxID = last.ID
				break
			}
		}
	}
	return page, nil
}

// SearchQuery selects tweets for the Search API.
type SearchQuery struct {
	// Text requires the tweet text to contain this term, case-insensitively.
	// Empty matches all tweets.
	Text string
	// SinceID restricts to tweets with ID strictly greater than this.
	SinceID TweetID
	// OnlyGeo restricts to tweets carrying GPS coordinates.
	OnlyGeo bool
	// Count caps the result size (clamped to 100 like the v1 endpoint).
	Count int
}

// Search returns tweets matching q, oldest first, so callers can resume with
// SinceID = last returned ID.
func (s *Service) Search(q SearchQuery) []*Tweet {
	count := q.Count
	if count <= 0 {
		count = 15
	}
	if count > 100 {
		count = 100
	}
	needle := strings.ToLower(q.Text)
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*Tweet
	// Tweets are in ID order; binary-search the resume point.
	start := sort.Search(len(s.tweets), func(i int) bool { return s.tweets[i].ID > q.SinceID })
	for _, t := range s.tweets[start:] {
		if q.OnlyGeo && t.Geo == nil {
			continue
		}
		if !containsLower(t.Text, needle) {
			continue
		}
		out = append(out, t)
		if len(out) >= count {
			break
		}
	}
	return out
}

// OpenStream subscribes to the live tweet firehose. The returned cancel
// function must be called to release the subscription. Slow consumers miss
// tweets rather than block posters.
func (s *Service) OpenStream(buffer int) (<-chan *Tweet, func()) {
	if buffer <= 0 {
		buffer = 256
	}
	sub := &subscription{ch: make(chan *Tweet, buffer)}
	s.mu.Lock()
	id := s.nextStrm
	s.nextStrm++
	s.streamers[id] = sub
	s.mu.Unlock()
	cancel := func() {
		s.mu.Lock()
		if _, ok := s.streamers[id]; ok {
			delete(s.streamers, id)
			close(sub.ch)
		}
		s.mu.Unlock()
	}
	return sub.ch, cancel
}

// StreamShed reports how many tweets the firehose dropped because a
// subscriber lagged, summed over every subscription ever opened: a tweet
// missed by two subscribers counts twice.
func (s *Service) StreamShed() int64 { return s.shed.Load() }

// StreamerCount reports how many live stream subscriptions are open —
// drivers that replay traffic use it to wait until a consumer is listening,
// since the firehose only carries tweets posted after subscription.
func (s *Service) StreamerCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.streamers)
}

// EachTweet iterates all tweets in ID order; fn returning false stops.
func (s *Service) EachTweet(fn func(*Tweet) bool) {
	s.mu.RLock()
	tweets := s.tweets
	s.mu.RUnlock()
	for _, t := range tweets {
		if !fn(t) {
			return
		}
	}
}

// EachUser iterates all users in ID order; fn returning false stops.
func (s *Service) EachUser(fn func(*User) bool) {
	s.mu.RLock()
	ids := make([]UserID, 0, len(s.users))
	for id := range s.users {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s.mu.RLock()
		u := s.users[id]
		s.mu.RUnlock()
		if u == nil {
			continue
		}
		if !fn(u) {
			return
		}
	}
}
