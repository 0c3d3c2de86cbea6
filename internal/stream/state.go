package stream

import (
	"stir/internal/core"
)

// Per-user incremental grouping state. The batch method (core.BuildUserGrouping)
// merges a user's tweet places into counted strings, sorts them by
// (count desc, key asc) and ranks the matched string — O(k log k) per full
// rebuild. Here the merged list is one slice kept in that order, so one tweet
// is a linear find plus a short move left, and the matched rank is an index:
// O(k) per tweet, where k is the user's distinct-district count. k is a few
// districts for a typical user and never more than the gazetteer's district
// count (227 for Korea), which bounds both the scan and the move.

// tally is one merged string: a tweet place with its multiplicity.
type tally struct {
	place core.Place
	key   string // cached place.Key(), the sort tiebreaker
	count int
}

// beforeCK is the batch sort order: descending count, ties by ascending key.
func beforeCK(ac int, ak string, bc int, bk string) bool {
	if ac != bc {
		return ac > bc
	}
	return ak < bk
}

// splitmix64 is the engine's shard-hash mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// userState is one user's live grouping: the merged strings in batch order,
// the matched string's current rank, and the derived Top-k group.
type userState struct {
	id      int64
	profile core.Place
	places  []tally // (count desc, key asc), exactly the batch Merged order
	total   int     // successfully geocoded tweets, the batch TotalTweets
	rank    int     // 1-based index of the profile in places, 0 while absent
	group   core.Group
	lastID  int64 // highest applied tweet ID, for monotonic dedup on replay
}

func newUserState(id int64, profile core.Place) *userState {
	return &userState{
		id:      id,
		profile: profile,
		places:  make([]tally, 0, 4),
		group:   core.None,
	}
}

// observe applies one geocoded tweet place: bump the place's multiplicity
// (a new place enters at the tail with count 0) and move it left past the
// entries it now sorts before — the rest of its old equal-count run and the
// larger keys of the run it joins. Those entries shift right by one, which
// may push the matched string down a rank even when p is a different place.
func (u *userState) observe(p core.Place) {
	u.total++
	i := 0
	for i < len(u.places) && u.places[i].place != p {
		i++
	}
	if i == len(u.places) {
		u.places = append(u.places, tally{place: p, key: p.Key()})
	}
	t := u.places[i]
	t.count++
	j := i
	for j > 0 && beforeCK(t.count, t.key, u.places[j-1].count, u.places[j-1].key) {
		j--
	}
	copy(u.places[j+1:i+1], u.places[j:i])
	u.places[j] = t
	switch {
	case p == u.profile:
		u.rank = j + 1
	case u.rank > j && u.rank <= i:
		u.rank++
	}
	u.group = core.GroupOfRank(u.rank)
}

// matchedTweets is the matched string's multiplicity (0 when none).
func (u *userState) matchedTweets() int {
	if u.rank > 0 {
		return u.places[u.rank-1].count
	}
	return 0
}

// term is the user's contribution to the §IV analysis, the one
// core.UserGrouping.Term gives for the same user.
func (u *userState) term() core.UserTerm {
	return core.UserTerm{Group: u.group, Tweets: u.total, Districts: len(u.places), Matched: u.matchedTweets()}
}

// matchShare is the user's reliability weight, core.UserTerm.Share.
func (u *userState) matchShare() float64 { return u.term().Share() }

// grouping materialises the batch-equivalent core.UserGrouping: the slice
// already holds the merged-and-ordered Table II list.
func (u *userState) grouping() core.UserGrouping {
	merged := make([]core.MergedString, len(u.places))
	for i, t := range u.places {
		merged[i] = core.MergedString{
			LocString: core.LocString{UserID: u.id, Profile: u.profile, Tweet: t.place},
			Count:     t.count,
		}
	}
	return core.UserGrouping{
		UserID:            u.id,
		Profile:           u.profile,
		Merged:            merged,
		MatchedRank:       u.rank,
		Group:             u.group,
		TotalTweets:       u.total,
		DistinctDistricts: len(u.places),
		MatchedTweets:     u.matchedTweets(),
	}
}
