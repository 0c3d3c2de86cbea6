package core

import "math"

// UserTerm is one user's additive contribution to the §IV analysis: the
// quantities Analyze folds per user, and the only input a Summary needs.
type UserTerm struct {
	Group     Group
	Tweets    int // geo-tagged tweets (TotalTweets)
	Districts int // distinct tweet districts
	Matched   int // tweets from the profile district
}

// Share is the fraction of the user's geo-tweets posted from the profile
// district — the smooth reliability weight (§V). Every match share in STIR,
// batch or live, is this one division, so the two cannot disagree on a bit.
func (t UserTerm) Share() float64 {
	if t.Tweets == 0 {
		return 0
	}
	return float64(t.Matched) / float64(t.Tweets)
}

// Summary is the §IV analysis as a mergeable value. Per group it keeps
// integer sums of users, tweets, distinct districts and matched tweets, and
// the exact sum of the users' match shares. Add and Remove fold one user's
// term in or out, Merge folds in another summary, Analysis derives the
// per-group statistics.
//
// Every sum is exact and the share sum is rounded once, correctly, when
// Analysis reads it. So the answer is the same for any order of Adds, any
// split of the users across summaries before Merge, and any add/remove
// history that leaves the same users. The zero value is an empty summary.
// A Summary holds slices: copy one with Merge into an empty summary, not by
// assignment.
type Summary struct {
	groups [NumGroups]groupSum
}

type groupSum struct {
	users, tweets, districts, matched int
	shares                            exactSum
}

// Add folds one user's term in. Users with zero geo-tweets are skipped: the
// paper's refinement only keeps users with GPS coordinates in their tweets.
func (s *Summary) Add(t UserTerm) { s.fold(t, false) }

// Remove folds one user's term out; it undoes an Add of the same term
// exactly.
func (s *Summary) Remove(t UserTerm) { s.fold(t, true) }

func (s *Summary) fold(t UserTerm, remove bool) {
	if t.Tweets == 0 {
		return
	}
	sign, share := 1, t.Share()
	if remove {
		sign, share = -1, -share
	}
	g := &s.groups[t.Group]
	g.users += sign
	g.tweets += sign * t.Tweets
	g.districts += sign * t.Districts
	g.matched += sign * t.Matched
	g.shares.add(share)
}

// Merge folds every user of o into s. o is left as it was; it must not be s.
func (s *Summary) Merge(o *Summary) {
	for i := range s.groups {
		a, b := &s.groups[i], &o.groups[i]
		a.users += b.users
		a.tweets += b.tweets
		a.districts += b.districts
		a.matched += b.matched
		// The partials sum exactly to b's share sum, so adding each one
		// keeps a's sum exact.
		for _, p := range b.shares.parts {
			a.shares.add(p)
		}
	}
}

// Counts returns the per-group user and tweet tallies.
func (s *Summary) Counts() (users, tweets [NumGroups]int) {
	for i, g := range s.groups {
		users[i], tweets[i] = g.users, g.tweets
	}
	return users, tweets
}

// Analysis derives the per-group statistics from the summary.
func (s *Summary) Analysis() Analysis {
	var a Analysis
	var districts, matched int
	for _, g := range s.groups {
		a.Users += g.users
		a.Tweets += g.tweets
		districts += g.districts
		matched += g.matched
	}
	for i := range s.groups {
		g, st := &s.groups[i], &a.Groups[i]
		st.Group = Group(i)
		st.Users = g.users
		st.Tweets = g.tweets
		if g.users > 0 {
			st.AvgDistinctDistricts = float64(g.districts) / float64(g.users)
			st.AvgMatchShare = g.shares.value() / float64(g.users)
		}
		if a.Users > 0 {
			st.UserShare = float64(g.users) / float64(a.Users)
		}
		if a.Tweets > 0 {
			st.TweetShare = float64(g.tweets) / float64(a.Tweets)
		}
	}
	if a.Users > 0 {
		a.OverallAvgDistricts = float64(districts) / float64(a.Users)
	}
	if a.Tweets > 0 {
		a.OverallMatchShare = float64(matched) / float64(a.Tweets)
	}
	return a
}

// exactSum holds a sum of float64s exactly, as non-overlapping partials in
// increasing magnitude (Shewchuk, "Adaptive Precision Floating-Point
// Arithmetic", 1997). value rounds the exact sum to the nearest float64,
// ties to even, with the final step of Python's math.fsum. The inputs here
// are match shares in [-1, 1], so no partial can overflow.
type exactSum struct {
	parts []float64
}

// add adds x exactly. Each step is an error-free two-sum: hi is the rounded
// sum of the running value and a partial, lo the rounding error, and only
// nonzero errors are kept.
func (s *exactSum) add(x float64) {
	i := 0
	for _, y := range s.parts {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		lo := y - (hi - x)
		if lo != 0 {
			s.parts[i] = lo
			i++
		}
		x = hi
	}
	s.parts = s.parts[:i]
	if x != 0 {
		s.parts = append(s.parts, x)
	}
}

// value returns the exact sum rounded to the nearest float64, ties to even.
func (s *exactSum) value() float64 {
	p := s.parts
	n := len(p)
	if n == 0 {
		return 0
	}
	n--
	hi, lo := p[n], 0.0
	// Sum from the top while the result stays exact.
	for n > 0 {
		x := hi
		n--
		y := p[n]
		hi = x + y
		lo = y - (hi - x)
		if lo != 0 {
			break
		}
	}
	// hi+lo is exact. If lo is exactly half an ulp of hi, the partials
	// below it decide the tie: when they push the same way as lo, the
	// exact sum is past the halfway point and hi must round away.
	if n > 0 && (lo < 0 && p[n-1] < 0 || lo > 0 && p[n-1] > 0) {
		y := lo * 2
		x := hi + y
		if x-hi == y {
			hi = x
		}
	}
	return hi
}
