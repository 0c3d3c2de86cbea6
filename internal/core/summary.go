package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

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

// Empty reports whether the summary holds no users.
func (s *Summary) Empty() bool {
	for _, g := range s.groups {
		if g.users != 0 {
			return false
		}
	}
	return true
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

// maxPartial bounds a share-sum partial on the wire. A share sum is at most
// the group's user count, far below 2^53; the bound keeps every sum the
// decoder forms finite.
const maxPartial = 1 << 53

// AppendFrame appends the summary's binary wire form to dst and returns the
// extended slice. Each group in display order is four uvarints (users,
// tweets, districts, matched) followed by the exact share sum as its
// canonical expansion (exactSum.canonical): a uvarint count, then each
// partial's IEEE 754 bits, little-endian. Equal summaries write equal
// bytes, however their share sums were accumulated.
func (s *Summary) AppendFrame(dst []byte) []byte {
	for i := range s.groups {
		g := &s.groups[i]
		for _, v := range [...]int{g.users, g.tweets, g.districts, g.matched} {
			dst = binary.AppendUvarint(dst, uint64(v))
		}
		parts := g.shares.canonical()
		dst = binary.AppendUvarint(dst, uint64(len(parts)))
		for _, p := range parts {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p))
		}
	}
	return dst
}

// ReadFrame decodes the form AppendFrame writes from the front of b into s
// and returns the bytes after it. It rebuilds each share sum by adding the
// partials one by one rather than trusting the list, so the decoded sum is
// exact and its partials well formed whatever the bytes held. A truncated
// summary, a count past math.MaxInt, a varint longer than it needs to be, a
// NaN or out-of-range partial, and a partial list that is not the
// canonical expansion of its own sum are errors, so a summary the decoder
// accepts re-encodes to the same bytes. It allocates at most a few times
// the partials' share of len(b), whatever counts b claims. s is left alone
// on error.
func (s *Summary) ReadFrame(b []byte) ([]byte, error) {
	var dec Summary
	for i := range dec.groups {
		g := &dec.groups[i]
		var v [5]uint64
		for k := range v {
			u, n := binary.Uvarint(b)
			if n <= 0 || n > 1 && b[n-1] == 0 {
				return nil, fmt.Errorf("core: summary group %v: truncated or malformed varint", Group(i))
			}
			v[k], b = u, b[n:]
		}
		if v[0] > math.MaxInt || v[1] > math.MaxInt || v[2] > math.MaxInt || v[3] > math.MaxInt {
			return nil, fmt.Errorf("core: summary group %v has a count past math.MaxInt", Group(i))
		}
		g.users, g.tweets, g.districts, g.matched = int(v[0]), int(v[1]), int(v[2]), int(v[3])
		if v[4] > uint64(len(b)/8) {
			return nil, fmt.Errorf("core: summary group %v claims %d share partials in %d bytes", Group(i), v[4], len(b))
		}
		raw := b[:8*v[4]]
		b = b[8*v[4]:]
		for k := 0; k < len(raw); k += 8 {
			p := math.Float64frombits(binary.LittleEndian.Uint64(raw[k:]))
			if math.IsNaN(p) || math.Abs(p) > maxPartial {
				return nil, fmt.Errorf("core: summary group %v has share partial %v", Group(i), p)
			}
			g.shares.add(p)
		}
		canon := g.shares.canonical()
		if len(canon)*8 != len(raw) {
			return nil, fmt.Errorf("core: summary group %v: share partials are not canonical", Group(i))
		}
		for k, p := range canon {
			if math.Float64bits(p) != binary.LittleEndian.Uint64(raw[8*k:]) {
				return nil, fmt.Errorf("core: summary group %v: share partials are not canonical", Group(i))
			}
		}
	}
	*s = dec
	return b, nil
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

// canonical returns the exact sum as a list that depends only on its value,
// smallest first: the last element is the sum rounded to the nearest
// float64, and each one before it the remainder below the next, rounded
// the same way. The partials add leaves depend on the order of the adds;
// this list does not. Each remainder is at most half an ulp of the element
// above it, so the list is short (a few elements for any share sum).
func (s *exactSum) canonical() []float64 {
	rest := exactSum{parts: append([]float64(nil), s.parts...)}
	var out []float64
	for len(rest.parts) > 0 {
		v := rest.value()
		if v == 0 {
			break // add keeps partials non-overlapping, so their sum is never 0
		}
		out = append(out, v)
		rest.add(-v)
	}
	slices.Reverse(out)
	return out
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
