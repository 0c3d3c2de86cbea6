package core

import (
	"fmt"
	"sort"
)

// Group is the paper's user classification by matched-string rank.
type Group int

// Groups in figure order: Top-1 … Top-5, Top-+ (rank ≥ 6), None (no match).
const (
	Top1 Group = iota
	Top2
	Top3
	Top4
	Top5
	TopPlus
	None
	numGroups
)

// NumGroups is how many groups exist, for table allocation.
const NumGroups = int(numGroups)

// Groups lists all groups in display order.
func Groups() []Group {
	return []Group{Top1, Top2, Top3, Top4, Top5, TopPlus, None}
}

// String implements fmt.Stringer with the paper's axis labels.
func (g Group) String() string {
	switch g {
	case Top1:
		return "Top-1"
	case Top2:
		return "Top-2"
	case Top3:
		return "Top-3"
	case Top4:
		return "Top-4"
	case Top5:
		return "Top-5"
	case TopPlus:
		return "Top-+"
	case None:
		return "None"
	default:
		return fmt.Sprintf("Group(%d)", int(g))
	}
}

// GroupOfRank maps a 1-based matched-string rank to its group; rank 0 means
// no matched string and maps to None.
func GroupOfRank(rank int) Group {
	switch {
	case rank <= 0:
		return None
	case rank <= 5:
		return Group(rank - 1)
	default:
		return TopPlus
	}
}

// UserGrouping is the method's full output for one user.
type UserGrouping struct {
	UserID  int64
	Profile Place
	// Merged is the merged-and-ordered string list (Table II): descending by
	// count, ties broken by tweet-place key so the order is deterministic.
	Merged []MergedString
	// MatchedRank is the 1-based rank of the matched string, 0 if absent.
	MatchedRank int
	// Group derives from MatchedRank.
	Group Group
	// TotalTweets is the user's geo-tagged tweet count.
	TotalTweets int
	// DistinctDistricts is how many different districts the user tweeted
	// from — Figure 6's quantity.
	DistinctDistricts int
	// MatchedTweets is the multiplicity of the matched string (0 when none),
	// the numerator of the reliability weight.
	MatchedTweets int
}

// Term is the user's contribution to the §IV analysis.
func (u UserGrouping) Term() UserTerm {
	return UserTerm{Group: u.Group, Tweets: u.TotalTweets, Districts: u.DistinctDistricts, Matched: u.MatchedTweets}
}

// MatchShare is the fraction of the user's geo-tweets posted from the
// profile district — the smooth reliability weight (§V).
func (u UserGrouping) MatchShare() float64 { return u.Term().Share() }

// BuildUserGrouping runs the method for one user: merge the per-tweet places
// into counted strings, order them, locate the matched string, classify.
// tweetPlaces holds one Place per geo-tagged tweet (duplicates expected).
// A user with no geo-tagged tweets yields MatchedRank 0, group None, and an
// empty Merged list.
func BuildUserGrouping(userID int64, profile Place, tweetPlaces []Place) UserGrouping {
	counts := make(map[Place]int, len(tweetPlaces))
	for _, p := range tweetPlaces {
		counts[p]++
	}
	merged := make([]MergedString, 0, len(counts))
	for p, c := range counts {
		merged = append(merged, MergedString{
			LocString: LocString{UserID: userID, Profile: profile, Tweet: p},
			Count:     c,
		})
	}
	// Descending count; ties broken lexicographically by tweet key so equal
	// inputs always produce the same Table II.
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Count != merged[j].Count {
			return merged[i].Count > merged[j].Count
		}
		return merged[i].Tweet.Key() < merged[j].Tweet.Key()
	})
	u := UserGrouping{
		UserID:            userID,
		Profile:           profile,
		Merged:            merged,
		TotalTweets:       len(tweetPlaces),
		DistinctDistricts: len(merged),
	}
	for i, m := range merged {
		if m.Matched() {
			u.MatchedRank = i + 1
			u.MatchedTweets = m.Count
			break
		}
	}
	u.Group = GroupOfRank(u.MatchedRank)
	return u
}

// BuildFromStrings is the wire-format entry point: it parses raw location
// strings (one per tweet, possibly for many users), groups them per user and
// runs the method for each. Strings for the same user must agree on the
// profile place; a conflict is an error because it means the upstream join
// was wrong.
func BuildFromStrings(raw []string) ([]UserGrouping, error) {
	type acc struct {
		profile Place
		places  []Place
	}
	byUser := make(map[int64]*acc)
	order := make([]int64, 0)
	for _, s := range raw {
		ls, err := ParseLocString(s)
		if err != nil {
			return nil, err
		}
		a, ok := byUser[ls.UserID]
		if !ok {
			a = &acc{profile: ls.Profile}
			byUser[ls.UserID] = a
			order = append(order, ls.UserID)
		} else if a.profile != ls.Profile {
			return nil, fmt.Errorf("core: user %d has conflicting profile places %q and %q",
				ls.UserID, a.profile.Key(), ls.Profile.Key())
		}
		a.places = append(a.places, ls.Tweet)
	}
	out := make([]UserGrouping, 0, len(byUser))
	for _, id := range order {
		a := byUser[id]
		out = append(out, BuildUserGrouping(id, a.profile, a.places))
	}
	return out, nil
}
