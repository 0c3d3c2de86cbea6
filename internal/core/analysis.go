package core

// GroupStat aggregates one Top-k group over a dataset — one bar of the
// paper's result figures.
type GroupStat struct {
	Group Group
	// Users in this group and their share of all users (Fig. 7).
	Users     int
	UserShare float64
	// Tweets posted by this group's users and their share (slide "Number of
	// tweets in each group").
	Tweets     int
	TweetShare float64
	// AvgDistinctDistricts is the mean number of different tweet districts
	// per user in this group (Fig. 6).
	AvgDistinctDistricts float64
	// AvgMatchShare is the mean fraction of tweets posted from the profile
	// district, the group-level reliability weight.
	AvgMatchShare float64
}

// GroupRow is one per-group row of the /v1/groups answer that stream
// workers and the cluster router serve.
type GroupRow struct {
	Group                string  `json:"group"`
	Users                int     `json:"users"`
	UserShare            float64 `json:"user_share"`
	Tweets               int     `json:"tweets"`
	TweetShare           float64 `json:"tweet_share"`
	AvgDistinctDistricts float64 `json:"avg_distinct_districts"`
	AvgMatchShare        float64 `json:"avg_match_share"`
}

// Analysis is the dataset-level result: everything Figures 6-7 and the
// slides' charts are drawn from.
type Analysis struct {
	Users  int
	Tweets int
	// Groups holds one entry per Group in display order (Top-1 … None).
	Groups [NumGroups]GroupStat
	// OverallAvgDistricts is the user-weighted mean number of tweet
	// districts across all groups — the "2.xx locations in average" the
	// paper closes §IV with.
	OverallAvgDistricts float64
	// OverallMatchShare is the dataset-level reliability: the fraction of
	// all geo-tweets posted from their author's profile district.
	OverallMatchShare float64
}

// Rows returns the per-group statistics as /v1/groups rows, in display
// order.
func (a Analysis) Rows() []GroupRow {
	rows := make([]GroupRow, 0, NumGroups)
	for _, g := range a.Groups {
		rows = append(rows, GroupRow{
			Group:                g.Group.String(),
			Users:                g.Users,
			UserShare:            g.UserShare,
			Tweets:               g.Tweets,
			TweetShare:           g.TweetShare,
			AvgDistinctDistricts: g.AvgDistinctDistricts,
			AvgMatchShare:        g.AvgMatchShare,
		})
	}
	return rows
}

// Analyze aggregates user groupings into the paper's per-group statistics.
// Users with zero geo-tweets are skipped: the paper's refinement only keeps
// users that have GPS coordinates in their tweets.
func Analyze(users []UserGrouping) Analysis {
	var a Analysis
	for g := range a.Groups {
		a.Groups[g].Group = Group(g)
	}
	var matchedTweets int
	for _, u := range users {
		if u.TotalTweets == 0 {
			continue
		}
		g := &a.Groups[u.Group]
		g.Users++
		g.Tweets += u.TotalTweets
		g.AvgDistinctDistricts += float64(u.DistinctDistricts)
		g.AvgMatchShare += u.MatchShare()
		a.Users++
		a.Tweets += u.TotalTweets
		a.OverallAvgDistricts += float64(u.DistinctDistricts)
		matchedTweets += u.MatchedTweets
	}
	for g := range a.Groups {
		st := &a.Groups[g]
		if st.Users > 0 {
			st.AvgDistinctDistricts /= float64(st.Users)
			st.AvgMatchShare /= float64(st.Users)
		}
		if a.Users > 0 {
			st.UserShare = float64(st.Users) / float64(a.Users)
		}
		if a.Tweets > 0 {
			st.TweetShare = float64(st.Tweets) / float64(a.Tweets)
		}
	}
	if a.Users > 0 {
		a.OverallAvgDistricts /= float64(a.Users)
	}
	if a.Tweets > 0 {
		a.OverallMatchShare = float64(matchedTweets) / float64(a.Tweets)
	}
	return a
}

// Stat returns the aggregate row for one group.
func (a *Analysis) Stat(g Group) GroupStat {
	if int(g) < 0 || int(g) >= NumGroups {
		return GroupStat{Group: g}
	}
	return a.Groups[g]
}

// TopShare returns the combined user share of groups Top-1..Top-k (k ≤ 5) —
// the paper's "more than 60% of all users are in the Top-1 and Top-2 group"
// is TopShare(2).
func (a *Analysis) TopShare(k int) float64 {
	if k > 5 {
		k = 5
	}
	var s float64
	for i := 0; i < k; i++ {
		s += a.Groups[i].UserShare
	}
	return s
}
