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

// GroupsResult is the /v1/groups envelope, served by a stream engine and by
// the cluster router alike. The cluster-only fields stay empty, and so
// unwritten, on a single engine.
type GroupsResult struct {
	Users               int        `json:"users"`
	Tweets              int        `json:"tweets"`
	Groups              []GroupRow `json:"groups"`
	OverallAvgDistricts float64    `json:"overall_avg_districts"`
	OverallMatchShare   float64    `json:"overall_match_share"`
	// Workers is how many workers the router asked and WorkersOK how many
	// answered; Partial marks an answer missing some of them, and Errors
	// names each missing worker.
	Workers   int           `json:"workers,omitempty"`
	WorkersOK int           `json:"workers_ok,omitempty"`
	Partial   bool          `json:"partial,omitempty"`
	Errors    []WorkerError `json:"errors,omitempty"`
}

// WorkerError is one worker's failure inside a partial cluster result.
type WorkerError struct {
	Worker string `json:"worker"`
	Error  string `json:"error"`
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

// Result returns a's /v1/groups envelope, with the cluster fields empty.
func (a Analysis) Result() GroupsResult {
	return GroupsResult{
		Users:               a.Users,
		Tweets:              a.Tweets,
		Groups:              a.Rows(),
		OverallAvgDistricts: a.OverallAvgDistricts,
		OverallMatchShare:   a.OverallMatchShare,
	}
}

// Analyze aggregates user groupings into the paper's per-group statistics:
// a fold of every user's term into a Summary. Users with zero geo-tweets are
// skipped: the paper's refinement only keeps users that have GPS coordinates
// in their tweets.
func Analyze(users []UserGrouping) Analysis {
	var s Summary
	for _, u := range users {
		s.Add(u.Term())
	}
	return s.Analysis()
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
